//! End-to-end framework emulations (paper Figure 11, Table IV).
//!
//! Every framework trains the *same* model mathematics on the same data —
//! what differs is where embedding parameters live and what crosses the
//! bus. Compute time is measured and split into kernel classes; bus
//! traffic is metered; the device model ([`crate::device`]) converts both
//! to time, so the reported end-to-end numbers carry the shape of the
//! paper's single-GPU comparison.

use crate::device::DeviceWork;
use el_core::TtOptions;
use el_data::stats::AccessHistogram;
use el_data::{MiniBatch, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use el_pipeline::server::{HostServer, ServerMode};
use el_pipeline::trainer::{PipelineConfig, PipelineTrainer};
use el_pipeline::CommMeter;
use el_reorder::{IndexBijection, ReorderConfig, Reorderer};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Which framework strategy to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameworkKind {
    /// Facebook DLRM: every large table host-resident, synchronous PS.
    DlrmPs,
    /// FAE: hot embeddings device-resident, cold batches pay the host.
    Fae,
    /// TT-Rec: TT-compressed tables with unoptimized kernels.
    TtRec,
    /// EL-Rec: Eff-TT kernels plus locality-based index reordering.
    ElRec,
}

impl FrameworkKind {
    /// Display name used in bench output.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::DlrmPs => "DLRM (CPU+GPU)",
            FrameworkKind::Fae => "FAE",
            FrameworkKind::TtRec => "TT-Rec",
            FrameworkKind::ElRec => "EL-Rec",
        }
    }

    /// All four end-to-end contenders in the paper's order.
    pub fn all() -> [FrameworkKind; 4] {
        [FrameworkKind::DlrmPs, FrameworkKind::Fae, FrameworkKind::TtRec, FrameworkKind::ElRec]
    }
}

/// Shared run parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Samples per batch (the paper uses 4K).
    pub batch_size: usize,
    /// First training batch.
    pub first: u64,
    /// Number of training batches.
    pub num_batches: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Tables at or above this row count are "large" (compressed /
    /// host-resident depending on the framework).
    pub large_threshold: usize,
    /// TT rank for compressed frameworks (paper: 128 on V100, 64 on T4).
    pub tt_rank: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Model init seed (shared so all frameworks start from equivalent
    /// states).
    pub seed: u64,
    /// EL-Rec reordering hot ratio.
    pub hot_ratio: f64,
    /// FAE device-cache hot ratio (FAE sizes its hot set to GPU capacity,
    /// far above the reordering cutoff).
    pub fae_hot_ratio: f64,
    /// Batches profiled for frequency/co-occurrence before training.
    pub profile_batches: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            batch_size: 512,
            first: 0,
            num_batches: 20,
            dim: 16,
            large_threshold: 1000,
            tt_rank: 16,
            lr: 0.05,
            seed: 7,
            hot_ratio: 0.05,
            fae_hot_ratio: 0.05,
            profile_batches: 10,
        }
    }
}

/// Measured + metered outcome of one framework run.
#[derive(Clone, Debug)]
pub struct FrameworkReport {
    /// Framework display name.
    pub name: String,
    /// Measured device compute by kernel class, host compute (parameter
    /// server gathers and updates, FAE's cold path) and bus traffic; a
    /// [`crate::DeviceSpec`] turns it into time.
    pub work: DeviceWork,
    /// Per-batch losses.
    pub losses: Vec<f32>,
    /// Samples trained.
    pub samples: usize,
    /// Device-resident embedding bytes (Table III).
    pub device_embedding_bytes: usize,
}

/// A completed run: report, final model and (for EL-Rec) the index
/// bijections evaluation batches must be remapped with.
pub struct FrameworkRun {
    /// Timing / traffic report.
    pub report: FrameworkReport,
    /// Trained model (for Table IV accuracy).
    pub model: DlrmModel,
    /// Per-table bijections when the framework reorders indices.
    pub bijections: Vec<Option<IndexBijection>>,
}

impl FrameworkRun {
    /// Remaps a batch through this run's bijections (no-op for frameworks
    /// that keep raw indices).
    pub fn remap(&self, batch: &MiniBatch) -> MiniBatch {
        let mut out = batch.clone();
        for (t, bij) in self.bijections.iter().enumerate() {
            if let Some(b) = bij {
                out.fields[t].remap(&b.forward);
            }
        }
        out
    }

    /// Evaluates accuracy on batches, applying the bijections first.
    pub fn evaluate(&mut self, batches: &[MiniBatch]) -> el_dlrm::model::EvalMetrics {
        let remapped: Vec<MiniBatch> = batches.iter().map(|b| self.remap(b)).collect();
        self.model.evaluate(&remapped)
    }
}

/// Runs one framework on a dataset.
pub fn run_framework(
    kind: FrameworkKind,
    dataset: &SyntheticDataset,
    params: &RunParams,
) -> FrameworkRun {
    match kind {
        FrameworkKind::DlrmPs => run_dlrm_ps(dataset, params),
        FrameworkKind::Fae => run_fae(dataset, params),
        FrameworkKind::TtRec => run_tt(dataset, params, TtOptions::tt_rec_baseline(), false),
        FrameworkKind::ElRec => run_tt(dataset, params, TtOptions::default(), true),
    }
}

fn base_config(dataset: &SyntheticDataset, params: &RunParams, tt_threshold: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::for_spec(dataset.spec(), params.dim, tt_threshold, params.tt_rank);
    cfg.lr = params.lr;
    cfg.bottom_hidden = vec![32];
    cfg.top_hidden = vec![32];
    cfg
}

/// Facebook DLRM: large tables hosted on the CPU parameter server, strict
/// alternation (no pipeline, no cache).
fn run_dlrm_ps(dataset: &SyntheticDataset, params: &RunParams) -> FrameworkRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    // no TT anywhere: threshold above every table
    let cfg = base_config(dataset, params, usize::MAX);
    let mut model = DlrmModel::new(&cfg, &mut rng);

    // Move large tables to the host.
    let cards = &dataset.spec().table_cardinalities;
    let host = model.host_dense_tables(|t| cards[t] >= params.large_threshold);
    // Reference DLRM: the CPU runs the full EmbeddingBag forward/backward
    // and ships pooled batch x dim activations/gradients.
    let server = HostServer::new(host, params.lr).with_mode(ServerMode::PooledEmbeddings);
    let pipe_cfg = PipelineConfig {
        batch_size: params.batch_size,
        first_batch: params.first,
        num_batches: params.num_batches,
        prefetch_depth: 1,
        pipelined: false,
        ..PipelineConfig::default()
    };
    let report = PipelineTrainer::try_train(model, server, dataset, &pipe_cfg)
        .expect("the pooled baseline is scheduled sequentially on one server");
    let mut model = report.model;
    let device_bytes = model.embedding_footprint_bytes();
    let probe = dataset.batch(params.first, params.batch_size);
    let work = DeviceWork {
        host: report.server_cpu,
        bus: report.server_meter,
        ..DeviceWork::split(&mut model, &probe, report.worker_compute, params.num_batches)
    };
    // Reinstall the final host tables so the model is self-contained for
    // evaluation.
    for (t, bag) in report.host_tables {
        model.tables[t] = EmbeddingLayer::Dense(bag);
    }
    let bijections = vec![None; model.num_tables()];
    FrameworkRun {
        report: FrameworkReport {
            name: FrameworkKind::DlrmPs.name().into(),
            work,
            losses: report.losses,
            samples: (params.num_batches as usize) * params.batch_size,
            device_embedding_bytes: device_bytes,
        },
        model,
        bijections,
    }
}

/// FAE: hot rows of large tables live on the device, so hot-only batches
/// never touch the host; batches containing cold indices pay a gather +
/// update round trip (and, in the real system, CPU-side training — the
/// gather/update work below is that cost's measured analogue).
fn run_fae(dataset: &SyntheticDataset, params: &RunParams) -> FrameworkRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let cfg = base_config(dataset, params, usize::MAX);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    let spec = dataset.spec().clone();

    // Profiling pass: per-table frequency -> hot masks for large tables.
    let large: Vec<usize> = spec.large_tables(params.large_threshold);
    let mut hot_masks: Vec<Option<Vec<bool>>> = vec![None; spec.num_sparse()];
    let profile = dataset.batches(params.first, params.profile_batches as usize, params.batch_size);
    for &t in &large {
        let mut hist = AccessHistogram::new(spec.table_cardinalities[t]);
        for batch in &profile {
            hist.record(batch, t);
        }
        let order = hist.frequency_order();
        let hot_count =
            ((spec.table_cardinalities[t] as f64) * params.fae_hot_ratio).ceil() as usize;
        let mut mask = vec![false; spec.table_cardinalities[t]];
        for &i in order.iter().take(hot_count) {
            mask[i as usize] = true;
        }
        hot_masks[t] = Some(mask);
    }

    let mut meter = CommMeter::new();
    let mut losses = Vec::new();
    let mut cpu_wall = Duration::ZERO;
    let mut device_wall = Duration::ZERO;
    let mut cold_sample_total = 0usize;
    let mut sample_total = 0usize;
    for k in 0..params.num_batches {
        let batch = dataset.batch(params.first + k, params.batch_size);
        // FAE's popularity-based scheduler partitions samples: a sample
        // whose every large-table index is hot trains purely on the GPU
        // (hot rows are device-resident); the remaining "cold" samples
        // (~25% in the paper's profiling) fall back to the DLRM-style
        // hybrid path — their rows are gathered/updated on the host and
        // cross the bus.
        let cold_samples: Vec<usize> = (0..batch.batch_size())
            .filter(|&sidx| {
                large.iter().any(|&t| {
                    let mask = hot_masks[t].as_ref().unwrap();
                    batch.fields[t].sample(sidx).iter().any(|&i| !mask[i as usize])
                })
            })
            .collect();
        cold_sample_total += cold_samples.len();
        sample_total += batch.batch_size();

        // TIMING: per-batch framework-simulation metric (host gather wall),
        // reported in the run summary — this crate's purpose is measurement.
        let t_host = Instant::now();
        for &t in &large {
            let field = &batch.fields[t];
            let mut rows_needed: Vec<u32> =
                cold_samples.iter().flat_map(|&sidx| field.sample(sidx).iter().copied()).collect();
            rows_needed.sort_unstable();
            rows_needed.dedup();
            if rows_needed.is_empty() {
                continue;
            }
            let bag = match &model.tables[t] {
                EmbeddingLayer::Dense(b) => b,
                _ => unreachable!(),
            };
            let rows = bag.gather_rows(&rows_needed); // measured CPU gather
            meter.h2d(rows.footprint_bytes() + rows_needed.len() * 4);
            meter.d2h(rows.footprint_bytes() + rows_needed.len() * 4);
        }
        cpu_wall += t_host.elapsed();

        // TIMING: simulated-device wall of the train step, reported.
        let t_dev = Instant::now();
        losses.push(model.train_step(&batch));
        device_wall += t_dev.elapsed();
    }
    let cold_frac = cold_sample_total as f64 / sample_total.max(1) as f64;
    eprintln!("  [FAE] cold-sample fraction: {:.0}% (paper profiled ~25%)", cold_frac * 100.0);
    let probe = dataset.batch(params.first, params.batch_size);
    let work = DeviceWork {
        host: cpu_wall,
        bus: meter,
        ..DeviceWork::split(&mut model, &probe, device_wall, params.num_batches)
    };
    let device_bytes: usize = large
        .iter()
        .map(|&t| {
            ((spec.table_cardinalities[t] as f64 * params.fae_hot_ratio) as usize) * params.dim * 4
        })
        .sum();
    let bijections = vec![None; model.num_tables()];
    FrameworkRun {
        report: FrameworkReport {
            name: FrameworkKind::Fae.name().into(),
            work,
            losses,
            samples: (params.num_batches as usize) * params.batch_size,
            device_embedding_bytes: device_bytes,
        },
        model,
        bijections,
    }
}

/// TT-Rec / EL-Rec: large tables compressed on the device; EL-Rec
/// additionally reorders indices with the offline bijection generator.
fn run_tt(
    dataset: &SyntheticDataset,
    params: &RunParams,
    options: TtOptions,
    reorder: bool,
) -> FrameworkRun {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let cfg = base_config(dataset, params, params.large_threshold);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    let spec = dataset.spec().clone();

    let mut bijections: Vec<Option<IndexBijection>> = vec![None; spec.num_sparse()];
    if reorder {
        let reorderer =
            Reorderer::new(ReorderConfig { hot_ratio: params.hot_ratio, seed: params.seed });
        let profile =
            dataset.batches(params.first, params.profile_batches as usize, params.batch_size);
        for &t in &spec.large_tables(params.large_threshold) {
            let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[t].indices[..]).collect();
            bijections[t] = Some(reorderer.fit(spec.table_cardinalities[t], &lists));
        }
    }
    for table in &mut model.tables {
        if let EmbeddingLayer::Tt(bag, _) = table {
            bag.options = options.clone();
        }
    }

    let mut losses = Vec::new();
    // TIMING: end-to-end wall of the framework run, reported.
    let start = Instant::now();
    for k in 0..params.num_batches {
        let mut batch = dataset.batch(params.first + k, params.batch_size);
        for (t, bij) in bijections.iter().enumerate() {
            if let Some(b) = bij {
                batch.fields[t].remap(&b.forward);
            }
        }
        losses.push(model.train_step(&batch));
    }
    let wall = start.elapsed();
    let kind = if reorder { FrameworkKind::ElRec } else { FrameworkKind::TtRec };
    let device_bytes = model.embedding_footprint_bytes();
    // everything fits on the device: no host work, no bus traffic
    let mut probe = dataset.batch(params.first, params.batch_size);
    for (t, bij) in bijections.iter().enumerate() {
        if let Some(b) = bij {
            probe.fields[t].remap(&b.forward);
        }
    }
    let work = DeviceWork::split(&mut model, &probe, wall, params.num_batches);
    FrameworkRun {
        report: FrameworkReport {
            name: kind.name().into(),
            work,
            losses,
            samples: (params.num_batches as usize) * params.batch_size,
            device_embedding_bytes: device_bytes,
        },
        model,
        bijections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_data::DatasetSpec;

    fn dataset() -> SyntheticDataset {
        let mut spec = DatasetSpec::toy(3, 2000, 1_000_000);
        spec.num_dense = 4;
        SyntheticDataset::new(spec, 42)
    }

    fn params() -> RunParams {
        RunParams {
            batch_size: 64,
            num_batches: 6,
            dim: 8,
            large_threshold: 1000,
            tt_rank: 8,
            profile_batches: 4,
            // toy tables are tiny; a generous hot set keeps the FAE cold
            // fraction in the regime the paper profiles (~25%)
            fae_hot_ratio: 0.5,
            ..RunParams::default()
        }
    }

    #[test]
    fn all_frameworks_run_and_train() {
        let ds = dataset();
        let p = params();
        for kind in FrameworkKind::all() {
            let run = run_framework(kind, &ds, &p);
            assert_eq!(run.report.losses.len(), 6, "{}", run.report.name);
            assert!(run.report.losses.iter().all(|l| l.is_finite()));
            let w = &run.report.work;
            assert!(w.gemm + w.tt + w.gather > Duration::ZERO);
        }
    }

    #[test]
    fn dlrm_ps_pays_the_most_bus_traffic() {
        let ds = dataset();
        let p = params();
        let dlrm = run_framework(FrameworkKind::DlrmPs, &ds, &p);
        let fae = run_framework(FrameworkKind::Fae, &ds, &p);
        let elrec = run_framework(FrameworkKind::ElRec, &ds, &p);
        assert!(dlrm.report.work.bus.total_bytes() > fae.report.work.bus.total_bytes());
        assert_eq!(elrec.report.work.bus.total_bytes(), 0);
    }

    #[test]
    fn compressed_frameworks_use_less_device_memory() {
        let ds = dataset();
        let p = params();
        let fae = run_framework(FrameworkKind::Fae, &ds, &p);
        let ttrec = run_framework(FrameworkKind::TtRec, &ds, &p);
        // FAE keeps full small tables + hot slices; TT-Rec compresses the
        // large ones outright. Both should be far below the dense total.
        let dense_total: usize = ds.spec().table_cardinalities.iter().map(|c| c * 8 * 4).sum();
        assert!(ttrec.report.device_embedding_bytes < dense_total);
        let _ = fae;
    }

    #[test]
    fn elrec_beats_dlrm_on_device_time() {
        let ds = dataset();
        let p = params();
        let dlrm = run_framework(FrameworkKind::DlrmPs, &ds, &p);
        let elrec = run_framework(FrameworkKind::ElRec, &ds, &p);
        let dev = crate::DeviceSpec::v100();
        let [elrec, dlrm] =
            [elrec, dlrm].map(|run| dev.time(&run.report.work, p.num_batches, false));
        assert!(elrec < dlrm, "EL-Rec {elrec} s vs DLRM {dlrm} s");
    }

    #[test]
    fn accuracies_are_comparable_across_frameworks() {
        // Table IV: compression must not cost (much) accuracy.
        let ds = dataset();
        let mut p = params();
        p.num_batches = 30;
        let eval: Vec<MiniBatch> = (1000..1004).map(|b| ds.batch(b, 64)).collect();
        let mut accs = Vec::new();
        for kind in FrameworkKind::all() {
            let mut run = run_framework(kind, &ds, &p);
            let m = run.evaluate(&eval);
            accs.push((kind.name(), m.accuracy));
        }
        let max = accs.iter().map(|(_, a)| *a).fold(0.0, f64::max);
        for (name, a) in &accs {
            assert!(max - a < 0.12, "{name} accuracy {a} too far below best {max}");
        }
    }

    #[test]
    fn elrec_remap_keeps_batches_valid() {
        let ds = dataset();
        let run = run_framework(FrameworkKind::ElRec, &ds, &params());
        let batch = ds.batch(99, 32);
        let remapped = run.remap(&batch);
        remapped.validate().unwrap();
        assert!(run.bijections.iter().any(Option::is_some));
    }
}
