//! Figure 16 — pipeline training throughput.
//!
//! Compares three configurations on the same hybrid placement (the largest
//! table TT-compressed on the device, the remaining large tables in host
//! memory):
//!
//! * DLRM — every large table hosted, strict sequential parameter server;
//! * EL-Rec (Sequential) — pre-fetch queue length 1;
//! * EL-Rec (Pipeline) — queue depth 4, embedding cache resolving RAW.
//!
//! The two stages (host gather/update/load vs device compute) are
//! *measured* on real threads; because this machine exposes a single CPU
//! core, physical overlap is impossible, so the pipeline's effect is
//! modeled from the measured stage times: sequential = host + device,
//! pipelined = max(host, device) (+ one-batch fill). Bus time comes from
//! the metered traffic. This is the documented single-core substitution
//! for the paper's CPU+GPU testbed.

use el_bench::{bench_batches, bench_scale, fmt_secs, fmt_speedup, print_table, section};
use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel};
use el_frameworks::{DeviceSpec, DeviceWork};
use el_pipeline::server::{HostServer, ServerMode};
use el_pipeline::trainer::{PipelineConfig, PipelineTrainer};
use rand::SeedableRng;

/// Builds a model + host server: with `tt` the largest table is TT on the
/// device, and every dense table of at least `threshold` rows is hosted.
fn setup(
    ds: &SyntheticDataset,
    tt: bool,
    threshold: usize,
    mode: ServerMode,
) -> (DlrmModel, HostServer) {
    let spec = ds.spec();
    let largest = spec
        .table_cardinalities
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    let tt_threshold = if tt { spec.table_cardinalities[largest] } else { usize::MAX };
    let mut cfg = DlrmConfig::for_spec(spec, 16, tt_threshold, 16);
    cfg.bottom_hidden = vec![32];
    cfg.top_hidden = vec![32];
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    let host = model.host_dense_tables(|t| spec.table_cardinalities[t] >= threshold);
    (model, HostServer::new(host, cfg.lr).with_mode(mode))
}

fn main() {
    let scale = bench_scale(0.003);
    let num_batches = bench_batches(16);
    let device = DeviceSpec::v100();
    let ds = SyntheticDataset::new(DatasetSpec::criteo_kaggle(scale), 71);
    let threshold = 2_000;

    section(&format!(
        "Figure 16: pipeline training throughput (stages measured, overlap modeled, {})",
        device.name
    ));
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for (name, tt, pipelined, depth, mode) in [
        ("DLRM (all hosted, sequential)", false, false, 1usize, ServerMode::PooledEmbeddings),
        ("EL-Rec (Sequential)", true, false, 1, ServerMode::UniqueRows),
        ("EL-Rec (Pipeline)", true, true, 4, ServerMode::UniqueRows),
    ] {
        let (model, server) = setup(&ds, tt, threshold, mode);
        let config = PipelineConfig {
            batch_size: 1024,
            first_batch: 0,
            num_batches,
            prefetch_depth: depth,
            pipelined,
            ..PipelineConfig::default()
        };
        let report = PipelineTrainer::try_train(model, server, &ds, &config)
            .expect("only the sequential leg serves pooled embeddings");
        let mut model = report.model;
        let probe = ds.batch(config.first_batch, config.batch_size);
        let work = DeviceWork {
            host: report.server_cpu,
            bus: report.server_meter,
            ..DeviceWork::split(&mut model, &probe, report.worker_compute, num_batches)
        };
        let total = device.time(&work, num_batches, pipelined);
        let samples = (num_batches as usize * config.batch_size) as f64;
        let throughput = samples / total;
        if baseline == 0.0 {
            baseline = throughput;
        }
        rows.push(vec![
            name.to_string(),
            format!("{throughput:.0}"),
            fmt_speedup(throughput / baseline),
            fmt_secs(device.host_secs(&work)),
            fmt_secs(device.device_secs(&work)),
            report.stale_hits.to_string(),
        ]);
    }
    print_table(
        &["configuration", "samples/s", "speedup", "host stage", "device stage", "stale hits"],
        &rows,
    );
    println!(
        "paper: EL-Rec (Pipeline) 2.44x over DLRM and 1.30x over EL-Rec\n\
         (Sequential) on average; the embedding cache keeps pipelined\n\
         training numerically exact (see the pipeline equivalence test)."
    );
}
