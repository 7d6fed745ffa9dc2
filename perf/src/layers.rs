//! The one adapter between the benchmark and the repository.
//!
//! Every name from `el_*` crates the benchmark uses appears in this file
//! and nowhere else, so a refactor of a top-level entry point is a one-file
//! fix. The rest of the benchmark sees three harnesses — [`TtBench`],
//! [`HostedBench`], [`ServeBench`] — that take plain numbers in and hand
//! plain numbers out.
//!
//! Each harness offers the program's *top-level entry point* (what the
//! end-to-end metrics time, tracing off) and a *decomposed path* built only
//! from public layer calls with a span around each (what the traced run
//! times). The decomposed paths are checked against the entry points bit
//! for bit, which is also the benchmark's correctness oracle.

use crate::openloop::{self, Target};
use crate::trace::Tracer;
use el_core::plan::PlanScratch;
use el_core::{LookupPlan, TtConfig, TtEmbeddingBag, TtInferenceSession, TtWorkspace};
use el_data::{DatasetSpec, GenRequest, MiniBatch, OpenLoopConfig, OpenLoopGen, SyntheticDataset};
use el_dlrm::embedding_bag::EmbeddingBag;
use el_dlrm::loss::bce_with_logits;
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use el_pipeline::ckpt::Fnv1a;
use el_pipeline::server::{
    aggregate_to_unique, pool_prefetched, GradientPush, HostServer, PrefetchedBatch,
};
use el_pipeline::trainer::{PipelineConfig, PipelineTrainer};
use el_pipeline::{
    merge_tables, split_tables, EmbeddingCache, ReplicaGroup, ReplicationConfig, ShardConfig,
    ShardLayout, ShardRouter, ShardScatter,
};
use el_reorder::Reorderer;
use el_serve::{serve, Coalescer, ServeConfig, ServeError, ServeRequest, TenantConfig};
use el_tensor::batched::{batched_gemm, GemmBatch};
use el_tensor::Matrix;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const DIM: usize = 32;
const TT_RANK: usize = 16;

fn model_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d6f_6465_6c00)
}

/// Where a number was measured: recorded next to every result.
pub fn provenance() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", std::thread::available_parallelism().map_or(1, usize::from).to_string()),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("kernel", el_tensor::micro::active_kernel().to_string()),
        ("cpu_features", el_tensor::micro::cpu_features()),
    ]
}

fn hash_u32s(h: &mut Fnv1a, words: &[u32]) {
    for w in words {
        h.update(&w.to_le_bytes());
    }
}

fn hash_f32s(h: &mut Fnv1a, words: &[f32]) {
    for w in words {
        h.update(&w.to_bits().to_le_bytes());
    }
}

fn hash_batch(h: &mut Fnv1a, batch: &MiniBatch) {
    hash_f32s(h, &batch.dense);
    hash_f32s(h, &batch.labels);
    for f in &batch.fields {
        hash_u32s(h, &f.indices);
        hash_u32s(h, &f.offsets);
    }
}

// ---------------------------------------------------------------------------
// The decomposed train step
// ---------------------------------------------------------------------------

/// One SGD step in `train_step_hybrid`'s order — bottom MLP, embeddings
/// (plan, TT / dense forward), interaction, top MLP, loss, backward, `step`
/// — built from the layers' public calls with a span around each. Must give
/// the loss `train_step_hybrid` gives, bit for bit, on a same-state model.
fn decomposed_step(
    model: &mut DlrmModel,
    batch: &MiniBatch,
    hosted: &[(usize, Matrix)],
    tr: &mut Tracer,
    op: u64,
) -> (f32, Vec<(usize, Matrix)>) {
    let lr = model.lr;
    let s = tr.enter("dlrm.mlp", op);
    let dense = if batch.num_dense == 0 {
        Matrix::full(batch.batch_size(), model.bottom.in_dim(), 1.0)
    } else {
        Matrix::from_vec(batch.batch_size(), batch.num_dense, batch.dense.clone())
    };
    let z0 = model.bottom.forward(&dense);
    tr.exit(s);

    let mut embs: Vec<Matrix> = Vec::with_capacity(model.tables.len());
    for (t, field) in batch.fields.iter().enumerate() {
        let emb = match &mut model.tables[t] {
            EmbeddingLayer::Dense(bag) => {
                let s = tr.enter("dlrm.embed_dense", op);
                let e = bag.forward(&field.indices, &field.offsets);
                tr.exit(s);
                e
            }
            EmbeddingLayer::Tt(bag, ws) => {
                let s = tr.enter("core.forward", op);
                let before = ws.stage_timers().analysis_ns;
                let e = bag.forward(&field.indices, &field.offsets, ws);
                // Analysis runs first inside `forward`; its own stage
                // counter gives the split the call boundary hides.
                tr.child_prefix("core.plan", ws.stage_timers().analysis_ns - before);
                tr.exit(s);
                e
            }
            EmbeddingLayer::Hosted { .. } => {
                let s = tr.enter("dlrm.embed_hosted", op);
                let e = hosted
                    .iter()
                    .find(|(id, _)| *id == t)
                    .map(|(_, m)| m.clone())
                    .expect("every hosted table ships its pooled embeddings");
                tr.exit(s);
                e
            }
            _ => unreachable!("the benchmark builds no low-bit tables"),
        };
        embs.push(emb);
    }

    let s = tr.enter("dlrm.interaction", op);
    let mut features: Vec<&Matrix> = Vec::with_capacity(1 + embs.len());
    features.push(&z0);
    features.extend(embs.iter());
    let inter_out = model.interaction.forward(&features);
    tr.exit(s);

    let s = tr.enter("dlrm.mlp", op);
    let logits = model.top.forward(&inter_out);
    tr.exit(s);

    let s = tr.enter("dlrm.loss", op);
    let (loss, d_logits) = bce_with_logits(&logits, &batch.labels);
    tr.exit(s);

    let s = tr.enter("dlrm.mlp", op);
    let d_inter = model.top.backward(&d_logits);
    tr.exit(s);

    let s = tr.enter("dlrm.interaction", op);
    let feat_grads = model.interaction.backward(&features, &d_inter);
    drop(features);
    tr.exit(s);

    let mut hosted_grads = Vec::new();
    for (t, grad) in feat_grads.iter().skip(1).enumerate() {
        let field = &batch.fields[t];
        match &mut model.tables[t] {
            EmbeddingLayer::Dense(bag) => {
                let s = tr.enter("dlrm.embed_dense", op);
                bag.backward_sgd(&field.indices, &field.offsets, grad, lr);
                tr.exit(s);
            }
            EmbeddingLayer::Tt(bag, ws) => {
                let s = tr.enter("core.backward", op);
                bag.backward_sgd(grad, ws, lr);
                tr.exit(s);
            }
            EmbeddingLayer::Hosted { .. } => {
                let s = tr.enter("dlrm.embed_hosted", op);
                hosted_grads.push((t, grad.clone()));
                tr.exit(s);
            }
            _ => unreachable!("the benchmark builds no low-bit tables"),
        }
    }

    let s = tr.enter("dlrm.mlp", op);
    let _ = model.bottom.backward(&feat_grads[0]);
    model.top.step(lr);
    model.bottom.step(lr);
    tr.exit(s);
    (loss, hosted_grads)
}

fn tt_tables(model: &DlrmModel) -> impl Iterator<Item = (usize, &TtEmbeddingBag)> {
    model.tables.iter().enumerate().filter_map(|(t, l)| match l {
        EmbeddingLayer::Tt(bag, _) => Some((t, &**bag)),
        _ => None,
    })
}

// ---------------------------------------------------------------------------
// train_tt_*: one trainer thread calling `DlrmModel::train_step`
// ---------------------------------------------------------------------------

/// Shape of a `train_tt_*` workload.
#[derive(Clone, Copy, Debug)]
pub struct TtSpec {
    /// Scale of the Criteo-Kaggle-shaped schema.
    pub scale: f64,
    /// Zipf exponent of the index popularity.
    pub zipf: f64,
    pub batch: usize,
    pub indices_per_sample: usize,
    /// Remap indices through a `Reorderer::fit` bijection profiled on the
    /// batch pool.
    pub reorder: bool,
    /// Redraw the TT tables' indices uniformly: the generator's latent
    /// co-occurrence groups repeat rows even at a flat Zipf exponent, and
    /// this workload must give dedup nothing to find.
    pub uniform_tt_indices: bool,
    /// Distinct batches, trained round-robin.
    pub pool: usize,
    /// Tables with at least this many rows are TT-compressed.
    pub tt_min_rows: usize,
}

/// What `LookupPlan` building costs and removes on the workload's batches.
pub struct PlanProbe {
    pub build_us: f64,
    pub unique_ratio: f64,
    pub reuse_ratio: f64,
    pub gemm_tasks_per_step: f64,
}

/// `batched_gemm` on the exact task lists the workload's TT chains produce.
pub struct GemmProbe {
    pub gflops: f64,
    pub ns_per_task: f64,
}

pub struct TtBench {
    spec: TtSpec,
    seed: u64,
    dataset: SyntheticDataset,
    model: DlrmModel,
    pool: Vec<MiniBatch>,
    /// Seconds `Reorderer::fit` took over all TT tables (0 without reorder).
    pub reorder_fit_s: f64,
}

impl TtBench {
    fn dataset_spec(spec: &TtSpec) -> DatasetSpec {
        let mut ds = DatasetSpec::criteo_kaggle(spec.scale);
        ds.zipf_exponent = spec.zipf;
        ds.indices_per_sample = spec.indices_per_sample;
        ds
    }

    fn generate_pool(spec: &TtSpec, dataset: &SyntheticDataset, seed: u64) -> Vec<MiniBatch> {
        let mut pool = dataset.batches(0, spec.pool, spec.batch);
        if spec.uniform_tt_indices {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x666c_6174);
            for batch in &mut pool {
                for (t, &card) in dataset.spec().table_cardinalities.iter().enumerate() {
                    if card >= spec.tt_min_rows {
                        for i in &mut batch.fields[t].indices {
                            *i = rng.gen_range(0..card as u32);
                        }
                    }
                }
            }
        }
        pool
    }

    fn new_model(spec: &TtSpec, seed: u64) -> DlrmModel {
        let cfg = DlrmConfig::for_spec(&Self::dataset_spec(spec), DIM, spec.tt_min_rows, TT_RANK);
        DlrmModel::new(&cfg, &mut model_rng(seed))
    }

    /// Generates the inputs, fits the bijection, builds the model and runs
    /// one warm-up pass over the pool so workspaces are grown.
    pub fn build(spec: &TtSpec, seed: u64) -> Self {
        let ds_spec = Self::dataset_spec(spec);
        let dataset = SyntheticDataset::new(ds_spec.clone(), seed);
        let mut pool = Self::generate_pool(spec, &dataset, seed);
        let mut reorder_fit_s = 0.0;
        if spec.reorder {
            let t0 = Instant::now();
            let reorderer = Reorderer::default();
            for (t, &card) in ds_spec.table_cardinalities.iter().enumerate() {
                if card < spec.tt_min_rows {
                    continue;
                }
                let profile: Vec<&[u32]> =
                    pool.iter().map(|b| b.fields[t].indices.as_slice()).collect();
                let bijection = reorderer.fit(card, &profile);
                for b in &mut pool {
                    b.fields[t].remap(&bijection.forward);
                }
            }
            reorder_fit_s = t0.elapsed().as_secs_f64();
        }
        let mut model = Self::new_model(spec, seed);
        for b in &pool {
            model.train_step(b);
        }
        Self { spec: *spec, seed, dataset, model, pool, reorder_fit_s }
    }

    pub fn batch_size(&self) -> usize {
        self.spec.batch
    }

    /// Hash of every generated input the program will see.
    pub fn inputs_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for b in &self.pool {
            hash_batch(&mut h, b);
        }
        h.finish()
    }

    /// The top-level entry point: one `DlrmModel::train_step`.
    pub fn step(&mut self, i: usize) -> f32 {
        self.model.train_step(&self.pool[i % self.pool.len()])
    }

    /// The decomposed step on the same model, with spans.
    pub fn traced_step(&mut self, i: usize, tr: &mut Tracer) -> f32 {
        let root = tr.enter("step", i as u64);
        let loss =
            decomposed_step(&mut self.model, &self.pool[i % self.pool.len()], &[], tr, i as u64).0;
        tr.exit(root);
        loss
    }

    /// Cumulative `StageTimers` over the TT tables: (analysis, forward,
    /// backward) nanoseconds.
    pub fn stage_ns(&self) -> (u64, u64, u64) {
        let t = self.model.stage_timers();
        (t.analysis_ns, t.forward_ns, t.backward_ns)
    }

    /// Trains two fresh same-seed models for `steps` steps, one through
    /// `train_step` and one through the decomposed step: the loss bits must
    /// agree at every step.
    pub fn verify_decomposed(&self, steps: usize) -> Result<(), String> {
        let mut a = Self::new_model(&self.spec, self.seed);
        let mut b = Self::new_model(&self.spec, self.seed);
        let mut tr = Tracer::with_capacity(steps * 128);
        for i in 0..steps {
            let batch = &self.pool[i % self.pool.len()];
            let want = a.train_step(batch);
            let got = decomposed_step(&mut b, batch, &[], &mut tr, i as u64).0;
            if want.to_bits() != got.to_bits() {
                return Err(format!(
                    "decomposed step {i} lost bit-identity: train_step {want} vs decomposed {got}"
                ));
            }
        }
        Ok(())
    }

    fn probe_plans(&self, pool: &[MiniBatch]) -> PlanProbe {
        let mut plan = LookupPlan::default();
        let mut scratch = PlanScratch::default();
        let (mut ns, mut builds) = (0u128, 0u64);
        let (mut nnz, mut unique, mut tasks, mut naive) = (0usize, 0usize, 0usize, 0usize);
        // Two passes: the first grows the recycled buffers.
        for pass in 0..2 {
            for batch in pool {
                for (t, bag) in tt_tables(&self.model) {
                    let field = &batch.fields[t];
                    let dims = &bag.cores().row_dims;
                    let t0 = Instant::now();
                    if bag.options.parallel_analysis {
                        plan.par_build_into(
                            &field.indices,
                            &field.offsets,
                            dims,
                            true,
                            &mut scratch,
                        );
                    } else {
                        plan.build_into(&field.indices, &field.offsets, dims, true, &mut scratch);
                    }
                    if pass == 1 {
                        ns += t0.elapsed().as_nanos();
                        builds += 1;
                        nnz += plan.nnz;
                        unique += plan.num_rows();
                        tasks += plan.forward_tasks();
                        naive += plan.nnz * (dims.len() - 1);
                    }
                }
            }
        }
        PlanProbe {
            build_us: ns as f64 / 1e3 / builds.max(1) as f64,
            unique_ratio: unique as f64 / nnz.max(1) as f64,
            reuse_ratio: 1.0 - tasks as f64 / naive.max(1) as f64,
            gemm_tasks_per_step: tasks as f64 / pool.len().max(1) as f64,
        }
    }

    /// `LookupPlan::{par_,}build_into` on the workload's own batches.
    pub fn plan_probe(&self) -> PlanProbe {
        self.probe_plans(&self.pool)
    }

    /// Reuse ratio with the bijection ÷ without it, on the same batches
    /// (1 when the workload does not reorder).
    pub fn reorder_gain(&self) -> f64 {
        if !self.spec.reorder {
            return 1.0;
        }
        let raw = Self::generate_pool(&self.spec, &self.dataset, self.seed);
        let without = self.probe_plans(&raw).reuse_ratio;
        self.probe_plans(&self.pool).reuse_ratio / without.max(1e-12)
    }

    /// Replays the forward chain's `batched_gemm` launches — same (m, n, k),
    /// same task offsets, same arenas as `TtEmbeddingBag::forward` issues —
    /// for every TT table on every pool batch.
    pub fn gemm_probe(&self) -> GemmProbe {
        let (mut ns, mut flops, mut tasks) = (0u128, 0usize, 0usize);
        let mut gemm = GemmBatch::default();
        for batch in &self.pool {
            for (t, bag) in tt_tables(&self.model) {
                let cores = bag.cores();
                let d = cores.order();
                let field = &batch.fields[t];
                let plan = LookupPlan::build(&field.indices, &field.offsets, &cores.row_dims, true);
                let prod_n = |l: usize| cores.col_dims[..=l].iter().product::<usize>();
                let mut prev: Vec<f32> = Vec::new();
                for l in 1..d {
                    let level = &plan.levels[l];
                    let (m, k) = (prod_n(l - 1), cores.ranks[l]);
                    let n = cores.col_dims[l] * cores.ranks[l + 1];
                    let parent_width = if l == 1 { cores.slice_len(0) } else { m * k };
                    gemm.reset(m, n, k);
                    for slot in 0..level.len() {
                        let parent = level.parent[slot] as usize;
                        let a_off = if l == 1 {
                            plan.levels[0].digit[parent] as usize * parent_width
                        } else {
                            parent * parent_width
                        };
                        gemm.push(
                            a_off,
                            level.digit[slot] as usize * cores.slice_len(l),
                            slot * m * n,
                        );
                    }
                    let mut cur = vec![0.0f32; level.len() * m * n];
                    let a_arena: &[f32] = if l == 1 { &cores.cores[0] } else { &prev };
                    let t0 = Instant::now();
                    batched_gemm(&gemm, a_arena, &cores.cores[l], &mut cur);
                    ns += t0.elapsed().as_nanos();
                    flops += gemm.flops();
                    tasks += gemm.len();
                    prev = cur;
                }
            }
        }
        GemmProbe {
            gflops: flops as f64 / (ns.max(1) as f64),
            ns_per_task: ns as f64 / tasks.max(1) as f64,
        }
    }

    /// `SyntheticDataset::batch` at the workload's shape, milliseconds.
    pub fn batch_gen_ms(&self) -> f64 {
        let t0 = Instant::now();
        let n = 4;
        for i in 0..n {
            std::hint::black_box(self.dataset.batch(1_000 + i, self.spec.batch));
        }
        t0.elapsed().as_secs_f64() * 1e3 / n as f64
    }
}

// ---------------------------------------------------------------------------
// train_hosted*: `PipelineTrainer` over N shards x K replicas
// ---------------------------------------------------------------------------

/// Shape of a `train_hosted*` workload (the Fig 16 placement).
#[derive(Clone, Copy, Debug)]
pub struct HostedSpec {
    pub scale: f64,
    pub batch: usize,
    /// Tables with at least this many rows (other than the largest, which
    /// is TT on the worker) live on the parameter tier.
    pub host_min_rows: usize,
    pub prefetch_depth: usize,
    pub shards: u32,
    pub replicas: u32,
}

/// One `PipelineTrainer` run's report, as plain numbers.
pub struct ChunkOut {
    pub losses: Vec<f32>,
    pub requested: u64,
    pub wall_s: f64,
    pub server_cpu_s: f64,
    pub loader_cpu_s: f64,
    pub worker_s: f64,
    pub stale_hits: u64,
    pub cache_peak_bytes: usize,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub failovers: u64,
    pub failure: Option<String>,
}

/// What only the decomposed pipeline can see.
#[derive(Default)]
pub struct TracedChunk {
    pub losses: Vec<f32>,
    /// Mean over (batch, table) of max ÷ mean rows per shard.
    pub shard_imbalance: f64,
    /// `ReplicaGroup::apply_checked` ÷ `HostServer::apply_checked` on the
    /// same pushes (0 at K = 1).
    pub replica_append_overhead: f64,
    pub failovers: u64,
}

pub struct HostedBench {
    spec: HostedSpec,
    dataset: SyntheticDataset,
    model: Option<DlrmModel>,
    host: Vec<(usize, EmbeddingBag)>,
    lr: f32,
    next_batch: u64,
}

impl HostedBench {
    /// Builds the placement — largest table TT on the worker, every other
    /// table with `host_min_rows` rows or more hosted — and trains
    /// `warm_batches` through the workload's entry point.
    pub fn build(spec: &HostedSpec, seed: u64, warm_batches: u64) -> Self {
        let ds_spec = DatasetSpec::criteo_kaggle(spec.scale);
        let largest = ds_spec.table_cardinalities.iter().copied().max().unwrap_or(0);
        let cfg = DlrmConfig::for_spec(&ds_spec, DIM, largest, TT_RANK);
        let mut model = DlrmModel::new(&cfg, &mut model_rng(seed));
        let mut host = Vec::new();
        for (t, &card) in ds_spec.table_cardinalities.iter().enumerate() {
            if card < spec.host_min_rows || !matches!(model.tables[t], EmbeddingLayer::Dense(_)) {
                continue;
            }
            let layer =
                std::mem::replace(&mut model.tables[t], EmbeddingLayer::Hosted { dim: DIM });
            if let EmbeddingLayer::Dense(bag) = layer {
                host.push((t, bag));
            }
        }
        let dataset = SyntheticDataset::new(ds_spec, seed);
        let mut bench =
            Self { spec: *spec, dataset, model: Some(model), host, lr: cfg.lr, next_batch: 0 };
        if warm_batches > 0 {
            bench.run_chunk(warm_batches);
        }
        bench
    }

    pub fn batch_size(&self) -> usize {
        self.spec.batch
    }

    pub fn hosted_tables(&self) -> usize {
        self.host.len()
    }

    /// Hash of the first `batches` batches the loader will hand the program.
    pub fn inputs_hash(&self, batches: u64) -> u64 {
        let mut h = Fnv1a::new();
        for k in 0..batches {
            hash_batch(&mut h, &self.dataset.batch(k, self.spec.batch));
        }
        h.finish()
    }

    /// FNV-1a over the hosted tables' bytes, in table order.
    pub fn tables_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (t, bag) in &self.host {
            h.update(&(*t as u64).to_le_bytes());
            hash_f32s(&mut h, bag.weight.as_slice());
        }
        h.finish()
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig { num_shards: self.spec.shards, ..ShardConfig::default() }
    }

    /// The top-level entry point: trains the next `batches` batches through
    /// `try_train` (N = K = 1) or `try_train_replicated`, on real threads.
    pub fn run_chunk(&mut self, batches: u64) -> ChunkOut {
        let model = self.model.take().expect("the previous chunk returned the model");
        let server = HostServer::new(std::mem::take(&mut self.host), self.lr);
        let config = PipelineConfig {
            batch_size: self.spec.batch,
            first_batch: self.next_batch,
            num_batches: batches,
            prefetch_depth: self.spec.prefetch_depth,
            pipelined: true,
            overlap_analysis: true,
        };
        let report = if self.spec.shards <= 1 && self.spec.replicas <= 1 {
            PipelineTrainer::try_train(model, server, &self.dataset, &config)
        } else {
            let repl =
                ReplicationConfig { replicas: self.spec.replicas, ..ReplicationConfig::default() };
            PipelineTrainer::try_train_replicated(
                model,
                server,
                &self.dataset,
                &config,
                &self.shard_config(),
                &repl,
            )
        }
        .expect("UniqueRows serving accepts a pipelined schedule");
        self.model = Some(report.model);
        self.host = report.host_tables;
        self.next_batch += batches;
        ChunkOut {
            losses: report.losses,
            requested: batches,
            wall_s: report.wall.as_secs_f64(),
            server_cpu_s: report.server_cpu.as_secs_f64(),
            loader_cpu_s: report.loader_cpu.as_secs_f64(),
            worker_s: report.worker_compute.as_secs_f64(),
            stale_hits: report.stale_hits,
            cache_peak_bytes: report.cache_peak_bytes,
            h2d_bytes: report.server_meter.h2d_bytes,
            d2h_bytes: report.server_meter.d2h_bytes,
            failovers: report.failovers,
            failure: report.failure.map(|e| e.to_string()),
        }
    }

    /// The decomposed pipeline: the same batches, one thread, one layer
    /// call at a time — gather, cache sync, pool, train step, aggregate,
    /// cache insert, apply, advance — through the router and the replica
    /// groups when the topology has them. Trains the same bytes as
    /// [`HostedBench::run_chunk`] (the repo's byte-identity invariant).
    pub fn traced_chunk(&mut self, batches: u64, tr: &mut Tracer) -> TracedChunk {
        let mut model = self.model.take().expect("the previous chunk returned the model");
        let tables = std::mem::take(&mut self.host);
        let mut tier = if self.spec.shards <= 1 && self.spec.replicas <= 1 {
            Tier::Single(HostServer::new(tables, self.lr))
        } else {
            Tier::replicated(tables, self.lr, &self.shard_config(), self.spec.replicas)
        };
        let mut caches: HashMap<usize, EmbeddingCache> =
            model.hosted_tables().into_iter().map(|t| (t, EmbeddingCache::new())).collect();
        let mut out = TracedChunk::default();
        let mut imbalance = (0.0f64, 0u64);
        let (mut plain_ns, mut group_ns) = (0u128, 0u128);

        for k in 0..batches {
            let root = tr.enter("step", k);
            let s = tr.enter("data.batch_gen", k);
            let batch = self.dataset.batch(self.next_batch + k, self.spec.batch);
            tr.exit(s);

            let mut pf = tier.gather(batch, k, tr, &mut imbalance);

            let s = tr.enter("pipeline.cache.sync", k);
            for (t, unique, rows) in &mut pf.tables {
                caches.get_mut(t).expect("one cache per hosted table").sync(
                    unique,
                    rows,
                    pf.applied_through,
                );
            }
            tr.exit(s);

            let s = tr.enter("pipeline.trainer.pool", k);
            let hosted: Vec<(usize, Matrix)> = pf
                .tables
                .iter()
                .map(|(t, unique, rows)| {
                    let f = &pf.batch.fields[*t];
                    (*t, pool_prefetched(&f.indices, &f.offsets, unique, rows))
                })
                .collect();
            tr.exit(s);

            let s = tr.enter("dlrm.train_step", k);
            let (loss, grads) = decomposed_step(&mut model, &pf.batch, &hosted, tr, k);
            tr.exit(s);
            out.losses.push(loss);

            let s = tr.enter("pipeline.trainer.aggregate", k);
            let mut pushes = Vec::with_capacity(grads.len());
            let mut updated_rows = Vec::with_capacity(grads.len());
            for (t, d_emb) in &grads {
                let f = &pf.batch.fields[*t];
                let (_, unique, rows) = pf
                    .tables
                    .iter()
                    .find(|(id, _, _)| id == t)
                    .expect("hosted gradients name prefetched tables");
                let grad = aggregate_to_unique(&f.indices, &f.offsets, unique, d_emb);
                let mut updated = rows.clone();
                for slot in 0..unique.len() {
                    let g = &grad.values[slot * grad.dim..(slot + 1) * grad.dim];
                    for (w, gv) in updated.row_mut(slot).iter_mut().zip(g) {
                        *w -= self.lr * gv;
                    }
                }
                updated_rows.push((*t, updated));
                pushes.push((*t, grad));
            }
            tr.exit(s);

            let s = tr.enter("pipeline.cache.insert", k);
            for (t, updated) in &updated_rows {
                let (_, unique, _) =
                    pf.tables.iter().find(|(id, _, _)| id == t).expect("prefetched above");
                caches.get_mut(t).expect("one cache per hosted table").insert(unique, updated, k);
            }
            tr.exit(s);

            let push = GradientPush { batch_seq: k, tables: pushes, pooled: Vec::new() };
            let applied = tier.apply(&push, tr, &mut plain_ns, &mut group_ns);

            let s = tr.enter("pipeline.cache.advance", k);
            for c in caches.values_mut() {
                c.advance(applied);
            }
            tr.exit(s);
            tr.exit(root);
        }

        out.shard_imbalance = if imbalance.1 == 0 { 0.0 } else { imbalance.0 / imbalance.1 as f64 };
        out.replica_append_overhead =
            if plain_ns == 0 { 0.0 } else { group_ns as f64 / plain_ns as f64 };
        let (host, failovers) = tier.into_tables();
        out.failovers = failovers;
        self.host = host;
        self.model = Some(model);
        self.next_batch += batches;
        out
    }
}

/// The parameter tier of the decomposed pipeline.
enum Tier {
    Single(HostServer),
    Replicated {
        layout: ShardLayout,
        router: ShardRouter,
        groups: Vec<ReplicaGroup>,
        /// Unreplicated twins of the shards, fed the same sub-pushes outside
        /// any span: the denominator of `pipeline.replica.append_overhead`.
        plain: Vec<HostServer>,
        scratch: ShardScatter,
    },
}

impl Tier {
    fn replicated(
        tables: Vec<(usize, EmbeddingBag)>,
        lr: f32,
        cfg: &ShardConfig,
        replicas: u32,
    ) -> Self {
        let layout = ShardLayout::place_for(cfg, &tables);
        let subs = split_tables(&tables, &layout).expect("the layout was placed for these tables");
        let n = subs.len() as u32;
        let log_capacity = ReplicationConfig::default().log_capacity;
        let plain = subs.iter().map(|sub| HostServer::new(sub.clone(), lr)).collect();
        let groups = subs
            .into_iter()
            .enumerate()
            .map(|(s, sub)| {
                ReplicaGroup::new(HostServer::new(sub, lr), replicas, s as u32, n, log_capacity)
            })
            .collect();
        Tier::Replicated {
            router: ShardRouter::new(layout.clone()),
            layout,
            groups,
            plain,
            scratch: ShardScatter::new(),
        }
    }

    fn gather(
        &mut self,
        batch: MiniBatch,
        k: u64,
        tr: &mut Tracer,
        imbalance: &mut (f64, u64),
    ) -> PrefetchedBatch {
        match self {
            Tier::Single(server) => {
                let s = tr.enter("pipeline.server.gather", k);
                let pf = server.gather(batch, k);
                tr.exit(s);
                pf
            }
            Tier::Replicated { layout, groups, scratch, .. } => {
                // `route_serve`'s fan-out, one call at a time: scatter the
                // unique rows, serve each shard's share from its primary,
                // stitch, stamp with the minimum watermark.
                let root = tr.enter("pipeline.router.gather", k);
                let applied_through = groups.iter().map(ReplicaGroup::applied).min().unwrap_or(0);
                let mut tables = Vec::with_capacity(layout.tables().len());
                for own in layout.tables() {
                    let t = own.table_id;
                    let mut unique = batch.fields[t].indices.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    scratch.reset(groups.len());
                    layout.scatter_into(t, &unique, scratch).expect("generated rows are in range");
                    let per_shard: Vec<usize> = scratch.locals.iter().map(Vec::len).collect();
                    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
                    let mean = unique.len() as f64 / groups.len() as f64;
                    if mean > 0.0 {
                        imbalance.0 += max / mean;
                        imbalance.1 += 1;
                    }
                    let mut rows = Matrix::zeros(unique.len(), DIM);
                    for (s, group) in groups.iter_mut().enumerate() {
                        let span = tr.enter("pipeline.server.gather", k);
                        let primary = group.primary_mut().expect("no kill drills are scheduled");
                        let bag =
                            &primary.tables.iter().find(|(id, _)| *id == t).expect("uniform").1;
                        let served = bag.gather_rows(&scratch.locals[s]);
                        tr.exit(span);
                        for (j, &slot) in scratch.slots[s].iter().enumerate() {
                            rows.row_mut(slot as usize).copy_from_slice(served.row(j));
                        }
                    }
                    tables.push((t, unique, rows));
                }
                tr.exit(root);
                PrefetchedBatch { batch_seq: k, applied_through, batch, tables, pooled: Vec::new() }
            }
        }
    }

    /// Applies one push; returns the tier's applied watermark.
    fn apply(
        &mut self,
        push: &GradientPush,
        tr: &mut Tracer,
        plain_ns: &mut u128,
        group_ns: &mut u128,
    ) -> u64 {
        let k = push.batch_seq;
        match self {
            Tier::Single(server) => {
                let s = tr.enter("pipeline.server.apply", k);
                server.apply_checked(push).expect("pushes arrive in order");
                tr.exit(s);
                server.applied
            }
            Tier::Replicated { router, groups, plain, .. } => {
                let s = tr.enter("pipeline.router.scatter_push", k);
                let subs = router.scatter_push(push).expect("generated rows are in range");
                tr.exit(s);
                let s = tr.enter("pipeline.replica.apply", k);
                let t0 = Instant::now();
                for (group, sub) in groups.iter_mut().zip(&subs) {
                    group.apply_checked(sub).expect("pushes arrive in order");
                }
                *group_ns += t0.elapsed().as_nanos();
                tr.exit(s);
                let s = tr.enter("bench.plain_twin", k);
                let t0 = Instant::now();
                for (server, sub) in plain.iter_mut().zip(&subs) {
                    server.apply_checked(sub).expect("pushes arrive in order");
                }
                *plain_ns += t0.elapsed().as_nanos();
                tr.exit(s);
                groups.iter().map(ReplicaGroup::applied).min().unwrap_or(0)
            }
        }
    }

    fn into_tables(self) -> (Vec<(usize, EmbeddingBag)>, u64) {
        match self {
            Tier::Single(server) => (server.tables, 0),
            Tier::Replicated { layout, groups, .. } => {
                let failovers = groups.iter().map(ReplicaGroup::failovers).sum();
                let shards: Vec<_> = groups
                    .into_iter()
                    .map(|g| g.into_primary().expect("no kill drills are scheduled").tables)
                    .collect();
                (merge_tables(&shards, &layout).expect("split under this layout"), failovers)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve_*: open-loop Poisson arrivals into `el_serve::serve`
// ---------------------------------------------------------------------------

/// Shape of a `serve_*` workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub rps: f64,
    pub rows: usize,
    pub indices_per_request: usize,
    pub zipf: f64,
    pub tenants: usize,
    /// Requests sent back to back before the schedule starts, so the
    /// workers' caches and buffers are grown when timing begins.
    pub warm_requests: usize,
    /// Responses compared against a direct `TtEmbeddingBag::forward`.
    pub checked_responses: usize,
}

/// What one open-loop run observed.
#[derive(Default)]
pub struct ServeOut {
    /// Latency from the intended send time (ns), indexed by request in
    /// arrival order; `u64::MAX` where no answer came.
    pub latency_ns: Vec<u64>,
    /// Intended send time of each request, ns from the first.
    pub arrival_ns: Vec<u64>,
    /// Batches the timed requests were served in (responses of one batch
    /// share a completion stamp).
    pub timed_batches: u64,
    /// How late the generator sent each request (ns).
    pub late_ns: Vec<u64>,
    /// Wall nanoseconds spent inside `ServeHandle::submit`, per request
    /// (recorded only when asked for).
    pub submit_ns: Vec<u64>,
    pub offered: u64,
    pub shed: u64,
    pub errored: u64,
    pub unanswered: u64,
    pub answered_twice: u64,
    /// Sampled responses that differ from a direct table forward.
    pub wrong_rows: u64,
    /// Scheduled duration of the timed requests, seconds.
    pub schedule_s: f64,
    // `ServeReport`, over warm-up and timed requests together.
    pub completed: u64,
    pub batches: u64,
    pub dropped: u64,
    pub lookups: u64,
    pub unique_rows: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl ServeOut {
    fn absorb_report(&mut self, report: &el_serve::ServeReport) {
        self.completed = report.completed;
        self.batches = report.batches;
        self.dropped = report.dropped;
        self.lookups = report.lookups;
        self.unique_rows = report.unique_rows;
        self.cache_hits = report.cache_hits;
        self.cache_misses = report.cache_misses;
        self.cache_evictions = report.cache_evictions;
    }
}

/// What the decomposed serving path measured.
pub struct ServeReplay {
    pub process_us_per_batch: f64,
    pub lookup_us_per_batch: f64,
    pub lookup_us_per_request: f64,
    pub hit_ratio: f64,
    /// Seconds the replay took with spans, and without.
    pub traced_s: f64,
    pub untraced_s: f64,
}

pub struct ServeBench {
    spec: ServeSpec,
    table: TtEmbeddingBag,
    /// Warm-up requests first, then the timed schedule.
    requests: Vec<GenRequest>,
}

struct Driver<'a, 'h> {
    handle: &'a el_serve::ServeHandle<'h>,
    requests: &'a [GenRequest],
    arrivals: &'a [u64],
    base_ns: u64,
    free: Vec<ServeRequest>,
    out: &'a mut ServeOut,
    seen: Vec<bool>,
    sampled: HashMap<u64, Vec<f32>>,
    sample_every: usize,
    time_submit: bool,
    admitted: u64,
    received: u64,
    last_done_ns: u64,
}

impl Driver<'_, '_> {
    fn absorb(&mut self, resp: el_serve::ServeResponse) {
        let id = resp.req.id as usize;
        if std::mem::replace(&mut self.seen[id], true) {
            self.out.answered_twice += 1;
        } else {
            self.out.latency_ns[id] =
                openloop::latency_ns(resp.done_ns, self.base_ns, self.arrivals[id]);
            if resp.done_ns != self.last_done_ns {
                self.last_done_ns = resp.done_ns;
                self.out.timed_batches += 1;
            }
            if id.is_multiple_of(self.sample_every) {
                self.sampled.insert(resp.req.id, resp.req.out.clone());
            }
        }
        self.received += 1;
        self.free.push(resp.req);
    }

    fn drain(&mut self) {
        while let Some(resp) = self.handle.try_recv_response() {
            self.absorb(resp);
        }
    }
}

impl Target for Driver<'_, '_> {
    fn now_ns(&mut self) -> u64 {
        self.handle.now_ns()
    }

    fn submit(&mut self, i: usize) {
        let mut req = self.free.pop().unwrap_or_default();
        req.tenant = self.requests[i].tenant;
        req.id = i as u64;
        req.indices.clear();
        req.indices.extend_from_slice(&self.requests[i].indices);
        let t0 = self.time_submit.then(Instant::now);
        let outcome = self.handle.submit(req);
        if let Some(t0) = t0 {
            self.out.submit_ns.push(t0.elapsed().as_nanos() as u64);
        }
        match outcome {
            Ok(()) => self.admitted += 1,
            Err(ServeError::Overloaded { request }) => {
                self.out.shed += 1;
                self.free.push(request);
            }
            Err(_) => self.out.errored += 1,
        }
    }

    fn idle(&mut self, until_ns: u64) {
        self.drain();
        let now = self.handle.now_ns();
        // Long gap: sleep most of it and leave slack for wake-up jitter;
        // short gap: offer the core to the tier's threads and look again.
        // (Sleeping through short gaps was tried: the shortest sleep this
        // box gives runs ~250 us late at p99, worse than the contention a
        // yielding generator causes.)
        if until_ns > now + 300_000 {
            std::thread::sleep(Duration::from_nanos(until_ns - now - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

impl ServeBench {
    /// Builds the frozen table and draws `timed` scheduled requests (plus
    /// the warm-up prefix) from the seed.
    pub fn build(spec: &ServeSpec, seed: u64, timed: usize) -> Self {
        let table =
            TtEmbeddingBag::new(&TtConfig::new(spec.rows, DIM, TT_RANK), &mut model_rng(seed));
        let mut gen = OpenLoopGen::new(OpenLoopConfig {
            offered_rps: spec.rps,
            num_rows: spec.rows,
            indices_per_request: spec.indices_per_request,
            zipf_exponent: spec.zipf,
            num_tenants: spec.tenants,
            seed,
        });
        let requests = gen.trace(spec.warm_requests + timed);
        Self { spec: *spec, table, requests }
    }

    pub fn inputs_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.requests {
            h.update(&r.arrive_ns.to_le_bytes());
            h.update(&r.tenant.to_le_bytes());
            hash_u32s(&mut h, &r.indices);
        }
        h.finish()
    }

    /// Sends the warm-up prefix back to back (at most 128 in flight, well
    /// inside every tenant's budget) and waits for every answer.
    fn warm(&self, h: &el_serve::ServeHandle<'_>) {
        let mut outstanding = 0u64;
        for (i, g) in self.requests[..self.spec.warm_requests].iter().enumerate() {
            let req = ServeRequest {
                tenant: g.tenant,
                id: i as u64,
                indices: g.indices.clone(),
                ..ServeRequest::default()
            };
            if outstanding >= 128 && h.recv_response(Duration::from_secs(10)).is_some() {
                outstanding -= 1;
            }
            if h.submit(req).is_ok() {
                outstanding += 1;
            }
        }
        while outstanding > 0 && h.recv_response(Duration::from_secs(10)).is_some() {
            outstanding -= 1;
        }
    }

    fn tenants(&self) -> Vec<TenantConfig> {
        vec![TenantConfig::default(); self.spec.tenants]
    }

    /// Part of set-up: one `serve` call that only warms, so thread start-up
    /// and first-touch allocation are paid before the timed call.
    /// Returns the tier's counters for the warm-up alone, so a timed run's
    /// cumulative counters can be read net of it.
    pub fn warm_only(&self) -> ServeOut {
        let ((), report) =
            serve(&self.table, &ServeConfig::default(), &self.tenants(), |h| self.warm(h));
        let mut out = ServeOut::default();
        out.absorb_report(&report);
        out
    }

    /// The top-level entry point: `el_serve::serve` with the default
    /// `ServeConfig`, driven open loop by one generator thread over the
    /// first `timed` scheduled requests.
    pub fn run_open_loop(&self, timed: usize, time_submit: bool) -> ServeOut {
        let warm = self.spec.warm_requests;
        let timed_reqs = &self.requests[warm..warm + timed];
        let t_first = timed_reqs.first().map_or(0, |r| r.arrive_ns);
        let arrivals: Vec<u64> = timed_reqs.iter().map(|r| r.arrive_ns - t_first).collect();
        let mut out = ServeOut {
            latency_ns: vec![u64::MAX; timed],
            arrival_ns: arrivals.clone(),
            submit_ns: Vec::with_capacity(if time_submit { timed } else { 0 }),
            offered: timed as u64,
            schedule_s: arrivals.last().copied().unwrap_or(0) as f64 / 1e9,
            ..ServeOut::default()
        };
        let sample_every = (timed / self.spec.checked_responses.max(1)).max(1);

        let (sampled, report) = serve(&self.table, &ServeConfig::default(), &self.tenants(), |h| {
            self.warm(h);
            let mut driver = Driver {
                handle: h,
                requests: timed_reqs,
                arrivals: &arrivals,
                base_ns: h.now_ns() + 1_000_000,
                free: Vec::new(),
                out: &mut out,
                seen: vec![false; timed],
                sampled: HashMap::new(),
                sample_every,
                time_submit,
                admitted: 0,
                received: 0,
                last_done_ns: u64::MAX,
            };
            let base = driver.base_ns;
            let late = openloop::run(&arrivals, base, &mut driver);
            // On a graceful run every admitted request is answered; the
            // deadline only keeps a hung tier from hanging the benchmark.
            while driver.received < driver.admitted {
                match h.recv_response(Duration::from_secs(10)) {
                    Some(resp) => driver.absorb(resp),
                    None => break,
                }
            }
            driver.out.unanswered = driver.admitted - driver.received;
            driver.out.late_ns = late;
            driver.sampled
        });

        let mut ws = TtWorkspace::new();
        for (id, got) in &sampled {
            let idx = &timed_reqs[*id as usize].indices;
            let want = self.table.forward(idx, &[0, idx.len() as u32], &mut ws);
            let close = got.len() == want.cols()
                && got.iter().zip(want.as_slice()).all(|(a, b)| (a - b).abs() <= 1e-5);
            if !close {
                out.wrong_rows += 1;
            }
        }
        out.absorb_report(&report);
        out
    }

    /// One pass of `reqs` in groups of `group` through
    /// `Coalescer::process_into` on a fresh session warmed by `warm_reqs`:
    /// (seconds, cache hit ratio over the timed part).
    fn coalesce_pass(
        &self,
        warm_reqs: &mut [ServeRequest],
        reqs: &mut [ServeRequest],
        group: usize,
        mut tr: Option<&mut Tracer>,
    ) -> (f64, f64) {
        let mut session =
            TtInferenceSession::new(&self.table, ServeConfig::default().cache_capacity);
        let mut co = Coalescer::new();
        for chunk in warm_reqs.chunks_mut(group) {
            co.process_into(&mut session, chunk);
        }
        let (h0, m0) = (session.hits(), session.misses());
        let t0 = Instant::now();
        for (b, chunk) in reqs.chunks_mut(group).enumerate() {
            let open = tr.as_deref_mut().map(|tr| {
                let root = tr.enter("batch", b as u64);
                (root, tr.enter("serve.coalescer.process", b as u64))
            });
            co.process_into(&mut session, chunk);
            if let (Some(tr), Some((root, s))) = (tr.as_deref_mut(), open) {
                tr.exit(s);
                tr.exit(root);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let (h, m) = (session.hits() - h0, session.misses() - m0);
        (secs, h as f64 / (h + m).max(1) as f64)
    }

    /// The decomposed serving path: the first `timed` scheduled requests in
    /// groups of `group` through `Coalescer::process_into`, then the same
    /// CSR batches straight through `TtInferenceSession::lookup_into`, each
    /// on a session warmed by the warm-up prefix. A third pass without
    /// spans gives the tracing overhead.
    pub fn replay(&self, timed: usize, group: usize, tr: &mut Tracer) -> ServeReplay {
        let cfg = ServeConfig::default();
        let warm = self.spec.warm_requests;
        let to_req = |(i, g): (usize, &GenRequest)| ServeRequest {
            tenant: g.tenant,
            id: i as u64,
            indices: g.indices.clone(),
            ..ServeRequest::default()
        };
        let mut warm_reqs: Vec<ServeRequest> =
            self.requests[..warm].iter().enumerate().map(to_req).collect();
        let mut reqs: Vec<ServeRequest> =
            self.requests[warm..warm + timed].iter().enumerate().map(to_req).collect();
        let group = group.max(1);

        let (traced_s, hit_ratio) = self.coalesce_pass(&mut warm_reqs, &mut reqs, group, Some(tr));
        let (untraced_s, _) = self.coalesce_pass(&mut warm_reqs, &mut reqs, group, None);

        // The lookups alone: the CSR the coalescer would assemble, handed
        // to the session directly.
        let mut session = TtInferenceSession::new(&self.table, cfg.cache_capacity);
        let mut flat = vec![0.0f32; group * DIM];
        let mut indices: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let assemble = |chunk: &[ServeRequest], indices: &mut Vec<u32>, offsets: &mut Vec<u32>| {
            indices.clear();
            offsets.clear();
            offsets.push(0);
            for r in chunk {
                indices.extend_from_slice(&r.indices);
                offsets.push(indices.len() as u32);
            }
        };
        for chunk in warm_reqs.chunks(group) {
            assemble(chunk, &mut indices, &mut offsets);
            session.lookup_into(&indices, &offsets, &mut flat[..chunk.len() * DIM]);
        }
        let mut lookup_ns = 0u128;
        for (b, chunk) in reqs.chunks(group).enumerate() {
            assemble(chunk, &mut indices, &mut offsets);
            let root = tr.enter("lookup_batch", b as u64);
            let s = tr.enter("core.inference.lookup", b as u64);
            let t0 = Instant::now();
            session.lookup_into(&indices, &offsets, &mut flat[..chunk.len() * DIM]);
            lookup_ns += t0.elapsed().as_nanos();
            tr.exit(s);
            tr.exit(root);
        }

        let batches = timed.div_ceil(group).max(1) as f64;
        ServeReplay {
            process_us_per_batch: traced_s * 1e6 / batches,
            lookup_us_per_batch: lookup_ns as f64 / 1e3 / batches,
            lookup_us_per_request: lookup_ns as f64 / 1e3 / timed.max(1) as f64,
            hit_ratio,
            traced_s,
            untraced_s,
        }
    }
}
