//! Single very-large embedding table training (paper Figure 13).
//!
//! The paper constructs one 40M-row, dim-128 table (~19 GB — beyond a
//! single 16 GB GPU) and compares training throughput across worker counts
//! for three placements:
//!
//! * **EL-Rec** — Eff-TT compression makes the table fit on *every*
//!   worker; data-parallel training's only communication is the (tiny)
//!   all-reduce of core gradients;
//! * **HugeCTR-style** — row-wise model-parallel shards: every batch
//!   requires an all-to-all to fetch embeddings from their owners in the
//!   forward phase and to return gradients in the backward phase;
//! * **TorchRec-style** — column-wise shards: each worker computes its
//!   column slice for the whole batch, then an all-gather assembles full
//!   embeddings (and the reverse scatters gradients).
//!
//! Kernels run for real on a proportionally scaled table (this machine
//! cannot hold 19 GB); per-batch compute cost of an embedding lookup is
//! driven by batch size, not table rows, so the scaled measurement
//! transfers. Communication is metered at *full* size — it depends only on
//! batch size, dim and worker count.

use crate::device::{ring_allreduce_bytes, DeviceSpec, DeviceWork};
use el_core::{TtConfig, TtEmbeddingBag, TtWorkspace};
use el_dlrm::embedding_bag::EmbeddingBag;
use el_pipeline::CommMeter;
use rand::SeedableRng;
use std::time::Instant;

/// Placement strategy for the large table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardingStrategy {
    /// Replicated Eff-TT table, data parallel (EL-Rec).
    ElRecTt,
    /// Row-wise model-parallel shards (HugeCTR).
    RowSharded,
    /// Column-wise model-parallel shards (TorchRec).
    ColumnSharded,
}

impl ShardingStrategy {
    /// Display name for bench output.
    pub fn name(&self) -> &'static str {
        match self {
            ShardingStrategy::ElRecTt => "EL-Rec (TT, data parallel)",
            ShardingStrategy::RowSharded => "HugeCTR (row sharding)",
            ShardingStrategy::ColumnSharded => "TorchRec (column sharding)",
        }
    }
}

/// Parameters of the Figure 13 experiment.
#[derive(Clone, Copy, Debug)]
pub struct LargeTableParams {
    /// Logical table rows (the paper: 40M).
    pub rows: usize,
    /// Rows actually materialized for dense measurements (memory cap).
    pub measured_rows: usize,
    /// Embedding dimension (the paper: 128).
    pub dim: usize,
    /// TT rank for the EL-Rec variant.
    pub tt_rank: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// Lookups per sample.
    pub lookups_per_sample: usize,
    /// Training batches to measure.
    pub num_batches: u64,
    /// Number of workers (GPUs).
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LargeTableParams {
    fn default() -> Self {
        Self {
            rows: 40_000_000,
            measured_rows: 1_000_000,
            dim: 128,
            tt_rank: 32,
            batch_size: 1024,
            lookups_per_sample: 1,
            num_batches: 8,
            workers: 4,
            seed: 3,
        }
    }
}

/// Throughput result for one strategy.
#[derive(Clone, Debug)]
pub struct LargeTableResult {
    /// Strategy display name.
    pub name: String,
    /// Simulated samples/second at the configured worker count.
    pub samples_per_sec: f64,
    /// Metered communication per batch.
    pub meter: CommMeter,
    /// Per-worker device bytes the placement needs.
    pub device_bytes_per_worker: usize,
}

fn zipf_batch(params: &LargeTableParams, rows: usize, k: u64) -> Vec<u32> {
    use rand_distr_like::sample_zipf;
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed.wrapping_add(k));
    (0..params.batch_size * params.lookups_per_sample)
        .map(|_| sample_zipf(rows as u64, 1.05, &mut rng) as u32)
        .collect()
}

/// Inverse-CDF Zipf sampler (kept local: el-data's generators carry extra
/// structure this microbench does not need).
mod rand_distr_like {
    use rand::Rng;

    pub fn sample_zipf(n: u64, s: f64, rng: &mut impl Rng) -> u64 {
        // rejection-free approximation: u^( -1/(s-1) ) style tail; for the
        // microbench only the skew matters, not exact Zipf constants.
        let u: f64 = rng.gen_range(0.0..1.0);
        let x = ((n as f64).powf(1.0 - s) * u + (1.0 - u)).powf(1.0 / (1.0 - s));
        (x as u64).clamp(1, n) - 1
    }
}

/// Measures/simulates one strategy's training throughput.
pub fn large_table_throughput(
    strategy: ShardingStrategy,
    params: &LargeTableParams,
    device: &DeviceSpec,
) -> LargeTableResult {
    match strategy {
        ShardingStrategy::ElRecTt => elrec_tt(params, device),
        ShardingStrategy::RowSharded => dense_sharded(params, device, false),
        ShardingStrategy::ColumnSharded => dense_sharded(params, device, true),
    }
}

fn elrec_tt(params: &LargeTableParams, device: &DeviceSpec) -> LargeTableResult {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    // The TT table is built at FULL size — compression is the point.
    let cfg = TtConfig::new(params.rows, params.dim, params.tt_rank);
    let mut table = TtEmbeddingBag::new(&cfg, &mut rng);
    let mut ws = TtWorkspace::new();
    let offsets: Vec<u32> =
        (0..=params.batch_size as u32).map(|s| s * params.lookups_per_sample as u32).collect();

    // TIMING: calibrates the simulated per-step TT cost; this is the
    // measurement the whole projection rests on.
    let start = Instant::now();
    for k in 0..params.num_batches {
        let indices = zipf_batch(params, params.rows, k);
        let out = table.forward(&indices, &offsets, &mut ws);
        table.backward_sgd(&out, &mut ws, 0.01);
    }
    let c_tt = start.elapsed().div_f64(params.num_batches as f64);

    // Data parallel: every device trains its own batch concurrently. The
    // only communication is the ring all-reduce of core gradients, which
    // NCCL routes over NVLink and overlaps with the backward pass
    // (gradient bucketing), so the visible step cost is the max of the two.
    let mut meter = CommMeter::new();
    let ring = ring_allreduce_bytes(table.param_count(), params.workers);
    meter.p2p((ring * params.num_batches) as usize);
    let compute = device.device_secs(&DeviceWork { tt: c_tt, ..DeviceWork::default() });
    let comm = ring as f64 / device.p2p_bps;
    let step_time = compute.max(comm);
    let samples_per_step = (params.batch_size * params.workers) as f64;
    LargeTableResult {
        name: ShardingStrategy::ElRecTt.name().into(),
        samples_per_sec: samples_per_step / step_time,
        meter,
        device_bytes_per_worker: table.footprint_bytes(),
    }
}

fn dense_sharded(
    params: &LargeTableParams,
    device: &DeviceSpec,
    column_wise: bool,
) -> LargeTableResult {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let w = params.workers as f64;
    // Measure dense lookup/update cost on a scaled replica; per-batch cost
    // is gather/scatter over `batch * lookups` rows regardless of table
    // size. Column sharding stores a dim/W slice of every row.
    let dim = if column_wise { (params.dim / params.workers).max(1) } else { params.dim };
    let mut table = EmbeddingBag::new(params.measured_rows, dim, 0.05, &mut rng);
    let offsets: Vec<u32> =
        (0..=params.batch_size as u32).map(|s| s * params.lookups_per_sample as u32).collect();

    // TIMING: calibrates the simulated dense gather/scatter cost.
    let start = Instant::now();
    for k in 0..params.num_batches {
        let indices = zipf_batch(params, params.measured_rows, k);
        let out = table.forward(&indices, &offsets);
        table.backward_sgd(&indices, &offsets, &out, 0.01);
    }
    let c_batch = start.elapsed().div_f64(params.num_batches as f64);

    // Global batch scales with workers (the standard multi-GPU convention).
    // Row sharding: each device owns 1/W of the rows and in expectation
    // gathers (batch*W)/W = batch rows per step -> per-device compute is
    // one measured batch. Column sharding: each device computes its dim/W
    // slice for ALL batch*W samples -> W measured (narrow) batches.
    let gather = if column_wise { c_batch.mul_f64(w) } else { c_batch };
    let per_device_compute = device.device_secs(&DeviceWork { gather, ..DeviceWork::default() });

    // All-to-all embeddings forward + gradients backward: per step the
    // fabric carries 2 * batchW * dim * 4 * (W-1)/W bytes, spread over W
    // links. Arbitrary-peer all-to-all crosses the PCIe switch on the
    // p3.8xlarge topology (NVLink is pairwise only), and it sits on the
    // critical path — the MLP cannot start before the exchange.
    let global_batch = params.batch_size * params.workers * params.lookups_per_sample;
    let a2a_total = 2.0 * (global_batch * params.dim * 4) as f64 * (w - 1.0) / w;
    let per_device_comm =
        a2a_total / w / device.pcie_bps + device.kernel_launch_s * 2.0 * (params.workers as f64);
    let mut meter = CommMeter::new();
    meter.p2p((a2a_total * params.num_batches as f64) as usize);
    meter.launches(params.num_batches as usize * params.workers * 2);

    let step_time = per_device_compute + per_device_comm;
    let samples_per_step = (params.batch_size * params.workers) as f64;
    let name = if column_wise {
        ShardingStrategy::ColumnSharded.name()
    } else {
        ShardingStrategy::RowSharded.name()
    };
    LargeTableResult {
        name: name.into(),
        samples_per_sec: samples_per_step / step_time,
        meter,
        device_bytes_per_worker: params.rows * params.dim * 4 / params.workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> LargeTableParams {
        LargeTableParams {
            rows: 100_000,
            measured_rows: 100_000,
            dim: 32,
            tt_rank: 8,
            batch_size: 256,
            lookups_per_sample: 1,
            num_batches: 3,
            workers: 4,
            seed: 1,
        }
    }

    #[test]
    fn all_strategies_produce_throughput() {
        let p = small_params();
        let dev = DeviceSpec::v100();
        for s in [
            ShardingStrategy::ElRecTt,
            ShardingStrategy::RowSharded,
            ShardingStrategy::ColumnSharded,
        ] {
            let r = large_table_throughput(s, &p, &dev);
            assert!(r.samples_per_sec > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn tt_fits_where_dense_does_not() {
        let p = LargeTableParams::default();
        let dev = DeviceSpec::v100();
        let elrec = large_table_throughput(ShardingStrategy::ElRecTt, &p, &dev);
        // full dense table: 40M x 128 x 4B = ~20 GB > 16 GB HBM
        let dense_bytes = p.rows * p.dim * 4;
        assert!(!dev.fits(dense_bytes));
        assert!(dev.fits(elrec.device_bytes_per_worker), "TT must fit a single device");
    }

    #[test]
    fn model_parallel_strategies_pay_p2p() {
        let p = small_params();
        let dev = DeviceSpec::v100();
        let row = large_table_throughput(ShardingStrategy::RowSharded, &p, &dev);
        let col = large_table_throughput(ShardingStrategy::ColumnSharded, &p, &dev);
        let tt = large_table_throughput(ShardingStrategy::ElRecTt, &p, &dev);
        assert!(row.meter.p2p_bytes > 0);
        assert!(col.meter.p2p_bytes > 0);
        // the TT all-reduce is tiny next to per-batch embedding exchange
        // amortized over the same batches
        assert!(tt.meter.p2p_bytes < row.meter.p2p_bytes * 100);
    }

    #[test]
    fn zipf_batches_are_skewed_and_in_range() {
        let p = small_params();
        let batch = zipf_batch(&p, 1000, 0);
        assert!(batch.iter().all(|&i| i < 1000));
        let low = batch.iter().filter(|&&i| i < 100).count();
        assert!(
            low * 2 > batch.len(),
            "zipf sample should concentrate on small ranks: {low}/{}",
            batch.len()
        );
    }
}
