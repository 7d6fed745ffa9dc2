//! Figure 13 — one very large embedding table (40M x 128 in the paper).
//!
//! Compares EL-Rec's replicated TT table against HugeCTR-style row
//! sharding and TorchRec-style column sharding at 2 and 4 workers (the
//! dense table does not fit one device, so model-parallel baselines need
//! at least 2).

use el_bench::{bench_batches, bench_scale, fmt_bytes, print_table, section};
use el_frameworks::large_table::{large_table_throughput, LargeTableParams, ShardingStrategy};
use el_frameworks::DeviceSpec;

fn main() {
    let scale = bench_scale(0.05);
    let device = DeviceSpec::v100();
    let base = LargeTableParams {
        rows: 40_000_000,
        measured_rows: ((40_000_000f64 * scale) as usize).max(10_000),
        dim: 128,
        tt_rank: 32,
        batch_size: 2048,
        lookups_per_sample: 1,
        num_batches: bench_batches(4),
        workers: 4,
        seed: 5,
    };

    section("Figure 13: 40M x 128 single-table training throughput");
    println!(
        "(dense kernels measured on a {}-row replica; comm metered at full size)",
        base.measured_rows
    );
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let params = LargeTableParams { workers, ..base };
        for strategy in [
            ShardingStrategy::ElRecTt,
            ShardingStrategy::RowSharded,
            ShardingStrategy::ColumnSharded,
        ] {
            // dense shards need the table to fit across workers
            let dense_fits = device.fits(params.rows * params.dim * 4 / workers);
            if strategy != ShardingStrategy::ElRecTt && !dense_fits {
                rows.push(vec![
                    workers.to_string(),
                    strategy.name().into(),
                    "OOM (does not fit)".into(),
                    fmt_bytes(params.rows * params.dim * 4 / workers),
                ]);
                continue;
            }
            let r = large_table_throughput(strategy, &params, &device);
            rows.push(vec![
                workers.to_string(),
                r.name,
                format!("{:.0}", r.samples_per_sec),
                fmt_bytes(r.device_bytes_per_worker),
            ]);
        }
    }
    print_table(&["workers", "strategy", "samples/s (simulated)", "bytes/worker"], &rows);
    println!(
        "paper: EL-Rec outperforms TorchRec by ~1.35x and HugeCTR by ~1.07x;\n\
         only EL-Rec trains the table on a single 16 GB GPU."
    );
}
