//! Table I — framework comparison, regenerated with measurements.
//!
//! The paper's Table I is qualitative (host memory? compression? CPU-GPU
//! latency? compression overhead?). This binary reproduces it and backs
//! each qualitative cell with a measured quantity from a small run:
//! bus bytes per batch (comm latency proxy) and TT compute overhead versus
//! the dense lookup (compression overhead proxy).

use el_bench::{bench_scale, fmt_bytes, print_table, section};
use el_data::{DatasetSpec, SyntheticDataset};
use el_frameworks::{run_framework, FrameworkKind, RunParams};

fn main() {
    let scale = bench_scale(0.003);
    let ds = SyntheticDataset::new(DatasetSpec::criteo_kaggle(scale), 31);
    let params = RunParams {
        batch_size: 1024,
        num_batches: 6,
        dim: 32,
        large_threshold: 2_000,
        tt_rank: 16,
        profile_batches: 4,
        ..RunParams::default()
    };

    section("Table I: framework comparison (measured on criteo-kaggle shape)");
    let mut rows = Vec::new();
    let mut dense_wall = 0.0f64;
    for kind in FrameworkKind::all() {
        let run = run_framework(kind, &ds, &params);
        let r = &run.report;
        let w = &r.work;
        let per_batch = w.bus.total_bytes() as f64 / params.num_batches as f64;
        let wall = (w.gemm + w.tt + w.gather + w.host).as_secs_f64();
        if kind == FrameworkKind::DlrmPs {
            dense_wall = wall;
        }
        let (host_mem, compression) = match kind {
            FrameworkKind::DlrmPs => ("yes", "no"),
            FrameworkKind::Fae => ("yes", "no"),
            FrameworkKind::TtRec => ("no", "yes"),
            FrameworkKind::ElRec => ("optional", "yes"),
        };
        let overhead = if compression == "yes" {
            format!("{:.2}x compute vs dense", wall / dense_wall)
        } else {
            "n/a".to_string()
        };
        rows.push(vec![
            r.name.clone(),
            host_mem.to_string(),
            compression.to_string(),
            format!("{} /batch", fmt_bytes(per_batch as usize)),
            overhead,
            fmt_bytes(r.device_embedding_bytes),
        ]);
    }
    print_table(
        &[
            "framework",
            "host memory",
            "compression",
            "CPU-GPU traffic",
            "compression overhead",
            "device emb bytes",
        ],
        &rows,
    );
    println!(
        "paper: DLRM high comm latency; FAE moderate; TT-Rec high compression\n\
         overhead; EL-Rec low on both axes."
    );
}
