//! Figure 17 — Eff-TT table lookup latency vs batch size.
//!
//! Compares forward (lookup) latency of the TT-Rec baseline against the
//! Eff-TT kernels, with individual contributions: intermediate-result
//! reuse alone, and reuse + index reordering. The paper reports 1.83x mean
//! speedup over TT-Rec, growing with batch size.

use el_bench::{bench_batches, bench_scale, fmt_secs, fmt_speedup, print_table, section};
use el_core::{ForwardStrategy, TtConfig, TtEmbeddingBag, TtOptions, TtWorkspace};
use el_data::{DatasetSpec, SyntheticDataset};
use el_reorder::{ReorderConfig, Reorderer};
use rand::SeedableRng;
use std::time::Instant;

fn measure_forward(table: &TtEmbeddingBag, batches: &[(Vec<u32>, Vec<u32>)], reps: u64) -> f64 {
    let mut ws = TtWorkspace::new();
    // warmup
    for (idx, off) in batches.iter().take(1) {
        let _ = table.forward(idx, off, &mut ws);
    }
    let start = Instant::now();
    for _ in 0..reps {
        for (idx, off) in batches {
            let _ = table.forward(idx, off, &mut ws);
        }
    }
    start.elapsed().as_secs_f64() / (reps as usize * batches.len()) as f64
}

fn main() {
    let scale = bench_scale(0.2);
    let reps = bench_batches(3);
    let rows = (5_000_000f64 * scale) as usize;
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let ds = SyntheticDataset::new(spec, 55);

    let profile: Vec<_> = (0..6u64).map(|b| ds.batch(b, 2048)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let bijection = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 2 }).fit(rows, &lists);

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let config = TtConfig::new(rows, 32, 32);
    let naive = TtEmbeddingBag::new(&config, &mut rng)
        .with_options(TtOptions { forward: ForwardStrategy::Naive, ..TtOptions::default() });
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let reuse = TtEmbeddingBag::new(&config, &mut rng); // defaults: reuse on

    section(&format!("Figure 17: Eff-TT lookup latency vs batch size ({rows} rows, rank 32)"));
    let mut out = Vec::new();
    for &bs in &[1024usize, 2048, 4096, 8192] {
        let raw: Vec<(Vec<u32>, Vec<u32>)> = (0..4u64)
            .map(|b| {
                let batch = ds.batch(50 + b, bs);
                (batch.fields[0].indices.clone(), batch.fields[0].offsets.clone())
            })
            .collect();
        let reordered: Vec<(Vec<u32>, Vec<u32>)> = raw
            .iter()
            .map(|(idx, off)| {
                let mut idx = idx.clone();
                bijection.apply(&mut idx);
                (idx, off.clone())
            })
            .collect();

        let t_naive = measure_forward(&naive, &raw, reps);
        let t_reuse = measure_forward(&reuse, &raw, reps);
        let t_full = measure_forward(&reuse, &reordered, reps);
        out.push(vec![
            bs.to_string(),
            fmt_secs(t_naive),
            format!("{} ({})", fmt_secs(t_reuse), fmt_speedup(t_naive / t_reuse)),
            format!("{} ({})", fmt_secs(t_full), fmt_speedup(t_naive / t_full)),
        ]);
    }
    print_table(&["batch", "TT-Rec (naive)", "+ result reuse", "+ index reordering"], &out);
    println!(
        "paper: 1.83x mean speedup over TT-Rec (1.75x from reuse, 1.05x from\n\
         reordering), increasing with batch size."
    );
}
