//! Figure 18 — Eff-TT table backward latency vs batch size.
//!
//! Compares backward (gradient + update) latency of the TT-Rec baseline
//! against the Eff-TT optimizations: fused core update, in-advance
//! gradient aggregation, and index reordering. The paper reports 1.70x
//! mean speedup (1.15x fused update, 1.40x aggregation, 1.06x reordering).

use el_bench::{bench_batches, bench_scale, fmt_secs, fmt_speedup, print_table, section};
use el_core::{TtConfig, TtEmbeddingBag, TtOptions, TtWorkspace};
use el_data::{DatasetSpec, SyntheticDataset};
use el_reorder::{ReorderConfig, Reorderer};
use rand::SeedableRng;
use std::time::Instant;

fn measure_backward(
    table: &mut TtEmbeddingBag,
    batches: &[(Vec<u32>, Vec<u32>)],
    reps: u64,
) -> f64 {
    let mut ws = TtWorkspace::new();
    let mut total = 0.0f64;
    for _ in 0..reps {
        for (idx, off) in batches {
            let out = table.forward(idx, off, &mut ws);
            let start = Instant::now();
            table.backward_sgd(&out, &mut ws, 0.001);
            total += start.elapsed().as_secs_f64();
        }
    }
    total / (reps as usize * batches.len()) as f64
}

fn main() {
    let scale = bench_scale(0.2);
    let reps = bench_batches(3);
    let rows = (5_000_000f64 * scale) as usize;
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let ds = SyntheticDataset::new(spec, 77);

    let profile: Vec<_> = (0..6u64).map(|b| ds.batch(b, 2048)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let bijection = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 2 }).fit(rows, &lists);

    let config = TtConfig::new(rows, 32, 32);
    let make = |options: TtOptions| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        TtEmbeddingBag::new(&config, &mut rng).with_options(options)
    };
    let mut ttrec = make(TtOptions::tt_rec_baseline());
    let mut fused = make(TtOptions { fused_update: true, ..TtOptions::tt_rec_baseline() });
    let mut aggregated = make(TtOptions::default()); // aggregation + fused

    section(&format!("Figure 18: Eff-TT backward latency vs batch size ({rows} rows, rank 32)"));
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

        let t_base = measure_backward(&mut ttrec, &raw, reps);
        let t_fused = measure_backward(&mut fused, &raw, reps);
        let t_agg = measure_backward(&mut aggregated, &raw, reps);
        let t_full = measure_backward(&mut aggregated, &reordered, reps);
        out.push(vec![
            bs.to_string(),
            fmt_secs(t_base),
            format!("{} ({})", fmt_secs(t_fused), fmt_speedup(t_base / t_fused)),
            format!("{} ({})", fmt_secs(t_agg), fmt_speedup(t_base / t_agg)),
            format!("{} ({})", fmt_secs(t_full), fmt_speedup(t_base / t_full)),
        ]);
    }
    print_table(
        &["batch", "TT-Rec (naive)", "+ fused update", "+ aggregation", "+ reordering"],
        &out,
    );
    println!(
        "paper: 1.70x mean speedup over TT-Rec (1.47x-2.10x across batch sizes);\n\
         1.15x from fused update, 1.40x from aggregation, 1.06x from reordering."
    );
}
