//! Figure 14 — Eff-TT optimization breakdown.
//!
//! Trains a single embedding table (2.5M / 5M / 10M rows in the paper;
//! scaled here) and reports training throughput with all optimizations on,
//! then with one disabled at a time:
//!
//! * in-advance gradient aggregation (paper: −52% when off),
//! * index reordering (−13%),
//! * intermediate result reuse (−10%).

use el_bench::{bench_batches, bench_scale, print_table, section};
use el_core::{
    BackwardStrategy, ForwardStrategy, TtConfig, TtEmbeddingBag, TtOptions, TtWorkspace,
};
use el_data::{DatasetSpec, SyntheticDataset};
use el_reorder::{ReorderConfig, Reorderer};
use rand::SeedableRng;
use std::time::Instant;

struct Variant {
    name: &'static str,
    options: TtOptions,
    reorder: bool,
}

fn throughput(rows: usize, variant: &Variant, batch_size: usize, num_batches: u64) -> f64 {
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let ds = SyntheticDataset::new(spec, 101);

    // offline reordering from profiling batches
    let bijection = if variant.reorder {
        let profile = ds.batches(0, 6, batch_size);
        let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
        Some(Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 1 }).fit(rows, &lists))
    } else {
        None
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut table = TtEmbeddingBag::new(&TtConfig::new(rows, 32, 32), &mut rng)
        .with_options(variant.options.clone());
    let mut ws = TtWorkspace::new();

    let start = Instant::now();
    for k in 0..num_batches {
        let mut batch = ds.batch(100 + k, batch_size);
        if let Some(b) = &bijection {
            batch.fields[0].remap(&b.forward);
        }
        let field = &batch.fields[0];
        let out = table.forward(&field.indices, &field.offsets, &mut ws);
        table.backward_sgd(&out, &mut ws, 0.01);
    }
    (num_batches as usize * batch_size) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let scale = bench_scale(0.1);
    let num_batches = bench_batches(6);
    let batch_size = 2048;
    let table_rows: Vec<usize> = [2_500_000usize, 5_000_000, 10_000_000]
        .iter()
        .map(|r| ((*r as f64) * scale) as usize)
        .collect();

    let variants = [
        Variant {
            name: "EL-Rec (all optimizations)",
            options: TtOptions::default(),
            reorder: true,
        },
        Variant {
            name: "- in-advance aggregation",
            options: TtOptions { backward: BackwardStrategy::PerLookup, ..TtOptions::default() },
            reorder: true,
        },
        Variant { name: "- index reordering", options: TtOptions::default(), reorder: false },
        Variant {
            name: "- intermediate result reuse",
            options: TtOptions { forward: ForwardStrategy::Naive, ..TtOptions::default() },
            reorder: true,
        },
        Variant {
            name: "- fused core update",
            options: TtOptions { fused_update: false, ..TtOptions::default() },
            reorder: true,
        },
    ];

    section(&format!("Figure 14: optimization breakdown (throughput, samples/s; scale {scale})"));
    let mut rows_out = Vec::new();
    for &rows in &table_rows {
        let base = throughput(rows, &variants[0], batch_size, num_batches);
        let mut cells = vec![format!("{:.1}M rows", rows as f64 / 1e6)];
        cells.push(format!("{base:.0} (100%)"));
        for v in &variants[1..] {
            let t = throughput(rows, v, batch_size, num_batches);
            cells.push(format!("{t:.0} ({:.0}%)", t / base * 100.0));
        }
        rows_out.push(cells);
    }
    let headers: Vec<&str> =
        std::iter::once("table size").chain(variants.iter().map(|v| v.name)).collect();
    print_table(&headers, &rows_out);
    println!(
        "paper: disabling in-advance aggregation costs ~52% throughput,\n\
         index reordering ~13%, intermediate-result reuse ~10%."
    );
}
