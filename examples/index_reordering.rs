//! Locality-based index reordering (paper §IV).
//!
//! ```text
//! cargo run --release --example index_reordering
//! ```
//!
//! Profiles batches of one embedding table, builds the co-occurrence index
//! graph, detects communities with Louvain, assembles the index bijection,
//! and measures what it buys the Eff-TT table: more shared TT prefixes
//! (reuse-buffer hits) and tighter per-batch index windows (cache
//! locality).

use el_rec::core::{TtConfig, TtEmbeddingBag, TtWorkspace};
use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::reorder::metrics::{mean_compactness, mean_reuse_opportunity};
use el_rec::reorder::{ReorderConfig, Reorderer};
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let rows = 200_000usize;
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let dataset = SyntheticDataset::new(spec, 99);

    // Offline profiling: collect batches and fit the bijection.
    let profile: Vec<_> = (0..10u64).map(|b| dataset.batch(b, 1024)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let reorderer = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 1 });
    let t0 = Instant::now();
    let bijection = reorderer.fit(rows, &lists);
    println!("fitted bijection over {rows} indices in {:.2?}", t0.elapsed());
    bijection.validate().expect("must be a bijection");

    // Fresh evaluation batches, raw vs remapped.
    let eval: Vec<_> = (50..60u64).map(|b| dataset.batch(b, 1024)).collect();
    let raw: Vec<Vec<u32>> = eval.iter().map(|b| b.fields[0].indices.clone()).collect();
    let remapped: Vec<Vec<u32>> = raw
        .iter()
        .map(|idx| {
            let mut idx = idx.clone();
            bijection.apply(&mut idx);
            idx
        })
        .collect();
    let raw_refs: Vec<&[u32]> = raw.iter().map(|v| v.as_slice()).collect();
    let new_refs: Vec<&[u32]> = remapped.iter().map(|v| v.as_slice()).collect();

    let config = TtConfig::new(rows, 32, 32);
    let last_dim = *config.row_dims.last().unwrap();
    println!("\nTT row factors {:?} (reuse prefix = index / {last_dim})", config.row_dims);
    println!(
        "reuse opportunity: {:.3} -> {:.3}",
        mean_reuse_opportunity(&raw_refs, last_dim),
        mean_reuse_opportunity(&new_refs, last_dim)
    );
    println!(
        "batch compactness: {:.4} -> {:.4}",
        mean_compactness(&raw_refs, rows),
        mean_compactness(&new_refs, rows)
    );

    // And the effect on actual lookup latency.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let table = TtEmbeddingBag::new(&config, &mut rng);
    let mut ws = TtWorkspace::new();
    let offsets: Vec<u32> = (0..=1024u32).map(|s| s * 2).collect();
    let mut time = |lists: &[Vec<u32>]| {
        let t0 = Instant::now();
        for _ in 0..3 {
            for idx in lists {
                let _ = table.forward(idx, &offsets, &mut ws);
            }
        }
        t0.elapsed() / (3 * lists.len() as u32)
    };
    let t_raw = time(&raw);
    let t_new = time(&remapped);
    println!(
        "\nEff-TT lookup: {:.2?} raw vs {:.2?} reordered ({:.2}x)",
        t_raw,
        t_new,
        t_raw.as_secs_f64() / t_new.as_secs_f64()
    );
}
