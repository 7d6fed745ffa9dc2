//! Inference serving: a frozen TT table behind a hot-prefix cache.
//!
//! ```text
//! cargo run --release --example inference_serving
//! ```
//!
//! After training, EL-Rec's TT tables serve lookups too:
//! `TtInferenceSession` accelerates frozen-table lookups with a persistent
//! cache of hot prefix products (the cross-batch extension of §III-A's
//! reuse idea).

use el_rec::core::{TtConfig, TtEmbeddingBag, TtInferenceSession, TtWorkspace};
use el_rec::data::{DatasetSpec, SyntheticDataset};
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // 1. Serve zipf traffic from one frozen TT table with and without the
    //    hot-prefix cache.
    let rows = 500_000;
    let mut gen_spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    gen_spec.indices_per_sample = 1;
    let ds = SyntheticDataset::new(gen_spec, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let table = TtEmbeddingBag::new(&TtConfig::new(rows, 64, 16), &mut rng);

    let batches: Vec<(Vec<u32>, Vec<u32>)> = (0..20u64)
        .map(|b| {
            let batch = ds.batch(b, 1024);
            (batch.fields[0].indices.clone(), batch.fields[0].offsets.clone())
        })
        .collect();

    let mut ws = TtWorkspace::new();
    let t0 = Instant::now();
    for (idx, off) in &batches {
        let _ = table.forward(idx, off, &mut ws);
    }
    let baseline = t0.elapsed();

    let mut session = TtInferenceSession::new(&table, 32_768);
    for (idx, off) in &batches {
        let _ = session.lookup(idx, off); // warm the cache
    }
    let t0 = Instant::now();
    for (idx, off) in &batches {
        let _ = session.lookup(idx, off);
    }
    let cached = t0.elapsed();

    println!(
        "\nserving 20 x 1024-lookup batches from a {rows}-row TT table:\n\
         training kernel: {baseline:.2?}\n\
         cached session:  {cached:.2?}  (hit rate {:.1}%, cache {:.1} MB, {:.2}x)",
        session.hit_rate() * 100.0,
        session.footprint_bytes() as f64 / 1e6,
        baseline.as_secs_f64() / cached.as_secs_f64()
    );

    // 2. Correctness: the cached path returns the training kernel's values.
    let (idx, off) = &batches[0];
    let a = table.forward(idx, off, &mut ws);
    let b = session.lookup(idx, off);
    println!("max deviation between paths: {:.2e}", a.max_abs_diff(&b));
    assert!(a.max_abs_diff(&b) < 1e-5);
}
