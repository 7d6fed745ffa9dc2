//! Criterion microbenchmark: the pairwise dot-product interaction.
//!
//! Forward (the lane kernel) and backward (per-sample rows of `(G + Gᵀ)·Z`)
//! at the DLRM step's feature count, F = 27 (bottom MLP + 26 tables), for
//! the two widths the repository trains (`d = 16`: figure binaries and
//! examples; `d = 32`: the `perf` workloads) and two batch sizes. Both
//! directions write into reused outputs, as `DlrmModel`'s step does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use el_dlrm::interaction::Interaction;
use el_tensor::Matrix;
use rand::SeedableRng;

const FEATURES: usize = 27;

fn bench_interaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("interaction");
    for &d in &[16usize, 32] {
        for &batch in &[256usize, 2048] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let inter = Interaction::new(FEATURES, d);
            let feats: Vec<Matrix> =
                (0..FEATURES).map(|_| Matrix::uniform(batch, d, 1.0, &mut rng)).collect();
            let refs: Vec<&Matrix> = feats.iter().collect();
            let d_out = Matrix::uniform(batch, inter.out_dim(), 1.0, &mut rng);
            let id = format!("d{d}_b{batch}");
            // Multiply-adds: one per pair and element forward, two backward.
            let macs = (batch * inter.num_pairs() * d) as u64;

            group.throughput(Throughput::Elements(macs));
            let mut out = Matrix::zeros(0, 0);
            group.bench_with_input(BenchmarkId::new("forward", &id), &batch, |b, _| {
                b.iter(|| inter.forward_into(&refs, &mut out));
            });
            group.throughput(Throughput::Elements(2 * macs));
            let mut grads = Vec::new();
            group.bench_with_input(BenchmarkId::new("backward", &id), &batch, |b, _| {
                b.iter(|| inter.backward_into(&refs, &d_out, &mut grads));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).provenance(el_bench::provenance_fields());
    targets = bench_interaction
}
criterion_main!(benches);
