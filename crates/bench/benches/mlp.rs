//! Criterion microbenchmark: one training step's MLP work in isolation.
//!
//! Forward + backward of the `perf` workloads' two MLPs — bottom
//! `[13, 64, 32, 32]`, top `[383, 64, 32, 1]` (27 features of d = 32) — at
//! batch 256 and 2048, driven as `DlrmModel`'s step drives them: the input
//! moved in and taken back, outputs in reused buffers, an input gradient
//! for the top MLP only. Each direction is one fork over batch bands, then
//! the whole-batch weight-gradient reductions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use el_dlrm::Mlp;
use el_tensor::Matrix;
use rand::SeedableRng;

fn bench_mlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp");
    for (name, sizes) in [("bottom", [13usize, 64, 32, 32]), ("top", [383, 64, 32, 1])] {
        for batch in [256usize, 2048] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let mut mlp = Mlp::new(&sizes, &mut rng);
            let mut x = Matrix::uniform(batch, sizes[0], 1.0, &mut rng);
            let dy = Matrix::uniform(batch, mlp.out_dim(), 1.0, &mut rng);
            let (mut y, mut dx) = (Matrix::default(), Matrix::default());
            let wants_dx = name == "top";
            // Multiply-adds: x·Wᵀ, dy·W (not layer 0's for the bottom MLP)
            // and dyᵀ·x per layer.
            let weights: usize = sizes.windows(2).map(|w| w[0] * w[1]).sum();
            let skipped = if wants_dx { 0 } else { sizes[0] * sizes[1] };
            group.throughput(Throughput::Elements((batch * (3 * weights - skipped)) as u64));
            let id = format!("{name}_b{batch}");
            group.bench_with_input(BenchmarkId::new("forward_backward", &id), &batch, |b, _| {
                b.iter(|| {
                    mlp.forward_owned(std::mem::take(&mut x), &mut y);
                    mlp.backward_into(&dy, wants_dx.then_some(&mut dx));
                    x = mlp.take_input();
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).provenance(el_bench::provenance_fields());
    targets = bench_mlp
}
criterion_main!(benches);
