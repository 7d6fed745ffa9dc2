//! Criterion microbenchmark: the index-reordering pipeline.
//!
//! Reordering runs offline, but its cost still matters for practicality;
//! these benches time plan construction (the pointer-preparation analogue
//! that *does* run per batch), index-graph building and Louvain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use el_core::LookupPlan;
use el_data::{DatasetSpec, SyntheticDataset};
use el_reorder::graph::IndexGraphBuilder;
use el_reorder::{louvain, Reorderer};
use el_tensor::shape::balanced_factorization;

fn bench_plan_build(c: &mut Criterion) {
    let rows = 1_000_000usize;
    let dims = balanced_factorization(rows, 3);
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let ds = SyntheticDataset::new(spec, 7);

    let mut group = c.benchmark_group("plan_build");
    for &bs in &[1024usize, 4096] {
        let batch = ds.batch(0, bs);
        let field = &batch.fields[0];
        group.bench_with_input(BenchmarkId::new("dedup", bs), &bs, |b, _| {
            b.iter(|| LookupPlan::build(&field.indices, &field.offsets, &dims, true));
        });
        group.bench_with_input(BenchmarkId::new("no_dedup", bs), &bs, |b, _| {
            b.iter(|| LookupPlan::build(&field.indices, &field.offsets, &dims, false));
        });
    }
    group.finish();
}

fn bench_reorder_pipeline(c: &mut Criterion) {
    let rows = 20_000usize;
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    let ds = SyntheticDataset::new(spec, 8);
    let batches: Vec<_> = (0..8u64).map(|b| ds.batch(b, 1024)).collect();
    let lists: Vec<&[u32]> = batches.iter().map(|b| &b.fields[0].indices[..]).collect();

    c.bench_function("index_graph_build", |b| {
        b.iter(|| {
            let mut builder = IndexGraphBuilder::new(rows, &vec![false; rows], 1);
            for l in &lists {
                builder.add_batch(l);
            }
            builder.build()
        });
    });

    let mut builder = IndexGraphBuilder::new(rows, &vec![false; rows], 1);
    for l in &lists {
        builder.add_batch(l);
    }
    let graph = builder.build();
    c.bench_function("louvain", |b| b.iter(|| louvain(&graph)));

    c.bench_function("bijection_fit_end_to_end", |b| {
        b.iter(|| Reorderer::default().fit(rows, &lists));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).provenance(el_bench::provenance_fields());
    targets = bench_plan_build, bench_reorder_pipeline
}
criterion_main!(benches);
