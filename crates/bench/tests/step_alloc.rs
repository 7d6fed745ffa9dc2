//! Heap allocations of a whole DLRM train step must not grow with the batch.
//!
//! A step allocates a fixed handful of buffers (the dense input, each MLP's
//! last output, the loss gradient, the band lists of the pool forks); the
//! per-sample work — the pairwise interaction above all — must run in
//! recycled buffers. A counting global allocator compares one `train_step` at batch
//! 2048 with one at batch 256, both after warm-up at both sizes.
//!
//! Its own test binary (not a test in `zero_alloc.rs`), so that file's
//! audits and this one never share the process-global counter. The
//! assertion only fires in release builds, like `zero_alloc.rs`'s: debug
//! builds run allocating debug checks.

#![deny(unsafe_op_in_unsafe_fn)]

mod counting_alloc;

use el_data::{DatasetSpec, MiniBatch, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel, OptimizerKind};
use rand::SeedableRng;

/// Allocations one `train_step` on `batch` performs.
fn allocations(model: &mut DlrmModel, batch: &MiniBatch) -> u64 {
    let before = counting_alloc::calls();
    let loss = model.train_step(batch);
    let after = counting_alloc::calls();
    assert!(loss.is_finite());
    after - before
}

#[test]
fn train_step_allocations_do_not_grow_with_the_batch() {
    let _exclusive = counting_alloc::exclusive();
    // Nine interacting features (bottom MLP + eight tables, two of them TT):
    // 36 pairs, so a per-sample allocation in the interaction would cost
    // tens of thousands here.
    let mut spec = DatasetSpec::toy(8, 500, 1_000_000);
    spec.table_cardinalities = vec![4_000, 500, 300, 4_000, 200, 100, 500, 50];
    let data = SyntheticDataset::new(spec.clone(), 5);
    let config = DlrmConfig {
        num_dense: spec.num_dense,
        table_cardinalities: spec.table_cardinalities.clone(),
        dim: 16,
        bottom_hidden: vec![64, 32],
        top_hidden: vec![64, 32],
        tt_threshold: 1_000,
        tt_rank: 8,
        lr: 0.05,
        optimizer: OptimizerKind::Sgd,
    };
    let mut model = DlrmModel::new(&config, &mut rand::rngs::StdRng::seed_from_u64(5));

    let (small, large) = (data.batch(0, 256), data.batch(1, 2048));
    // Warm-up at both sizes: every recycled buffer (TT workspaces, MLP
    // caches, the interaction's outputs and per-thread scratch, GEMM packs)
    // reaches its 2048 shape.
    for _ in 0..3 {
        model.train_step(&small);
        model.train_step(&large);
    }

    // The counter is process-global: a one-off allocation on a harness
    // thread can land in a window, so take each size's fewest of three.
    let fewest = |model: &mut DlrmModel, batch: &MiniBatch| {
        (0..3).map(|_| allocations(model, batch)).min().unwrap_or(0)
    };
    let at_256 = fewest(&mut model, &small);
    let at_2048 = fewest(&mut model, &large);
    if cfg!(debug_assertions) {
        eprintln!(
            "train_step allocations: {at_256} at 256, {at_2048} at 2048 (debug, not asserted)"
        );
    } else {
        assert!(
            at_2048 <= at_256 + 16,
            "one train_step allocates {at_2048} times at batch 2048 but {at_256} at batch 256"
        );
    }
}
