//! Steady-state allocation audit of the Eff-TT training hot path.
//!
//! A counting global allocator wraps the system allocator; after warming a
//! workspace over a pool of batches, further forward/backward iterations
//! over the same pool must perform **zero** heap allocations — the plan,
//! level buffers, batch task list and output matrix are all recycled.
//!
//! The hard assertion only fires in release builds: debug builds run the
//! batched-GEMM `outputs_disjoint` debug check, which allocates a sort
//! buffer by design.

#![deny(unsafe_op_in_unsafe_fn)]

mod counting_alloc;

use el_core::bag::{TtEmbeddingBag, TtWorkspace};
use el_core::config::{BackwardStrategy, ForwardStrategy, TtConfig, TtOptions};
use el_tensor::Matrix;
use rand::SeedableRng;

/// A pool of CSR batches cycled through warm-up and measurement, so the
/// measured iterations see exactly the shapes the warm-up grew buffers for.
fn batch_pool(rows: usize, pool: usize, lookups: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    (0..pool)
        .map(|p| {
            let indices: Vec<u32> =
                (0..lookups).map(|i| ((i * 31 + p * 17) % rows) as u32).collect();
            let samples = 8;
            let per = lookups / samples;
            let offsets: Vec<u32> = (0..=samples)
                .map(|s| if s == samples { lookups as u32 } else { (s * per) as u32 })
                .collect();
            (indices, offsets)
        })
        .collect()
}

fn run_steady_state(options: TtOptions, label: &str) {
    run_steady_state_sized(options, 8, 256, label);
}

fn run_steady_state_sized(options: TtOptions, rank: usize, lookups: usize, label: &str) {
    let _exclusive = counting_alloc::exclusive();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut bag =
        TtEmbeddingBag::new(&TtConfig::new(4096, 32, rank), &mut rng).with_options(options);
    let mut ws = TtWorkspace::new();
    let mut out = Matrix::zeros(0, 0);
    let pool = batch_pool(bag.num_rows(), 4, lookups);

    // Warm-up: two passes over the pool grow every buffer to its steady
    // shape; the second pass exercises the plan ping-pong on rebuilds.
    for _ in 0..2 {
        for (indices, offsets) in &pool {
            bag.forward_into(indices, offsets, &mut ws, &mut out);
            bag.backward_sgd(&out, &mut ws, 0.01);
        }
    }

    // The counter is process-global, so a one-time lazy initialization on a
    // harness thread (e.g. libtest's coordinator parking for the first time)
    // can land inside the window — observed as a rare 2-allocation blip from
    // a thread other than this one. Steady state is idempotent: re-measuring
    // over the same pool is an equally valid observation, and only one-shot
    // foreign noise passes a retry — a real per-iteration allocation in the
    // hot path (on any thread, rayon workers included) fails every attempt.
    let mut new_allocs = 0;
    for _attempt in 0..3 {
        let before = counting_alloc::calls();
        for (indices, offsets) in &pool {
            bag.forward_into(indices, offsets, &mut ws, &mut out);
            bag.backward_sgd(&out, &mut ws, 0.01);
        }
        new_allocs = counting_alloc::calls() - before;
        if new_allocs == 0 {
            break;
        }
    }

    if cfg!(debug_assertions) {
        // Debug builds allocate inside debug_assert! checks; just make sure
        // the harness itself works.
        eprintln!("{label}: {new_allocs} allocations (debug build, not asserted)");
    } else {
        assert_eq!(
            new_allocs, 0,
            "{label}: steady-state iterations performed {new_allocs} heap allocations"
        );
    }
}

#[test]
fn reuse_aggregated_fused_path_is_allocation_free() {
    run_steady_state(
        TtOptions {
            forward: ForwardStrategy::Reuse,
            backward: BackwardStrategy::Aggregated,
            fused_update: true,
            parallel_analysis: false,
        },
        "reuse/aggregated/fused",
    );
}

#[test]
fn parallel_analysis_path_is_allocation_free() {
    // 8192 lookups per batch puts analysis above PAR_BUILD_CUTOFF, so the
    // rayon-parallel builder runs; its sharded histograms and the pool's
    // injector queue must all reach a steady shape.
    run_steady_state_sized(
        TtOptions {
            forward: ForwardStrategy::Reuse,
            backward: BackwardStrategy::Aggregated,
            fused_update: true,
            parallel_analysis: true,
        },
        8,
        8192,
        "parallel analysis",
    );
}

#[test]
fn unfused_materialized_gradients_are_allocation_free() {
    run_steady_state(
        TtOptions {
            forward: ForwardStrategy::Reuse,
            backward: BackwardStrategy::Aggregated,
            fused_update: false,
            parallel_analysis: false,
        },
        "reuse/aggregated/unfused",
    );
}

#[test]
fn strategy_mismatch_rebuild_path_is_allocation_free() {
    // Naive forward + aggregated backward forces a plan rebuild on every
    // backward pass; the spare-plan ping-pong must keep it allocation-free.
    run_steady_state(
        TtOptions {
            forward: ForwardStrategy::Naive,
            backward: BackwardStrategy::Aggregated,
            fused_update: true,
            parallel_analysis: false,
        },
        "naive-forward/aggregated-backward rebuild",
    );
}

#[test]
fn rank_16_table_kernels_are_allocation_free() {
    // The benchmark's rank: every chain product runs a small-shape table
    // kernel, the backward chain pass fills the shared G_t^T scratch, and
    // 8192 lookups give the deepest forward level enough tasks to split
    // across the pool.
    run_steady_state_sized(TtOptions::default(), 16, 8192, "rank 16 table kernels");
}
