//! Property-based tests over the staleness protocol: arbitrary seeded
//! schedules, arbitrary explicit fault combinations, and arbitrary
//! pipeline geometries and topologies must all satisfy the invariants in
//! [`crate::invariants`]. Seeds and fault lists are proptest inputs, so
//! a failing case shrinks to a minimal seed / plan before it is reported.

#![cfg(test)]

use crate::fault::{Fault, FaultPlan};
use crate::invariants::{check_run, Violation};
use crate::oracle::sequential_prefix;
use crate::sim::{SimConfig, SimReport};
use proptest::prelude::*;

/// A small config so each case stays fast; `num_batches` is kept at 12
/// and the knobs that shape interleavings vary per case.
fn small_cfg(staleness_bound: u64, prefetch_depth: usize, grad_capacity: usize) -> SimConfig {
    SimConfig {
        num_batches: 12,
        batch_size: 8,
        rows_per_table: 60,
        staleness_bound,
        prefetch_depth,
        grad_capacity,
        ..SimConfig::default()
    }
}

fn verdict(cfg: &SimConfig, plan: &FaultPlan, seed: u64) -> Result<SimReport, Violation> {
    check_run(cfg, plan, seed, &sequential_prefix(cfg))
}

/// One arbitrary fault for a run of `n` batches.
fn arb_fault(n: u64) -> impl Strategy<Value = Fault> {
    let shard = 0u32;
    prop_oneof![
        (0..n, 1u64..64).prop_map(|(at_batch, ticks)| Fault::WorkerStall { at_batch, ticks }),
        (0..n).prop_map(|at_batch| Fault::WorkerDeath { at_batch }),
        (0..n).prop_map(move |after_applied| Fault::ShardDeath { shard, after_applied }),
        (0..n, 1u64..48).prop_map(|(batch, ticks)| Fault::PrefetchDelay { batch, ticks }),
        (0..n * 12, 1u64..60).prop_map(move |(start, ticks)| Fault::ShardSaturation {
            shard,
            start,
            ticks
        }),
        (0..n, 1u32..3).prop_map(move |(seq, delivery)| Fault::DropShardPush {
            shard,
            seq,
            delivery
        }),
        (0..n, 1u32..3).prop_map(move |(seq, delivery)| Fault::DuplicateShardPush {
            shard,
            seq,
            delivery
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seed-derived plans and schedules (what the CI sweep runs) never
    /// violate any invariant.
    #[test]
    fn seeded_schedules_preserve_invariants(seed in 0u64..u64::MAX) {
        let cfg = small_cfg(6, 4, 8);
        let plan = FaultPlan::from_seed(seed, cfg.num_batches);
        let verdict = verdict(&cfg, &plan, seed);
        prop_assert!(
            verdict.is_ok(),
            "seed {seed}, plan [{plan}]: {}",
            verdict.unwrap_err()
        );
    }

    /// Explicit fault lists (shrinkable element-wise, unlike a seed)
    /// preserve the invariants under an arbitrary schedule.
    #[test]
    fn explicit_fault_plans_preserve_invariants(
        faults in proptest::collection::vec(arb_fault(12), 0..4),
        schedule_seed in 0u64..u64::MAX,
    ) {
        let cfg = small_cfg(6, 4, 8);
        let plan = FaultPlan::with(faults);
        let verdict = verdict(&cfg, &plan, schedule_seed);
        prop_assert!(verdict.is_ok(), "plan [{plan}]: {}", verdict.unwrap_err());
    }

    /// The invariants hold across pipeline geometries and topologies: any
    /// staleness bound (including 0, fully synchronous), queue depth,
    /// gradient capacity, shard count and replication factor — the bound
    /// is enforced by the gather gate, not by lucky queue sizing, and
    /// neither seam is visible in the trained bytes.
    #[test]
    fn geometry_never_breaks_the_bound(
        bound in 0u64..8,
        depth in 1usize..6,
        capacity in 1usize..6,
        shards in 1u32..=4,
        replicas in 1u32..=3,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = small_cfg(bound, depth, capacity).with_topology(shards, replicas);
        let plan = FaultPlan::from_seed_sharded(seed, cfg.num_batches, shards);
        let verdict = verdict(&cfg, &plan, seed);
        prop_assert!(
            verdict.is_ok(),
            "bound={bound} depth={depth} cap={capacity} {shards}x{replicas} seed={seed}: {}",
            verdict.unwrap_err()
        );
    }
}
