//! Elastic resharding scenarios: drain → migrate → resume, and the
//! reshard-under-crash sweep CI runs.
//!
//! The scenario under test is the elasticity claim of DESIGN.md §14: a
//! running sharded tier can be *resharded* — drained through the durable
//! [`CkptStore`], its row ranges split and migrated onto a new placement
//! (more shards, fewer shards, a different placement seed), and resumed —
//! and the final tables are **byte-identical to a tier that never
//! resharded**, even when the process crashes at any step of the drain
//! protocol or the drained bytes rot at rest.
//!
//! [`run_reshard`] drives it in two phases around a drain:
//!
//! 1. a faulted sharded session ([`run_session`]) under the *old*
//!    layout up to the reshard point;
//! 2. the drain: a pre-drain full checkpoint of the merged tables is
//!    made durable, then every old shard's sub-tables are checkpointed
//!    per-slot through a [`CkptStore`] over [`FaultyStorage`] — a storage
//!    fault anywhere in that protocol kills the process mid-drain;
//! 3. power loss, at-rest rot, then a recovery scan that prefers (a) a
//!    complete per-slot drain set merged under the old layout, falling
//!    back to (b) the pre-drain full checkpoint, or worst case (c) a cold
//!    restart — and resumes under the *new* layout, fault-free, to
//!    completion.
//!
//! The invariant ([`check_reshard`]) is that the resumed run completes
//! with a merged digest equal to the never-resharded sequential oracle's
//! final digest, that both phases pass every trace invariant, and
//! that the whole scenario replays bit-for-bit.

use crate::clock::splitmix64;
use crate::fault::{Fault, FaultPlan};
use crate::invariants::{check_trace, Violation};
use crate::oracle::Oracle;
use crate::recovery::SimCheckpoint;
use crate::sim::{build_tables, run_session, Outcome, ResumeState, SimConfig, SimReport};
use crate::storage::{FaultyStorage, StorageFault, StorageFaultPlan};
use el_pipeline::ckpt::{CkptStore, Storage};
use el_pipeline::{merge_tables, ShardConfig};
use std::fmt;
use std::sync::Arc;

/// Configuration of one resharding scenario.
#[derive(Clone, Copy, Debug)]
pub struct ReshardConfig {
    /// The model/data universe; `num_batches` is the *total* batch count
    /// across both phases, and `shard` is overridden per phase.
    pub base: SimConfig,
    /// The layout the run starts under.
    pub from: ShardConfig,
    /// The layout the run resumes under after the drain.
    pub to: ShardConfig,
    /// Applied-batch watermark at which the tier is drained and
    /// resharded. Must be `<= base.num_batches`.
    pub reshard_at: u64,
    /// Checkpoints the drain store retains; must be at least
    /// `from.num_shards + 1` so a complete drain set plus the pre-drain
    /// checkpoint survive pruning.
    pub retain: usize,
}

impl Default for ReshardConfig {
    fn default() -> Self {
        Self {
            base: SimConfig::default(),
            from: ShardConfig { num_shards: 3, rows_per_range: 16, placement_seed: 0xE1 },
            to: ShardConfig { num_shards: 2, rows_per_range: 16, placement_seed: 0xE2 },
            reshard_at: 12,
            retain: 6,
        }
    }
}

impl ReshardConfig {
    /// The phase-1 sim config: the old layout, truncated at the reshard
    /// point.
    pub fn phase_a(&self) -> SimConfig {
        SimConfig { num_batches: self.reshard_at, shard: self.from, ..self.base }
    }

    /// The phase-2 sim config: the new layout over the full batch range.
    pub fn phase_b(&self) -> SimConfig {
        SimConfig { shard: self.to, ..self.base }
    }
}

/// Which durable state the post-drain recovery scan resumed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveredFrom {
    /// A complete per-slot drain set, merged under the old layout.
    DrainSet,
    /// The pre-drain full checkpoint (some drain slot was lost).
    PreDrain,
    /// Nothing valid survived; the tier restarted cold from batch zero.
    Cold,
}

impl fmt::Display for RecoveredFrom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveredFrom::DrainSet => write!(f, "complete drain set"),
            RecoveredFrom::PreDrain => write!(f, "pre-drain checkpoint"),
            RecoveredFrom::Cold => write!(f, "cold restart"),
        }
    }
}

/// What one resharding scenario did.
#[derive(Debug)]
pub struct ReshardReport {
    /// The faulted first phase under the old layout.
    pub phase_a: SimReport,
    /// The fault-free resumed second phase under the new layout.
    pub phase_b: SimReport,
    /// Where recovery found its resume state.
    pub recovered_from: RecoveredFrom,
    /// Applied-batch watermark the resumed session started at.
    pub resumed_applied: u64,
    /// True when a storage fault killed the process mid-drain.
    pub drain_crashed: bool,
    /// Digest of the scenario's final merged tables.
    pub final_digest: u64,
}

impl fmt::Display for ReshardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let drain = if self.drain_crashed { "; drain died mid-protocol" } else { "" };
        writeln!(f, "phase 1 {}{drain}", self.phase_a)?;
        writeln!(f, "recovered from {} (applied={})", self.recovered_from, self.resumed_applied)?;
        write!(f, "phase 2 {}", self.phase_b)
    }
}

/// Runs one full resharding scenario. Infallible by design, like
/// [`crate::recovery::run_with_recovery`]: every fault combination has a
/// defined recovery (worst case a cold restart under the new layout), so
/// the only failures are invariant violations, which [`check_reshard`]
/// detects.
pub fn run_reshard(
    rc: &ReshardConfig,
    live_plan: &FaultPlan,
    storage_plan: &StorageFaultPlan,
    schedule_seed: u64,
) -> ReshardReport {
    let phase_a = run_session(&rc.phase_a(), live_plan, schedule_seed, None, None);

    // The drain store opens unarmed (creation on empty MemStorage cannot
    // fail) and the pre-drain full checkpoint is saved before the fault
    // timeline starts: the worst crash mid-drain falls back to it.
    let storage = FaultyStorage::new(StorageFaultPlan::none());
    let mut store =
        CkptStore::open(storage.clone(), rc.retain).expect("opening an empty MemStorage store");
    let mut drain_crashed = false;
    if phase_a.outcome == Outcome::Completed {
        let pre = SimCheckpoint::single(rc.reshard_at, phase_a.merged_tables.clone());
        store.save_bytes(&pre.to_framed_bytes()).expect("unarmed pre-drain save cannot fail");
        storage.arm(storage_plan.clone());
        // The drain protocol: one durable per-slot checkpoint per old
        // shard. A storage fault at any step kills the process here.
        for (s, tables) in phase_a.shard_tables.iter().enumerate() {
            let ckpt = SimCheckpoint {
                applied: rc.reshard_at,
                shard: s as u32,
                num_shards: rc.from.num_shards,
                tables: tables.clone(),
            };
            if store.save_bytes(&ckpt.to_framed_bytes()).is_err() {
                drain_crashed = true;
                break;
            }
        }
    }

    // Power loss: un-synced state vanishes, then at-rest rot sets in.
    storage.mem().crash();
    storage_plan.apply_at_rest(storage.mem());

    // Recovery scan on the surviving bytes (the new process's storage is
    // healthy). Prefer a complete drain set; fall back to the pre-drain
    // checkpoint; worst case restart cold.
    let store = CkptStore::open(Arc::clone(storage.mem()), rc.retain)
        .expect("reopening a MemStorage store");
    let (recovered_from, resume) = scan_drained(&store, rc);
    let resumed_applied = resume.applied;

    // The restarted process draws a fresh schedule; determinism comes
    // from deriving it from the scenario seed.
    let phase_b = run_session(
        &rc.phase_b(),
        &FaultPlan::none(),
        splitmix64(schedule_seed ^ 0x2E5A_4DC0_2E5A_4DC0),
        Some(resume),
        None,
    );
    ReshardReport {
        final_digest: phase_b.merged_digest,
        phase_a,
        phase_b,
        recovered_from,
        resumed_applied,
        drain_crashed,
    }
}

/// The recovery scan: newest-first over whatever survived, collecting the
/// newest valid checkpoint per old-layout slot and the newest valid
/// pre-drain full checkpoint along the way.
fn scan_drained<S: Storage>(
    store: &CkptStore<S>,
    rc: &ReshardConfig,
) -> (RecoveredFrom, ResumeState) {
    let n = rc.from.num_shards as usize;
    let mut slots: Vec<Option<SimCheckpoint>> = (0..n).map(|_| None).collect();
    let mut pre_drain: Option<SimCheckpoint> = None;
    for name in store.names_newest_first().unwrap_or_default() {
        let Ok(bytes) = store.storage().read_file(&name) else { continue };
        let Ok(ckpt) = SimCheckpoint::from_framed_bytes(&bytes) else { continue };
        if ckpt.applied != rc.reshard_at {
            continue;
        }
        if ckpt.num_shards == rc.from.num_shards {
            let slot = &mut slots[ckpt.shard as usize];
            if slot.is_none() {
                *slot = Some(ckpt);
            }
        } else if ckpt.num_shards == 1 && pre_drain.is_none() {
            pre_drain = Some(ckpt);
        }
    }
    if slots.iter().all(Option::is_some) {
        let layout = rc.phase_a().layout();
        let sub: Vec<Vec<_>> = slots.into_iter().map(|s| s.unwrap().tables).collect();
        if let Ok(tables) = merge_tables(&sub, &layout) {
            return (RecoveredFrom::DrainSet, ResumeState { applied: rc.reshard_at, tables });
        }
    }
    if let Some(ckpt) = pre_drain {
        return (
            RecoveredFrom::PreDrain,
            ResumeState { applied: ckpt.applied, tables: ckpt.tables },
        );
    }
    (RecoveredFrom::Cold, ResumeState { applied: 0, tables: build_tables(&rc.base) })
}

/// Runs a resharding scenario twice, demands bit-identical outcomes, and
/// checks the elasticity invariant: both phases pass every trace check, the resumed run completes, and its final merged tables are
/// byte-identical to the never-resharded sequential oracle.
pub fn check_reshard(
    rc: &ReshardConfig,
    live_plan: &FaultPlan,
    storage_plan: &StorageFaultPlan,
    schedule_seed: u64,
    oracle: &Oracle,
) -> Result<ReshardReport, Violation> {
    let a = run_reshard(rc, live_plan, storage_plan, schedule_seed);
    let b = run_reshard(rc, live_plan, storage_plan, schedule_seed);
    if a.final_digest != b.final_digest
        || a.recovered_from != b.recovered_from
        || a.resumed_applied != b.resumed_applied
        || a.phase_a.trace != b.phase_a.trace
        || a.phase_b.trace != b.phase_b.trace
    {
        return Err(Violation::ReplayDiverged { seed: schedule_seed });
    }
    check_trace(&a.phase_a, &rc.phase_a())?;
    check_trace(&a.phase_b, &rc.phase_b())?;
    if a.phase_a.outcome == Outcome::Completed {
        let want = oracle.prefix_digests[rc.reshard_at as usize];
        if a.phase_a.merged_digest != want {
            return Err(Violation::OracleMismatch {
                applied: rc.reshard_at,
                got: a.phase_a.merged_digest,
                want,
            });
        }
    }
    if a.phase_b.outcome != Outcome::Completed {
        return Err(Violation::RecoveryIncomplete {
            applied: a.phase_b.min_applied(),
            expected: rc.base.num_batches,
        });
    }
    let want = oracle.prefix_digests[rc.base.num_batches as usize];
    if a.final_digest != want {
        return Err(Violation::RecoveryDiverged { got: a.final_digest, want });
    }
    Ok(a)
}

/// The scenario seed `seed` derives for the reshard sweep: an old layout
/// of 2–4 shards, a *different* new layout of 1–5 shards, a reshard point
/// inside the run (clamped into `0..=num_batches` for runs too short to
/// have an inside), a live fault plan filtered to faults phase 1 absorbs
/// (deaths are removed so the drain always has a complete tier to drain —
/// crash coverage comes from the storage plan), and a storage plan
/// guaranteed to crash the drain protocol at some op.
pub fn reshard_plans_for_seed(
    seed: u64,
    base: &SimConfig,
) -> (ReshardConfig, FaultPlan, StorageFaultPlan) {
    let mut ctr = seed ^ 0x4E54_A4D0_4E54_A4D0;
    let mut draw = move || {
        ctr = ctr.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(ctr)
    };
    let from = 2 + (draw() % 3) as u32; // 2..=4
    let mut to = 1 + (draw() % 4) as u32; // 1..=4, bumped past `from`
    if to >= from {
        to += 1;
    }
    let reshard_at = (1 + draw() % base.num_batches.saturating_sub(2).max(1)).min(base.num_batches);
    let rc = ReshardConfig {
        base: *base,
        from: ShardConfig {
            num_shards: from,
            rows_per_range: 16,
            placement_seed: splitmix64(seed ^ 0xA11C),
        },
        to: ShardConfig {
            num_shards: to,
            rows_per_range: 16,
            placement_seed: splitmix64(seed ^ 0xB22D),
        },
        reshard_at,
        retain: from as usize + 2,
    };
    let mut live = FaultPlan::from_seed_sharded(seed, reshard_at, from);
    live.faults.retain(|f| !matches!(f, Fault::WorkerDeath { .. } | Fault::ShardDeath { .. }));
    let mut storage = StorageFaultPlan::from_seed(seed);
    if storage.faults.is_empty() {
        storage
            .faults
            .push(StorageFault::CrashAtOp { op: splitmix64(seed ^ 0xD4A1_4D4A_14D4_A14D) % 40 });
    }
    (rc, live, storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sequential_prefix;

    #[test]
    fn fault_free_reshard_matches_the_never_resharded_oracle() {
        let rc = ReshardConfig::default();
        let oracle = sequential_prefix(&rc.base);
        let report = check_reshard(&rc, &FaultPlan::none(), &StorageFaultPlan::none(), 3, &oracle)
            .unwrap_or_else(|v| panic!("violated: {v}"));
        assert_eq!(report.recovered_from, RecoveredFrom::DrainSet);
        assert_eq!(report.resumed_applied, rc.reshard_at);
        assert!(!report.drain_crashed);
        assert_eq!(report.final_digest, *oracle.prefix_digests.last().unwrap());
    }

    #[test]
    fn growing_and_shrinking_layouts_both_recover() {
        let base = SimConfig::default();
        let oracle = sequential_prefix(&base);
        for (from, to) in [(2u32, 4u32), (4, 2), (3, 1), (1, 3)] {
            let rc = ReshardConfig {
                base,
                from: ShardConfig { num_shards: from, rows_per_range: 16, placement_seed: 7 },
                to: ShardConfig { num_shards: to, rows_per_range: 32, placement_seed: 8 },
                reshard_at: 10,
                retain: from as usize + 2,
            };
            let report =
                check_reshard(&rc, &FaultPlan::none(), &StorageFaultPlan::none(), 5, &oracle)
                    .unwrap_or_else(|v| panic!("{from} -> {to} violated: {v}"));
            assert_eq!(report.recovered_from, RecoveredFrom::DrainSet, "{from} -> {to}");
        }
    }

    #[test]
    fn crash_at_every_drain_step_recovers() {
        let rc = ReshardConfig::default();
        let oracle = sequential_prefix(&rc.base);
        let (mut drained, mut fell_back) = (0u32, 0u32);
        for op in 0..80 {
            let sp = StorageFaultPlan::with(vec![StorageFault::CrashAtOp { op }]);
            let report = check_reshard(&rc, &FaultPlan::none(), &sp, 13, &oracle)
                .unwrap_or_else(|v| panic!("crash at op {op} violated: {v}"));
            match report.recovered_from {
                RecoveredFrom::DrainSet => drained += 1,
                RecoveredFrom::PreDrain => fell_back += 1,
                RecoveredFrom::Cold => {}
            }
        }
        assert!(drained > 0, "late crashes must leave a complete drain set");
        assert!(fell_back > 0, "mid-drain crashes must fall back to the pre-drain checkpoint");
    }

    #[test]
    fn at_rest_rot_of_a_drained_slot_falls_back() {
        let rc = ReshardConfig::default();
        let oracle = sequential_prefix(&rc.base);
        // rot the newest durable file — the last drained slot — at rest
        let sp = StorageFaultPlan::with(vec![StorageFault::BitFlipAtRest { pos_seed: 99 }]);
        let report = check_reshard(&rc, &FaultPlan::none(), &sp, 21, &oracle)
            .unwrap_or_else(|v| panic!("violated: {v}"));
        assert_eq!(
            report.recovered_from,
            RecoveredFrom::PreDrain,
            "a rotted slot must disqualify the drain set"
        );
        assert_eq!(report.resumed_applied, rc.reshard_at);
    }

    #[test]
    fn reshard_plans_cover_layout_diversity() {
        let base = SimConfig::default();
        let mut froms = std::collections::BTreeSet::new();
        let (mut grew, mut shrank) = (0u32, 0u32);
        for seed in 0..200 {
            let (rc, _, storage) = reshard_plans_for_seed(seed, &base);
            assert_ne!(rc.from.num_shards, rc.to.num_shards, "seed {seed} must change layout");
            assert!((2..=4).contains(&rc.from.num_shards));
            assert!((1..=5).contains(&rc.to.num_shards));
            assert!((1..base.num_batches - 1).contains(&rc.reshard_at));
            assert!(!storage.faults.is_empty(), "seed {seed} must fault storage");
            froms.insert(rc.from.num_shards);
            if rc.to.num_shards > rc.from.num_shards {
                grew += 1;
            } else {
                shrank += 1;
            }
        }
        assert_eq!(froms.len(), 3, "old layouts must cover 2..=4 shards");
        assert!(grew > 0 && shrank > 0, "sweeps must both grow and shrink");
    }

    #[test]
    fn plan_derivation_is_total_over_run_lengths() {
        // `1 + draw % (n - 2)` used to divide by zero at two batches and
        // underflow below; the derivation clamps instead and the scenario
        // stays checkable (the CLI refuses such runs as meaningless)
        for num_batches in 0..=3u64 {
            let base = SimConfig { num_batches, ..SimConfig::default() };
            let oracle = sequential_prefix(&base);
            for seed in 0..8 {
                let (rc, plan, storage) = reshard_plans_for_seed(seed, &base);
                assert!(rc.reshard_at <= num_batches, "{num_batches} batches, seed {seed}");
                check_reshard(&rc, &plan, &storage, seed, &oracle)
                    .unwrap_or_else(|v| panic!("{num_batches} batches, seed {seed}: {v}"));
            }
        }
        let (rc, ..) =
            reshard_plans_for_seed(0, &SimConfig { num_batches: 3, ..SimConfig::default() });
        assert_eq!(rc.reshard_at, 1, "three batches have exactly one interior point");
    }
}
