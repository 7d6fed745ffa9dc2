//! Crash → recover → resume scenarios, and the crash sweep CI runs.
//!
//! The scenario under test is the durability claim of DESIGN.md §11:
//! *crash the process at any point — including between any two steps of
//! the checkpoint store's atomic write protocol, or mid-write with a torn
//! file — recover from whatever survived, resume, and the final tables
//! are byte-identical to the sequential oracle.*
//!
//! The checkpoints are the trainer's own format: each save is a
//! model-less [`TrainingCheckpoint`] (the merged tables as its server,
//! `next_batch` the applied watermark) written by [`CkptStore::save`], and
//! recovery reads it back with [`CkptStore::latest_valid`] — the codec,
//! write protocol and recovery scan `train_with_checkpoints` and
//! `resume_from` use.
//!
//! [`run_with_recovery`] drives it in two phases:
//!
//! 1. a faulted session ([`crate::sim::run_session`]) checkpointing
//!    through a [`CkptStore`] over [`FaultyStorage`] — process crashes
//!    ([`crate::fault::Fault::Crash`]) and storage faults
//!    ([`StorageFaultPlan`]) both kill it;
//! 2. power loss ([`MemStorage::crash`][el_pipeline::ckpt::MemStorage::crash]),
//!    at-rest corruption of the newest durable checkpoint, then a
//!    post-crash scan ([`CkptStore::latest_valid`]) that resumes from the
//!    newest *valid* checkpoint — or restarts cold when nothing valid
//!    survived — and runs fault-free to completion.
//!
//! The invariant ([`check_recovery`]) is that phase 2 completes with a
//! table digest equal to the oracle's final digest, and that the whole
//! two-phase scenario replays bit-for-bit. Correctness rests on schedule
//! independence: a valid checkpoint at watermark `c` is byte-identical to
//! the oracle prefix at `c`, so resuming from it can only converge back
//! to the oracle.

use crate::fault::{Fault, FaultPlan};
use crate::invariants::Violation;
use crate::oracle::Oracle;
use crate::sim::{build_tables, run_session, CkptSink, Outcome, ResumeState, SimConfig, SimReport};
use crate::storage::{FaultyStorage, StorageFaultPlan};
use el_pipeline::ckpt::{CkptError, CkptStore, Storage, TrainingCheckpoint};
use el_pipeline::replica::splitmix64;
use std::fmt;
use std::sync::Arc;

/// A [`CkptStore`] is a sink: it saves each checkpoint through its atomic
/// protocol.
impl<S: Storage> CkptSink for CkptStore<S> {
    fn save(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CkptError> {
        CkptStore::save(self, ckpt).map(|_| ())
    }
}

/// Configuration of one crash-recovery scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// The simulated run.
    pub sim: SimConfig,
    /// Checkpoint cadence in applied batches.
    pub ckpt_every: u64,
    /// Checkpoints the store retains.
    pub retain: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { sim: SimConfig::default(), ckpt_every: 4, retain: 2 }
    }
}

/// What one crash-recovery scenario did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The faulted, checkpointing first phase.
    pub phase1: SimReport,
    /// The fault-free resumed second phase (`None` when phase 1 already
    /// completed and no recovery was needed).
    pub phase2: Option<SimReport>,
    /// Name of the checkpoint recovery resumed from (`None` = phase 1
    /// completed, or nothing valid survived and the restart was cold).
    pub restored_from: Option<String>,
    /// Applied-batch watermark the resumed session started at.
    pub resumed_applied: u64,
    /// Digest of the scenario's final tables.
    pub final_digest: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase 1 {}", self.phase1)?;
        let Some(phase2) = &self.phase2 else { return write!(f, "\nno recovery needed") };
        match &self.restored_from {
            Some(name) => write!(f, "\nrecovered from {name} (applied={})", self.resumed_applied)?,
            None => write!(f, "\nno valid checkpoint survived: cold restart")?,
        }
        write!(f, "\nphase 2 {phase2}")
    }
}

/// Runs one full crash-recovery scenario. Infallible by design: every
/// fault combination — including "no valid checkpoint survived" — has a
/// defined recovery (worst case a cold restart), so the only failures are
/// invariant violations, which [`check_recovery`] detects.
pub fn run_with_recovery(
    rc: &RecoveryConfig,
    plan: &FaultPlan,
    storage_plan: &StorageFaultPlan,
    schedule_seed: u64,
) -> RecoveryReport {
    let (storage, phase1) = run_phase1(rc, plan, storage_plan, schedule_seed);
    if phase1.outcome == Outcome::Completed {
        return RecoveryReport {
            resumed_applied: phase1.min_applied(),
            final_digest: phase1.merged_digest,
            phase1,
            phase2: None,
            restored_from: None,
        };
    }

    // Power loss: un-synced state vanishes, then at-rest rot sets in.
    storage.mem().crash();
    storage_plan.apply_at_rest(storage.mem());

    // Recovery scan on the surviving bytes (no injection: the new
    // process's storage is healthy).
    let store = CkptStore::open(Arc::clone(storage.mem()), rc.retain)
        .expect("reopening a MemStorage store");
    let (restored_from, resume) = match store.latest_valid() {
        Ok((name, TrainingCheckpoint { server: Some(server), .. })) => {
            (Some(name), ResumeState { applied: server.applied, tables: server.into_tables() })
        }
        _ => (None, ResumeState { applied: 0, tables: build_tables(&rc.sim) }),
    };
    let resumed_applied = resume.applied;

    // The restarted process draws a fresh schedule; determinism comes
    // from deriving it from the scenario seed.
    let phase2 = run_session(
        &rc.sim,
        &FaultPlan::none(),
        splitmix64(schedule_seed ^ 0x4EC0_4EC0_4EC0_4EC0),
        Some(resume),
        None,
    );
    RecoveryReport {
        final_digest: phase2.merged_digest,
        phase1,
        phase2: Some(phase2),
        restored_from,
        resumed_applied,
    }
}

/// Phase 1 of [`run_with_recovery`]: opens a store over fresh storage,
/// arms `storage_plan`, and runs the faulted session checkpointing
/// through the store. Returns the storage (whose
/// [`FaultyStorage::armed_ops`] are the session's storage operations) and
/// the session's report.
fn run_phase1(
    rc: &RecoveryConfig,
    plan: &FaultPlan,
    storage_plan: &StorageFaultPlan,
    schedule_seed: u64,
) -> (FaultyStorage, SimReport) {
    // Open the store before arming the plan: creation on an empty
    // MemStorage cannot fail, and the fault timeline starts at the
    // first checkpointed save.
    let storage = FaultyStorage::new(StorageFaultPlan::none());
    let mut store =
        CkptStore::open(storage.clone(), rc.retain).expect("opening an empty MemStorage store");
    storage.arm(storage_plan.clone());
    let report = run_session(&rc.sim, plan, schedule_seed, None, Some((&mut store, rc.ckpt_every)));
    (storage, report)
}

/// Runs a crash-recovery scenario twice, demands bit-identical outcomes,
/// and checks the durability invariant: the recovered run completes and
/// its final tables are byte-identical to the sequential oracle.
pub fn check_recovery(
    rc: &RecoveryConfig,
    plan: &FaultPlan,
    storage_plan: &StorageFaultPlan,
    schedule_seed: u64,
    oracle: &Oracle,
) -> Result<RecoveryReport, Violation> {
    let a = run_with_recovery(rc, plan, storage_plan, schedule_seed);
    let b = run_with_recovery(rc, plan, storage_plan, schedule_seed);
    if a.final_digest != b.final_digest
        || a.restored_from != b.restored_from
        || a.resumed_applied != b.resumed_applied
        || a.phase1.trace != b.phase1.trace
        || a.phase2.as_ref().map(|r| &r.trace) != b.phase2.as_ref().map(|r| &r.trace)
    {
        return Err(Violation::ReplayDiverged { seed: schedule_seed });
    }
    let last = a.phase2.as_ref().unwrap_or(&a.phase1);
    if last.outcome != Outcome::Completed {
        return Err(Violation::RecoveryIncomplete {
            applied: last.min_applied(),
            expected: rc.sim.num_batches,
        });
    }
    let want = oracle.prefix_digests[rc.sim.num_batches as usize];
    if a.final_digest != want {
        return Err(Violation::RecoveryDiverged { got: a.final_digest, want });
    }
    Ok(a)
}

/// The fault plans seed `seed` derives for the crash sweep under `rc`:
/// the regular seeded plan, guaranteed to contain at least one
/// [`Fault::Crash`] (so every sweep seed actually exercises recovery),
/// plus a seeded storage-fault plan whose operation indices fall on the
/// storage operations this seed's phase 1 performs, counted by one
/// storage-fault-free run of it.
pub fn crash_plans_for_seed(seed: u64, rc: &RecoveryConfig) -> (FaultPlan, StorageFaultPlan) {
    let num_batches = rc.sim.num_batches;
    let mut plan = FaultPlan::from_seed(seed, num_batches);
    if plan.crash_after().is_none() {
        let n = num_batches.max(1);
        plan.faults
            .push(Fault::Crash { after_applied: splitmix64(seed ^ 0xC4A5_11C4_A511_C4A5) % n });
    }
    let (dry_run, _) = run_phase1(rc, &plan, &StorageFaultPlan::none(), seed);
    (plan, StorageFaultPlan::from_seed(seed, &dry_run.armed_ops()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sequential_prefix;
    use crate::storage::StorageFault;
    use crate::trace::TraceEvent;
    use el_pipeline::ckpt::{verify_bytes, MemStorage, ServerCheckpoint};

    fn rc() -> RecoveryConfig {
        RecoveryConfig::default()
    }

    #[test]
    fn tier_checkpoints_round_trip_byte_identically() {
        // What the sink saves is what recovery reads back: a model-less
        // checkpoint whose tables survive bit-for-bit, which re-frames to
        // the same bytes and which the shared verifier accepts.
        let cfg = SimConfig::default();
        let tables = build_tables(&cfg);
        let ckpt = TrainingCheckpoint {
            model: None,
            server: Some(ServerCheckpoint::of_tables(tables.clone(), cfg.lr, 7)),
            next_batch: 7,
        };
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        CkptSink::save(&mut store, &ckpt).unwrap();
        let (name, back) = store.latest_valid().unwrap();
        assert_eq!(back.to_framed_bytes(), ckpt.to_framed_bytes());
        let info = verify_bytes(&storage.read_file(&name).unwrap()).unwrap();
        assert_eq!((info.next_batch, info.server_tables), (7, tables.len()));
        assert!(info.sections.iter().all(|(section, _)| section != "model"));
        let server = back.server.expect("the tables");
        assert_eq!((server.applied, server.lr), (7, cfg.lr));
        assert_eq!(
            crate::sim::digest_tables(&server.into_tables()),
            crate::sim::digest_tables(&tables),
            "tables must survive byte-identically"
        );
    }

    #[test]
    fn crash_then_recover_matches_the_oracle() {
        let rc = rc();
        let oracle = sequential_prefix(&rc.sim);
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 13 }]);
        let report = check_recovery(&rc, &plan, &StorageFaultPlan::none(), 3, &oracle)
            .unwrap_or_else(|v| panic!("violated: {v}"));
        assert_eq!(report.phase1.outcome, Outcome::Crashed);
        assert_eq!(report.resumed_applied, 12, "newest cadence-4 checkpoint before 13");
        assert!(report.restored_from.is_some());
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_cold() {
        let rc = rc();
        let oracle = sequential_prefix(&rc.sim);
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 2 }]);
        let report = check_recovery(&rc, &plan, &StorageFaultPlan::none(), 5, &oracle)
            .unwrap_or_else(|v| panic!("violated: {v}"));
        assert_eq!(report.restored_from, None, "no checkpoint at cadence 4 before applied=2");
        assert_eq!(report.resumed_applied, 0);
    }

    #[test]
    fn torn_checkpoint_write_falls_back_to_previous() {
        let rc = rc();
        let oracle = sequential_prefix(&rc.sim);
        // Crash late so several checkpoints exist; tear each save's temp
        // write so it dies half-flushed.
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 23 }]);
        let writes = run_phase1(&rc, &plan, &StorageFaultPlan::none(), 11).0.armed_ops().writes;
        assert_eq!(writes.len(), 5, "saves at applied 4, 8, .., 20");
        for (save, &op) in writes.iter().enumerate() {
            let sp = StorageFaultPlan::with(vec![StorageFault::TornWriteAtOp {
                op,
                keep_permille: 700,
            }]);
            let report = check_recovery(&rc, &plan, &sp, 11, &oracle)
                .unwrap_or_else(|v| panic!("torn op {op} violated: {v}"));
            assert_eq!(
                report.resumed_applied,
                4 * save as u64,
                "torn save {save} must fall back to the save before it"
            );
        }
    }

    #[test]
    fn at_rest_rot_is_detected_and_routed_around() {
        let rc = rc();
        let oracle = sequential_prefix(&rc.sim);
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 17 }]);
        for sp in [
            StorageFaultPlan::with(vec![StorageFault::BitFlipAtRest { pos_seed: 99 }]),
            StorageFaultPlan::with(vec![StorageFault::TruncateAtRest { keep_permille: 400 }]),
        ] {
            let report = check_recovery(&rc, &plan, &sp, 21, &oracle)
                .unwrap_or_else(|v| panic!("plan [{sp}] violated: {v}"));
            // the newest checkpoint (applied=16) rotted; recovery must
            // land on the retained previous one (applied=12) instead
            assert_eq!(
                report.resumed_applied, 12,
                "plan [{sp}]: rot in the newest checkpoint must fall back"
            );
        }
    }

    #[test]
    fn crash_at_every_protocol_step_recovers() {
        let rc = rc();
        let oracle = sequential_prefix(&rc.sim);
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 23 }]);
        let ops = run_phase1(&rc, &plan, &StorageFaultPlan::none(), 13).0.armed_ops();
        // saves at applied 4, 8, .., 20: four write steps and a list each,
        // plus a removal and a directory sync once past retention
        assert_eq!(ops.range, 1..32, "the storage operations phase 1 performs");
        assert_eq!(ops.writes, [1, 6, 11, 18, 25], "one write per save");
        for op in ops.range {
            let sp = StorageFaultPlan::with(vec![StorageFault::CrashAtOp { op }]);
            let report = check_recovery(&rc, &plan, &sp, 13, &oracle)
                .unwrap_or_else(|v| panic!("crash at op {op} violated: {v}"));
            // every operation belongs to a save, so the death fails it
            let failed =
                report.phase1.trace.count(|e| matches!(e, TraceEvent::CheckpointFailed { .. }));
            assert_eq!(failed, 1, "crash at op {op} must kill a save");
        }
    }
}
