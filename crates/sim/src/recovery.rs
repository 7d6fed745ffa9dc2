//! Crash → recover → resume scenarios, and the crash sweep CI runs.
//!
//! The scenario under test is the durability claim of DESIGN.md §11:
//! *crash the process at any point — including between any two steps of
//! the checkpoint store's atomic write protocol, or mid-write with a torn
//! file — recover from whatever survived, resume, and the final tables
//! are byte-identical to the sequential oracle.*
//!
//! [`run_with_recovery`] drives it in two phases:
//!
//! 1. a faulted session ([`crate::sim::run_session`]) checkpointing
//!    through a [`CkptStore`] over [`FaultyStorage`] — process crashes
//!    ([`crate::fault::Fault::Crash`]) and storage faults
//!    ([`StorageFaultPlan`]) both kill it;
//! 2. power loss ([`MemStorage::crash`][el_pipeline::ckpt::MemStorage::crash]),
//!    at-rest corruption of the newest durable checkpoint, then a
//!    post-crash scan ([`CkptStore::latest_valid_with`]) that resumes
//!    from the newest *valid* checkpoint — or restarts cold when nothing
//!    valid survived — and runs fault-free to completion.
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
use el_dlrm::embedding_bag::EmbeddingBag;
use el_pipeline::ckpt::{
    encode_frames, CkptError, CkptStore, HostedTableCheckpoint, Section, Storage,
};
use el_pipeline::replica::splitmix64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Payload format version of [`SimCheckpoint`]'s `meta` section.
pub const SIM_CKPT_FORMAT: u32 = 1;

/// The simulator's checkpoint payload: the applied-batch watermark and
/// the hosted tables, stored through the pipeline crate's [`CkptStore`]
/// in the same framed container as training checkpoints (a `meta`
/// section `verify_bytes` understands, plus a `tables` section).
#[derive(Clone, Debug)]
pub struct SimCheckpoint {
    /// Gradient batches applied when the checkpoint was taken.
    pub applied: u64,
    /// Which shard slot these tables belong to (0 for a checkpoint of the
    /// merged global tables).
    pub shard: u32,
    /// Total shards in the layout the checkpoint was taken under (1
    /// for a checkpoint of the merged global tables).
    pub num_shards: u32,
    /// Hosted tables as of the checkpoint.
    pub tables: Vec<(usize, EmbeddingBag)>,
}

/// The `meta` section, field-compatible with the pipeline store's
/// training-checkpoint meta so `ckpt verify` reports the cursor (extra
/// fields are ignored by that tolerant parse).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct SimMeta {
    format: u32,
    next_batch: u64,
    shard: u32,
    num_shards: u32,
}

impl SimCheckpoint {
    /// A checkpoint of the merged global tables: slot 0 of a 1-shard
    /// layout, whatever layout the running tier used.
    pub fn single(applied: u64, tables: Vec<(usize, EmbeddingBag)>) -> Self {
        Self { applied, shard: 0, num_shards: 1, tables }
    }

    /// Serializes into the framed container.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let meta = SimMeta {
            format: SIM_CKPT_FORMAT,
            next_batch: self.applied,
            shard: self.shard,
            num_shards: self.num_shards,
        };
        let tables: Vec<HostedTableCheckpoint> = self
            .tables
            .iter()
            .map(|(id, table)| HostedTableCheckpoint { id: *id, table: table.clone() })
            .collect();
        let sections = vec![
            Section {
                name: "meta".into(),
                payload: serde_json::to_vec(&meta).expect("serializing to a Vec cannot fail"),
            },
            Section {
                name: "tables".into(),
                payload: serde_json::to_vec(&tables).expect("serializing to a Vec cannot fail"),
            },
        ];
        encode_frames(&sections)
    }

    /// Decodes and fully verifies a framed container.
    pub fn from_framed_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let sections = el_pipeline::ckpt::decode_frames(bytes)?;
        let find = |name: &str| -> Result<&[u8], CkptError> {
            sections
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.payload.as_slice())
                .ok_or_else(|| CkptError::Corrupt(format!("missing `{name}` section")))
        };
        let meta: SimMeta = parse_json(find("meta")?, "meta")?;
        if meta.format == 0 || meta.format > SIM_CKPT_FORMAT {
            return Err(CkptError::Version { got: meta.format, supported: SIM_CKPT_FORMAT });
        }
        if meta.num_shards == 0 || meta.shard >= meta.num_shards {
            return Err(CkptError::Corrupt(format!(
                "impossible shard slot {}/{}",
                meta.shard, meta.num_shards
            )));
        }
        let tables: Vec<HostedTableCheckpoint> = parse_json(find("tables")?, "tables")?;
        Ok(Self {
            applied: meta.next_batch,
            shard: meta.shard,
            num_shards: meta.num_shards,
            tables: tables.into_iter().map(|h| (h.id, h.table)).collect(),
        })
    }
}

/// JSON-parses a section payload with a typed corruption error.
fn parse_json<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T, CkptError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CkptError::Corrupt(format!("`{what}` section not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| CkptError::Corrupt(format!("`{what}` section: {e}")))
}

/// A [`CkptStore`] is a sink: it frames the merged tables as a
/// [`SimCheckpoint`] and saves them through its atomic protocol.
impl<S: Storage> CkptSink for CkptStore<S> {
    fn save(&mut self, applied: u64, tables: &[(usize, EmbeddingBag)]) -> Result<(), CkptError> {
        let ckpt = SimCheckpoint::single(applied, tables.to_vec());
        self.save_bytes(&ckpt.to_framed_bytes()).map(|_| ())
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
    // Open the store before arming the plan: creation on an empty
    // MemStorage cannot fail, and the fault timeline starts at the
    // first checkpointed save.
    let storage = FaultyStorage::new(StorageFaultPlan::none());
    let mut store =
        CkptStore::open(storage.clone(), rc.retain).expect("opening an empty MemStorage store");
    storage.arm(storage_plan.clone());

    let phase1 = run_session(&rc.sim, plan, schedule_seed, None, Some((&mut store, rc.ckpt_every)));
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
    let (restored_from, resume) = match store.latest_valid_with(SimCheckpoint::from_framed_bytes) {
        Ok((name, ckpt)) => {
            (Some(name), ResumeState { applied: ckpt.applied, tables: ckpt.tables })
        }
        Err(_) => (None, ResumeState { applied: 0, tables: build_tables(&rc.sim) }),
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

/// The fault plans seed `seed` derives for the crash sweep: the regular
/// seeded plan, guaranteed to contain at least one
/// [`Fault::Crash`] (so every sweep seed actually exercises recovery),
/// plus a seeded storage-fault plan.
pub fn crash_plans_for_seed(seed: u64, num_batches: u64) -> (FaultPlan, StorageFaultPlan) {
    let mut plan = FaultPlan::from_seed(seed, num_batches);
    if plan.crash_after().is_none() {
        let n = num_batches.max(1);
        plan.faults
            .push(Fault::Crash { after_applied: splitmix64(seed ^ 0xC4A5_11C4_A511_C4A5) % n });
    }
    (plan, StorageFaultPlan::from_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sequential_prefix;
    use crate::storage::StorageFault;

    fn rc() -> RecoveryConfig {
        RecoveryConfig::default()
    }

    #[test]
    fn sim_checkpoint_round_trips() {
        let tables = build_tables(&SimConfig::default());
        for num_shards in [1u32, 2, 4] {
            for shard in 0..num_shards {
                let ckpt = SimCheckpoint { applied: 7, shard, num_shards, tables: tables.clone() };
                let bytes = ckpt.to_framed_bytes();
                let back = SimCheckpoint::from_framed_bytes(&bytes).unwrap();
                assert_eq!((back.applied, back.shard, back.num_shards), (7, shard, num_shards));
                assert_eq!(
                    crate::sim::digest_tables(&back.tables),
                    crate::sim::digest_tables(&tables),
                    "tables must survive byte-identically"
                );
                // the shared verifier understands the meta section
                let info = el_pipeline::ckpt::verify_bytes(&bytes).unwrap();
                assert_eq!(info.next_batch, 7);
            }
        }
        // an impossible slot on disk is corruption, not a resume target
        let bad = SimCheckpoint { applied: 7, shard: 9, num_shards: 4, tables };
        let bytes = bad.to_framed_bytes();
        assert!(matches!(SimCheckpoint::from_framed_bytes(&bytes), Err(CkptError::Corrupt(_))));
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
        // Crash late so several checkpoints exist; tear an op in the
        // second save's window so its temp write dies half-flushed.
        let plan = FaultPlan::with(vec![Fault::Crash { after_applied: 23 }]);
        for op in 0..40 {
            let sp = StorageFaultPlan::with(vec![StorageFault::TornWriteAtOp {
                op,
                keep_permille: 700,
            }]);
            let report = check_recovery(&rc, &plan, &sp, 11, &oracle)
                .unwrap_or_else(|v| panic!("torn op {op} violated: {v}"));
            assert!(report.phase2.is_some(), "torn op {op}: a death mid-save must force recovery");
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
        for op in 0..60 {
            let sp = StorageFaultPlan::with(vec![StorageFault::CrashAtOp { op }]);
            check_recovery(&rc, &plan, &sp, 13, &oracle)
                .unwrap_or_else(|v| panic!("crash at op {op} violated: {v}"));
        }
    }
}
