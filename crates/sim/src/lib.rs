//! # el-sim — deterministic pipeline simulator with seeded fault injection
//!
//! The pipelined parameter server (`el-pipeline`, paper §V) is tested
//! end-to-end by real threads, which can only witness the interleavings
//! the OS scheduler happens to produce. This crate removes the scheduler:
//! a virtual clock and a seeded discrete-event queue ([`clock`]) drive
//! the hosted-table protocol the threaded trainer runs — the router's
//! fan-out and stitch halves, the shard-side `HostServer::serve_rows`,
//! the `ReplicaGroup` every shard is, the worker's `WorkerCache` stages —
//! through arbitrary interleavings, at any topology of `N` shards × `K`
//! replicas, while a seeded [`fault::FaultPlan`] injects worker stalls
//! and deaths, member, shard and process death, prefetch delays, intake
//! saturation, dropped, duplicated and delayed gradient deliveries,
//! heartbeat loss and partitions.
//!
//! Every run is a pure function of `(SimConfig, FaultPlan, seed)` — no
//! threads, no wall clock — so a failing seed from a CI sweep replays
//! bit-for-bit on any machine (`cargo xtask sim <scenario> --seed N`).
//!
//! * [`clock`] — virtual time, deterministic event scheduling, the
//!   heartbeat schedule and the failure detector,
//! * [`fault`] — the fault model and the seeded plan derivations,
//! * [`trace`] — the observable protocol history of a run,
//! * [`sim`] — the simulation itself: one event loop over `(N, K)` —
//!   hosts behind the shard router, each shard the trainer's own
//!   `ReplicaGroup` (lockstep apply, promotion, fencing, catch-up),
//!   heartbeat failure detection, the worker, the unreliable links,
//!   resumable checkpointing sessions,
//! * [`oracle`] — the sequential reference: one pass, per-batch prefix
//!   digests globally and per shard,
//! * [`invariants`] — per-member exactly-once / stitched staleness bound
//!   / schedule-independence / replay-determinism checking,
//! * [`storage`] — fault-injecting checkpoint storage (crashes between
//!   atomic-protocol steps, torn writes, at-rest rot),
//! * [`recovery`] — the crash → recover → resume scenario (checkpoint
//!   durability, DESIGN.md §11) over the trainer's own checkpoint format
//!   and store: each save is a model-less `TrainingCheckpoint`,
//! * [`sweep`] — the five scenarios (`fault`, `crash`, `shard`,
//!   `failover`, `netfault`) and the one seed-sweep harness CI runs them
//!   through; a panic inside a seed's check is reported as that seed's
//!   violation.
//!
//! See DESIGN.md §10 for the fault model and the invariant statements.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod fault;
pub mod invariants;
pub mod oracle;
pub mod recovery;
pub mod sim;
pub mod storage;
pub mod sweep;
pub mod trace;

#[cfg(test)]
mod proptests;

pub use fault::{Fault, FaultPlan};
pub use invariants::{check_against_oracle, check_run, check_trace, Violation};
pub use oracle::{sequential_prefix, Oracle};
pub use recovery::{
    check_recovery, crash_plans_for_seed, run_with_recovery, RecoveryConfig, RecoveryReport,
};
pub use sim::{
    digest_tables, run, run_session, CkptSink, MemberState, Outcome, ResumeState, SimConfig,
    SimReport,
};
pub use storage::{FaultyStorage, StorageFault, StorageFaultPlan};
pub use sweep::{replay_seed, run_sweep, Scenario, SweepFailure, SweepSummary, Verdict};
pub use trace::{Trace, TraceEvent};
