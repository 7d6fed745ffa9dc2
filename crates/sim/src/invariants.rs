//! The staleness-protocol invariant checker.
//!
//! Four families of invariants, checked after (not during) a run so the
//! simulation itself stays an unjudged reproduction of events. Each is
//! stated per *member* `(shard, rank)` — a group member is its own stamp
//! domain — so the same checks cover the single server (`N = K = 1`) and
//! every sharded or replicated tier:
//!
//! 1. **exactly-once** — every member applied pushes exactly once, in
//!    sequence order, across promotion boundaries and with a catch-up
//!    rejoin resetting that member's domain to the group watermark, and a
//!    shard acknowledged only what its group applied, no matter how the
//!    links dropped, duplicated, delayed or reordered deliveries;
//! 2. **staleness bound** — every gather stamp equals the minimum of the
//!    per-shard stamps recorded for that batch, satisfies `batch_seq −
//!    applied_through ≤ staleness_bound`, and never regresses (lockstep
//!    promotion must not rewind training);
//! 3. **schedule independence** — every member's final sub-tables at its
//!    own `applied = k` are byte-identical to the sharded sequential
//!    oracle's prefix digest at `k` (valid even when faults left shards
//!    skewed or members dead), and when the shards agree on a watermark
//!    the merged tables equal the sequential oracle's ([`crate::oracle`]);
//! 4. **replay determinism** — the same `(config, plan, seed)` reproduces
//!    the same trace and the same final bytes.
//!
//! Whether a run *must finish* is not an invariant of the protocol but of
//! the scenario that derived its plan (a survivable kill schedule must, a
//! worker death cannot): [`crate::sweep`] demands it where it applies.

use crate::fault::FaultPlan;
use crate::oracle::Oracle;
use crate::sim::{run, Outcome, SimConfig, SimReport};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt;

/// A detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A member applied a push more than once (exactly-once broken).
    AppliedTwice {
        /// The member's shard.
        shard: u32,
        /// The member's rank.
        rank: u32,
        /// Re-applied batch.
        seq: u64,
    },
    /// A member's applies skipped or reordered sequence numbers —
    /// lockstep replication, or the in-order intake, broke.
    AppliedOutOfOrder {
        /// The member's shard.
        shard: u32,
        /// The member's rank.
        rank: u32,
        /// Batch that was applied.
        seq: u64,
        /// Batch that should have been next on that member.
        expected: u64,
    },
    /// The worker was acknowledged by a shard for a push that shard's
    /// group never applied.
    AckedWithoutApply {
        /// The acknowledging shard.
        shard: u32,
        /// Acknowledged batch.
        seq: u64,
    },
    /// A batch was gathered or trained with a stamp beyond the bound.
    StalenessExceeded {
        /// Batch sequence number.
        seq: u64,
        /// The stamp it carried.
        applied_through: u64,
        /// The configured bound.
        bound: u64,
    },
    /// `applied_through` regressed between successive gathers.
    StampRegressed {
        /// Batch whose stamp regressed.
        seq: u64,
        /// The regressed stamp.
        applied_through: u64,
        /// The previous (higher) stamp.
        prev: u64,
    },
    /// The global gather stamp does not equal the minimum of the
    /// per-shard stamps recorded for the same batch — the stitched
    /// staleness bound would be meaningless.
    StampMismatch {
        /// Batch whose stamp was stitched wrongly.
        seq: u64,
        /// The minimum of the recorded per-shard stamps.
        stitched: u64,
        /// The stamp the gather actually carried.
        stamped: u64,
    },
    /// A member's final sub-tables differ from the sharded sequential
    /// oracle at that member's applied count — a shard, a backup or a
    /// rejoiner is not byte-identical to what sequential training would
    /// have produced.
    MemberDiverged {
        /// The member's shard.
        shard: u32,
        /// The member's rank.
        rank: u32,
        /// Batches that member applied.
        applied: u64,
        /// Digest the member produced.
        got: u64,
        /// Digest the sharded oracle requires.
        want: u64,
    },
    /// The merged final tables differ from the sequential oracle at the
    /// same applied count — the pipeline computed something sequential
    /// training would not have.
    OracleMismatch {
        /// Applied batches at termination.
        applied: u64,
        /// Digest the run produced.
        got: u64,
        /// Digest the oracle requires.
        want: u64,
    },
    /// Two runs of the same `(config, plan, seed)` diverged.
    ReplayDiverged {
        /// The replayed schedule seed.
        seed: u64,
    },
    /// A shard is short of the schedule in a run that claimed completion,
    /// or whose scenario requires it (a survivable failover schedule that
    /// does not finish training defeats the point of replication).
    Incomplete {
        /// The lagging shard.
        shard: u32,
        /// Batches that shard's group applied.
        applied: u64,
        /// Batches scheduled.
        expected: u64,
    },
    /// The run exhausted its event budget — a livelock.
    OutOfBudget,
    /// A crash-recovered run failed to finish the schedule.
    RecoveryIncomplete {
        /// Batches applied when the recovered run ended.
        applied: u64,
        /// Batches scheduled.
        expected: u64,
    },
    /// A crash-recovered run finished with tables that differ from the
    /// sequential oracle — recovery lost or corrupted training state.
    RecoveryDiverged {
        /// Digest the recovered run produced.
        got: u64,
        /// Digest the oracle requires.
        want: u64,
    },
    /// The run or its check panicked; carries the panic message.
    Panicked(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::AppliedTwice { shard, rank, seq } => {
                write!(f, "shard {shard} rank {rank} applied push {seq} more than once")
            }
            Violation::AppliedOutOfOrder { shard, rank, seq, expected } => write!(
                f,
                "shard {shard} rank {rank} applied push {seq} while {expected} was next in order"
            ),
            Violation::AckedWithoutApply { shard, seq } => {
                write!(f, "shard {shard} acknowledged push {seq} but never applied it")
            }
            Violation::StalenessExceeded { seq, applied_through, bound } => write!(
                f,
                "batch {seq} stamped applied_through={applied_through}, \
                 staleness {} exceeds bound {bound}",
                seq - applied_through
            ),
            Violation::StampRegressed { seq, applied_through, prev } => write!(
                f,
                "batch {seq} stamped applied_through={applied_through} after a stamp of {prev}"
            ),
            Violation::StampMismatch { seq, stitched, stamped } => write!(
                f,
                "batch {seq} gathered with stamp {stamped} but the per-shard minimum is {stitched}"
            ),
            Violation::MemberDiverged { shard, rank, applied, got, want } => write!(
                f,
                "shard {shard} rank {rank}'s sub-tables at applied={applied} digest to \
                 {got:#018x}, sharded oracle requires {want:#018x}"
            ),
            Violation::OracleMismatch { applied, got, want } => write!(
                f,
                "merged tables at applied={applied} digest to {got:#018x}, \
                 sequential oracle requires {want:#018x}"
            ),
            Violation::ReplayDiverged { seed } => {
                write!(f, "replay of schedule seed {seed} diverged")
            }
            Violation::Incomplete { shard, applied, expected } => {
                write!(f, "shard {shard} ended at {applied}/{expected} batches applied")
            }
            Violation::OutOfBudget => write!(f, "event budget exhausted (livelock)"),
            Violation::RecoveryIncomplete { applied, expected } => {
                write!(f, "recovered run ended with {applied}/{expected} batches applied")
            }
            Violation::RecoveryDiverged { got, want } => write!(
                f,
                "recovered run's tables digest to {got:#018x}, \
                 sequential oracle requires {want:#018x}"
            ),
            Violation::Panicked(message) => write!(f, "check panicked: {message}"),
        }
    }
}

/// The violation a run short of its schedule amounts to, naming the
/// furthest-behind shard; `None` when every shard finished.
pub(crate) fn incomplete(report: &SimReport, cfg: &SimConfig) -> Option<Violation> {
    let (shard, &applied) = report.applied.iter().enumerate().min_by_key(|(_, &a)| a)?;
    (applied != cfg.num_batches).then_some(Violation::Incomplete {
        shard: shard as u32,
        applied,
        expected: cfg.num_batches,
    })
}

/// Checks the trace-level invariants (per-member exactly-once, no phantom
/// acks, the stitched staleness bound, stamp monotonicity, outcome
/// consistency) of one finished run.
pub fn check_trace(report: &SimReport, cfg: &SimConfig) -> Result<(), Violation> {
    if report.outcome == Outcome::OutOfBudget {
        return Err(Violation::OutOfBudget);
    }
    let num_shards = cfg.shard.num_shards.max(1) as usize;
    let mut next_apply = vec![vec![0u64; cfg.replicas.max(1) as usize]; num_shards];
    let mut last_stamp = 0u64;
    // per-shard stamps recorded for each gathered batch
    let mut stamps: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let stale = |seq: u64, applied_through: u64| {
        (seq - applied_through > cfg.staleness_bound).then_some(Violation::StalenessExceeded {
            seq,
            applied_through,
            bound: cfg.staleness_bound,
        })
    };
    for e in &report.trace.events {
        match *e {
            TraceEvent::Resumed { applied } => {
                next_apply.iter_mut().flatten().for_each(|slot| *slot = applied);
                last_stamp = applied;
            }
            TraceEvent::Applied { shard, rank, seq } => {
                let slot = &mut next_apply[shard as usize][rank as usize];
                if seq < *slot {
                    return Err(Violation::AppliedTwice { shard, rank, seq });
                }
                if seq > *slot {
                    return Err(Violation::AppliedOutOfOrder { shard, rank, seq, expected: *slot });
                }
                *slot += 1;
            }
            TraceEvent::CatchupInstalled { shard, rank, applied } => {
                // the rejoiner restored the group watermark wholesale;
                // its stamp domain resumes there
                next_apply[shard as usize][rank as usize] = applied;
            }
            TraceEvent::Acked { shard, seq } => {
                let group = next_apply[shard as usize].iter().max().copied().unwrap_or(0);
                if seq >= group {
                    return Err(Violation::AckedWithoutApply { shard, seq });
                }
            }
            TraceEvent::Stamped { seq, applied, .. } => {
                stamps.entry(seq).or_default().push(applied);
            }
            TraceEvent::Gathered { seq, applied_through } => {
                let stitched = stamps
                    .get(&seq)
                    .filter(|v| v.len() == num_shards)
                    .and_then(|v| v.iter().min().copied());
                if stitched != Some(applied_through) {
                    return Err(Violation::StampMismatch {
                        seq,
                        stitched: stitched.unwrap_or(u64::MAX),
                        stamped: applied_through,
                    });
                }
                if let Some(v) = stale(seq, applied_through) {
                    return Err(v);
                }
                if applied_through < last_stamp {
                    // lockstep replication guarantees a promoted backup
                    // is at the old primary's watermark: regression here
                    // means the tier rewound training
                    return Err(Violation::StampRegressed {
                        seq,
                        applied_through,
                        prev: last_stamp,
                    });
                }
                last_stamp = applied_through;
            }
            TraceEvent::PrefetchSynced { seq, applied_through } => {
                if let Some(v) = stale(seq, applied_through) {
                    return Err(v);
                }
            }
            _ => {}
        }
    }
    for (s, members) in report.members.iter().enumerate() {
        for (r, member) in members.iter().enumerate() {
            if next_apply[s][r] != member.applied {
                // the trace and the member disagree about progress
                return Err(Violation::AppliedOutOfOrder {
                    shard: s as u32,
                    rank: r as u32,
                    seq: member.applied,
                    expected: next_apply[s][r],
                });
            }
        }
    }
    match incomplete(report, cfg) {
        Some(v) if report.outcome == Outcome::Completed => Err(v),
        _ => Ok(()),
    }
}

/// Checks schedule independence per member and globally: every member
/// of every group — primaries, backups, catch-up rejoiners and the dead
/// alike — must digest to the sharded oracle's prefix at that member's
/// own applied count, and when the groups agree on a watermark the merged
/// tables must equal the sequential oracle at that prefix. Valid even for
/// runs a fault cut short.
pub fn check_against_oracle(report: &SimReport, oracle: &Oracle) -> Result<(), Violation> {
    for (s, members) in report.members.iter().enumerate() {
        for (r, m) in members.iter().enumerate() {
            let want = oracle.per_shard[s][m.applied as usize];
            if m.digest != want {
                return Err(Violation::MemberDiverged {
                    shard: s as u32,
                    rank: r as u32,
                    applied: m.applied,
                    got: m.digest,
                    want,
                });
            }
        }
    }
    let applied = report.min_applied();
    if report.applied.iter().all(|&a| a == applied) {
        let want = oracle.prefix_digests[applied as usize];
        if report.merged_digest != want {
            return Err(Violation::OracleMismatch { applied, got: report.merged_digest, want });
        }
    }
    Ok(())
}

/// Runs `(cfg, plan, seed)` twice, demands bit-identical traces and
/// bytes, then checks every trace- and oracle-level invariant on the
/// result. This is the full per-seed verdict the sweeps and the CLI use,
/// at every topology.
pub fn check_run(
    cfg: &SimConfig,
    plan: &FaultPlan,
    schedule_seed: u64,
    oracle: &Oracle,
) -> Result<SimReport, Violation> {
    let a = run(cfg, plan, schedule_seed);
    let b = run(cfg, plan, schedule_seed);
    if a.trace != b.trace
        || a.merged_digest != b.merged_digest
        || a.members != b.members
        || a.final_tick != b.final_tick
    {
        return Err(Violation::ReplayDiverged { seed: schedule_seed });
    }
    check_trace(&a, cfg)?;
    check_against_oracle(&a, oracle)?;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::oracle::sequential_prefix;

    fn at(shards: u32, replicas: u32) -> SimConfig {
        SimConfig::default().with_topology(shards, replicas)
    }

    /// The `(N, K)` cells every topology-independent claim is checked at.
    const TOPOLOGIES: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (3, 3)];

    #[test]
    fn every_topology_trains_the_sequential_bytes() {
        for (shards, replicas) in TOPOLOGIES {
            let cfg = at(shards, replicas);
            let cell = format!("{shards} x {replicas}");
            let oracle = sequential_prefix(&cfg);
            let want = oracle.prefix_digests[cfg.num_batches as usize];

            let clean = check_run(&cfg, &FaultPlan::none(), 1, &oracle)
                .unwrap_or_else(|v| panic!("{cell} fault-free: {v}"));
            assert_eq!(clean.outcome, Outcome::Completed, "{cell}");
            assert_eq!(clean.merged_digest, want, "{cell}");
            assert_eq!(
                clean.trace.count(|e| matches!(e, TraceEvent::Applied { .. })) as u64,
                cfg.num_batches * u64::from(shards * replicas),
                "{cell}: every member applies every batch exactly once"
            );
            assert!(!clean.trace.any(|e| matches!(e, TraceEvent::PushBounced { .. })), "{cell}");
            assert!(clean.promotions.iter().all(|&p| p == 0), "{cell}: no fault, no failover");
            assert!(clean.stale_hits > 0, "{cell}: pipelining must create staleness to correct");
            for members in &clean.members {
                assert_eq!(members.len(), replicas as usize, "{cell}");
                assert!(members.iter().all(|m| m.alive && *m == members[0]), "{cell}: lockstep");
            }

            // a seeded plan the topology must ride out: a kill schedule
            // where there are spares, else link faults that kill nothing
            // (sharded seed 7 derives a prefetch delay and a saturation
            // window whatever the shard count)
            let plan = if replicas > 1 {
                FaultPlan::from_seed_failover(3, cfg.num_batches, shards, replicas)
            } else {
                FaultPlan::from_seed_sharded(7, cfg.num_batches, shards)
            };
            assert!(plan.faults.len() >= 2, "{cell}: [{plan}]");
            let faulted = check_run(&cfg, &plan, 5, &oracle)
                .unwrap_or_else(|v| panic!("{cell} under [{plan}]: {v}"));
            assert_eq!(faulted.outcome, Outcome::Completed, "{cell} under [{plan}]");
            assert_eq!(faulted.merged_digest, want, "{cell} under [{plan}]");
        }
    }

    #[test]
    fn faulted_runs_still_match_the_oracle_prefix() {
        let plans = [
            (at(1, 1), vec![Fault::WorkerDeath { at_batch: 9 }]),
            (at(1, 1), vec![Fault::ShardDeath { shard: 0, after_applied: 4 }]),
            (at(1, 1), vec![Fault::Crash { after_applied: 6 }]),
            (
                at(1, 1),
                vec![
                    Fault::DropShardPush { shard: 0, seq: 1, delivery: 1 },
                    Fault::ShardSaturation { shard: 0, start: 20, ticks: 30 },
                ],
            ),
            (at(3, 3), vec![Fault::PrimaryDeath { shard: 0, after_applied: 6 }]),
            (at(3, 3), vec![Fault::WorkerDeath { at_batch: 5 }]),
        ];
        for (cfg, faults) in plans {
            let plan = FaultPlan::with(faults);
            let oracle = sequential_prefix(&cfg);
            let report = check_run(&cfg, &plan, 77, &oracle)
                .unwrap_or_else(|v| panic!("plan [{plan}] violated: {v}"));
            // partial progress still matches the sequential prefix exactly
            assert_eq!(
                report.merged_digest,
                oracle.prefix_digests[report.min_applied() as usize],
                "plan [{plan}]"
            );
            // whether an unfinished run is acceptable is the scenario's call
            assert_eq!(incomplete(&report, &cfg).is_none(), report.outcome == Outcome::Completed);
        }
    }

    /// One corruption of a finished run and the violation that must name
    /// it (given the last shard and rank).
    type Case = (&'static str, fn(&mut SimReport, &SimConfig), fn(&Violation, u32, u32) -> bool);

    /// The checker must have the power to catch each bug class — at the
    /// single server, where the per-tier checkers used to demonstrate it,
    /// and at 3 × 3, where the unified checker newly applies. Each case
    /// corrupts the *last* shard's *last* member of a fault-free run, but
    /// for the last, which claims completion of a run a worker death cut
    /// short.
    #[test]
    fn checker_catches_each_corruption_at_both_ends_of_the_matrix() {
        let cases: [Case; 8] = [
            (
                "double apply",
                |r, c| {
                    let (shard, rank) = (c.shard.num_shards - 1, c.replicas - 1);
                    r.trace.push(TraceEvent::Applied { shard, rank, seq: 3 });
                },
                |v, s, k| *v == Violation::AppliedTwice { shard: s, rank: k, seq: 3 },
            ),
            (
                "skipped apply",
                |r, c| {
                    let (shard, rank) = (c.shard.num_shards - 1, c.replicas - 1);
                    r.trace.push(TraceEvent::Applied { shard, rank, seq: c.num_batches + 1 });
                },
                |v, s, k| {
                    matches!(*v, Violation::AppliedOutOfOrder { shard, rank, .. }
                        if (shard, rank) == (s, k))
                },
            ),
            (
                "phantom ack",
                |r, c| {
                    let shard = c.shard.num_shards - 1;
                    r.trace.push(TraceEvent::Acked { shard, seq: c.num_batches });
                },
                |v, s, _| matches!(*v, Violation::AckedWithoutApply { shard, .. } if shard == s),
            ),
            (
                "stale stamp",
                |r, c| {
                    let (seq, stamp) = (c.num_batches, c.num_batches - c.staleness_bound - 1);
                    for shard in 0..c.shard.num_shards {
                        r.trace.push(TraceEvent::Stamped { shard, seq, applied: stamp });
                    }
                    r.trace.push(TraceEvent::Gathered { seq, applied_through: stamp });
                },
                |v, _, _| matches!(*v, Violation::StalenessExceeded { .. }),
            ),
            (
                "mis-stitched stamp",
                // a gather stamp with no per-shard stamps backing it
                // cannot be the minimum of anything
                |r, c| {
                    let seq = c.num_batches;
                    r.trace.push(TraceEvent::Gathered { seq, applied_through: seq });
                },
                |v, _, _| matches!(*v, Violation::StampMismatch { .. }),
            ),
            (
                "diverged member",
                |r, _| r.members.last_mut().unwrap().last_mut().unwrap().digest ^= 1,
                |v, s, k| {
                    matches!(*v, Violation::MemberDiverged { shard, rank, .. }
                        if (shard, rank) == (s, k))
                },
            ),
            (
                "corrupted merged tables",
                |r, _| r.merged_digest ^= 1,
                |v, _, _| matches!(*v, Violation::OracleMismatch { .. }),
            ),
            (
                "incomplete completion",
                |r, _| r.outcome = Outcome::Completed,
                |v, _, _| matches!(*v, Violation::Incomplete { applied: 5, .. }),
            ),
        ];
        for (shards, replicas) in [(1, 1), (3, 3)] {
            let cfg = at(shards, replicas);
            let oracle = sequential_prefix(&cfg);
            for (name, corrupt, names_it) in cases {
                let plan = match name {
                    "incomplete completion" => {
                        FaultPlan::with(vec![Fault::WorkerDeath { at_batch: 5 }])
                    }
                    _ => FaultPlan::none(),
                };
                let mut report = run(&cfg, &plan, 1);
                corrupt(&mut report, &cfg);
                let verdict = check_trace(&report, &cfg)
                    .and_then(|()| check_against_oracle(&report, &oracle));
                let violation = verdict.expect_err(name);
                assert!(
                    names_it(&violation, shards - 1, replicas - 1),
                    "{shards} x {replicas}, {name}: wrong violation `{violation}`"
                );
            }
        }
    }

    #[test]
    fn violations_render_for_humans() {
        let v = Violation::StalenessExceeded { seq: 9, applied_through: 1, bound: 6 };
        assert!(v.to_string().contains("staleness 8 exceeds bound 6"));
    }
}
