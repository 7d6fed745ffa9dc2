//! Scenarios and seed sweeps — the CI harness over the simulator.
//!
//! A [`Scenario`] says how a seed becomes fault plans, what is run and
//! checked, whether the run must finish, and what a clean seed adds to the
//! tallies. One harness serves all five: [`replay_seed`] gives the full
//! per-seed verdict (every run is replayed twice and checked against the
//! invariants and the sequential oracle), [`run_sweep`] folds a range of
//! seeds into a [`SweepSummary`], and the first violation stops the sweep
//! with a [`SweepFailure`] holding everything needed to reproduce it: the
//! seed, the derived plans, the violation and the exact `cargo xtask sim`
//! command line, including every flag the sweep ran with. A panic inside
//! a seed's check is caught at the seed and is that seed's violation.

use crate::fault::FaultPlan;
use crate::invariants::{check_run, incomplete, Violation};
use crate::oracle::{sequential_prefix, Oracle};
use crate::recovery::{check_recovery, crash_plans_for_seed, RecoveryConfig};
use crate::sim::{Outcome, SimConfig};
use crate::storage::StorageFaultPlan;
use crate::trace::TraceEvent;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a sweep seed means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Single-server fault domain ([`FaultPlan::from_seed`]): stalls,
    /// delays, worker/server death, saturation, dropped and duplicated
    /// pushes, unrecovered crashes.
    Fault,
    /// Crash → recover → resume through the checkpoint store under
    /// storage faults ([`crate::recovery`]).
    Crash,
    /// Per-shard fault domain ([`FaultPlan::from_seed_sharded`]):
    /// independent shard death and cross-shard delivery reordering.
    Shard,
    /// Kill-the-primary schedules ([`FaultPlan::from_seed_failover`]);
    /// every seed must finish training without a cold restart.
    Failover,
    /// Heartbeat-loss and partition windows
    /// ([`FaultPlan::from_seed_netfault`]); every seed must finish.
    Netfault,
}

/// What the run-based scenarios tally per clean seed.
const RUN_TALLIES: [&str; 8] = [
    "completed",
    "stalled by fatal faults",
    "faults injected",
    "primaries killed",
    "backups killed",
    "promotions",
    "catch-up rejoins",
    "stale rows corrected",
];

impl Scenario {
    /// Every scenario, in CLI help order.
    pub const ALL: [Scenario; 5] =
        [Scenario::Fault, Scenario::Crash, Scenario::Shard, Scenario::Failover, Scenario::Netfault];

    /// The scenario's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Fault => "fault",
            Scenario::Crash => "crash",
            Scenario::Shard => "shard",
            Scenario::Failover => "failover",
            Scenario::Netfault => "netfault",
        }
    }

    /// The scenario a CLI name denotes.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// What a bare `sim <scenario>` runs: the default universe at the
    /// topology this scenario's fault domain needs (one server; three
    /// shards; three shards of three replicas).
    pub fn default_config(self) -> RecoveryConfig {
        let (shards, replicas) = match self {
            Scenario::Fault | Scenario::Crash => (1, 1),
            Scenario::Shard => (3, 1),
            Scenario::Failover | Scenario::Netfault => (3, 3),
        };
        RecoveryConfig {
            sim: SimConfig::default().with_topology(shards, replicas),
            ..RecoveryConfig::default()
        }
    }

    /// Rejects configurations under which this scenario's seeds cannot
    /// mean what they promise (the harness itself never panics on them).
    pub fn validate(self, rc: &RecoveryConfig) -> Result<(), String> {
        match self {
            Scenario::Failover | Scenario::Netfault if rc.sim.replicas < 2 => Err(format!(
                "{} needs --replicas >= 2: failing over takes a backup to promote",
                self.name()
            )),
            _ => Ok(()),
        }
    }

    /// Whether a run that does not finish is itself a violation: the
    /// plans these scenarios derive are survivable by construction.
    fn requires_completion(self) -> bool {
        matches!(self, Scenario::Failover | Scenario::Netfault)
    }

    /// What this scenario's [`Verdict::tallies`] count, in order.
    pub fn tally_labels(self) -> &'static [&'static str] {
        match self {
            Scenario::Crash => &[
                "crashed",
                "resumed from checkpoint",
                "cold restarts",
                "checkpoints saved",
                "saves died mid-protocol",
                "storage faults injected",
            ],
            _ => &RUN_TALLIES,
        }
    }
}

/// What one clean seed did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The plans the seed derived, as a failure record prints them.
    pub plans: String,
    /// What happened, one line per phase.
    pub story: String,
    /// This seed's contribution to each of
    /// [`Scenario::tally_labels`].
    pub tallies: Vec<u64>,
}

/// The reproduction record of a failed seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepFailure {
    /// The scenario the seed belongs to.
    pub scenario: Scenario,
    /// The failing seed (derives the plans and the schedule).
    pub seed: u64,
    /// The configuration the seed ran under.
    pub config: RecoveryConfig,
    /// The plans that seed derived.
    pub plans: String,
    /// What went wrong.
    pub violation: Violation,
}

impl SweepFailure {
    /// The command line that replays exactly this seed: the scenario, the
    /// seed, and every flag whose value differs from the scenario's
    /// default — the seed alone does not determine the plan.
    pub fn recipe(&self) -> String {
        let (ran, default) = (&self.config, self.scenario.default_config());
        let mut cmd = format!("cargo xtask sim {} --seed {}", self.scenario.name(), self.seed);
        let flags = [
            ("--batches", ran.sim.num_batches, default.sim.num_batches),
            ("--bound", ran.sim.staleness_bound, default.sim.staleness_bound),
            ("--every", ran.ckpt_every, default.ckpt_every),
            ("--retain", ran.retain as u64, default.retain as u64),
            ("--shards", ran.sim.shard.num_shards.into(), default.sim.shard.num_shards.into()),
            ("--replicas", ran.sim.replicas.into(), default.sim.replicas.into()),
        ];
        for (flag, ran, default) in flags {
            if ran != default {
                cmd.push_str(&format!(" {flag} {ran}"));
            }
        }
        cmd
    }
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario: {}", self.scenario.name())?;
        writeln!(f, "seed: {}", self.seed)?;
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(f, "{}", self.plans)?;
        write!(f, "reproduce with: {}", self.recipe())
    }
}

/// Aggregate statistics of a clean sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSummary {
    /// The scenario swept.
    pub scenario: Scenario,
    /// Seeds swept.
    pub seeds: u64,
    /// Per-seed tallies summed, aligned with
    /// [`Scenario::tally_labels`].
    pub tallies: Vec<u64>,
}

impl SweepSummary {
    /// The summed tally with the given label (0 when the scenario does
    /// not count it).
    pub fn tally(&self, label: &str) -> u64 {
        let at = self.scenario.tally_labels().iter().position(|l| *l == label);
        at.map_or(0, |i| self.tallies[i])
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clean: {} seeds", self.seeds)?;
        for (i, (label, n)) in self.scenario.tally_labels().iter().zip(&self.tallies).enumerate() {
            write!(f, "{} {n} {label}", if i == 0 { ":" } else { "," })?;
        }
        Ok(())
    }
}

/// The fault plans one seed derives.
enum Plans {
    /// The crash scenario's process-fault and storage-fault plans.
    Crash(FaultPlan, StorageFaultPlan),
    /// Every other scenario's single fault plan.
    Run(FaultPlan),
}

impl Plans {
    fn of(scenario: Scenario, rc: &RecoveryConfig, seed: u64) -> Self {
        let cfg = &rc.sim;
        let (batches, shards) = (cfg.num_batches, cfg.shard.num_shards);
        match scenario {
            Scenario::Crash => {
                let (plan, storage) = crash_plans_for_seed(seed, rc);
                Plans::Crash(plan, storage)
            }
            Scenario::Shard => Plans::Run(FaultPlan::from_seed_sharded(seed, batches, shards)),
            Scenario::Failover => {
                Plans::Run(FaultPlan::from_seed_failover(seed, batches, shards, cfg.replicas))
            }
            Scenario::Netfault => Plans::Run(FaultPlan::from_seed_netfault(seed, batches, shards)),
            Scenario::Fault => Plans::Run(FaultPlan::from_seed(seed, batches)),
        }
    }
}

impl fmt::Display for Plans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plans::Crash(plan, storage) => {
                write!(f, "fault plan:\n{plan}\nstorage-fault plan:\n{storage}")
            }
            Plans::Run(plan) => write!(f, "fault plan:\n{plan}"),
        }
    }
}

/// Runs and checks `plans` under `scenario`, returning the story and the
/// tallies of a clean seed.
fn run_checks(
    scenario: Scenario,
    rc: &RecoveryConfig,
    seed: u64,
    plans: &Plans,
    oracle: &Oracle,
) -> Result<(String, Vec<u64>), Violation> {
    let cfg = &rc.sim;
    match plans {
        Plans::Crash(plan, storage) => check_recovery(rc, plan, storage, seed, oracle).map(|r| {
            let traced = |pred: fn(&TraceEvent) -> bool| r.phase1.trace.count(pred) as u64;
            let tallies = vec![
                u64::from(r.phase1.outcome == Outcome::Crashed),
                u64::from(r.phase2.is_some() && r.restored_from.is_some()),
                u64::from(r.phase2.is_some() && r.restored_from.is_none()),
                traced(|e| matches!(e, TraceEvent::CheckpointSaved { .. })),
                traced(|e| matches!(e, TraceEvent::CheckpointFailed { .. })),
                storage.faults.len() as u64,
            ];
            (r.to_string(), tallies)
        }),
        Plans::Run(plan) => check_run(cfg, plan, seed, oracle)
            .and_then(|r| match incomplete(&r, cfg) {
                Some(v) if scenario.requires_completion() => Err(v),
                _ => Ok(r),
            })
            .map(|r| {
                let traced = |pred: fn(&TraceEvent) -> bool| r.trace.count(pred) as u64;
                let completed = u64::from(r.outcome == Outcome::Completed);
                let tallies = vec![
                    completed,
                    // an unrecovered crash is just another fatal fault
                    // here; crash *recovery* is the crash scenario
                    1 - completed,
                    plan.faults.len() as u64,
                    traced(|e| matches!(e, TraceEvent::PrimaryDied { .. })),
                    traced(|e| matches!(e, TraceEvent::BackupDied { .. })),
                    r.promotions.iter().sum(),
                    traced(|e| matches!(e, TraceEvent::CatchupInstalled { .. })),
                    r.stale_hits,
                ];
                (r.to_string(), tallies)
            }),
    }
}

/// Derives seed `seed`'s plans for `scenario`, runs and checks them.
/// `oracle` is shared by every seed of a sweep: all seeds run in the same
/// model universe and differ only in faults and scheduling, which is
/// precisely the schedule-independence claim under test.
fn check_seed(
    scenario: Scenario,
    rc: &RecoveryConfig,
    seed: u64,
    oracle: &Oracle,
) -> Result<Verdict, Box<SweepFailure>> {
    judge(scenario, rc, seed, |text| {
        // a crash seed's plans take a run of their own to derive
        let plans = Plans::of(scenario, rc, seed);
        *text = plans.to_string();
        run_checks(scenario, rc, seed, &plans, oracle)
    })
}

/// Turns one seed's check into its verdict or its failure record. The
/// check, which writes the seed's plans into the text it is handed,
/// runs behind an unwind boundary: a panic inside it becomes
/// [`Violation::Panicked`], reported with the seed, its plans and the
/// recipe like any other violation, instead of aborting the sweep with
/// nothing but a backtrace.
fn judge(
    scenario: Scenario,
    rc: &RecoveryConfig,
    seed: u64,
    check: impl FnOnce(&mut String) -> Result<(String, Vec<u64>), Violation>,
) -> Result<Verdict, Box<SweepFailure>> {
    let mut plans = String::from("(the plans were not derived: deriving them panicked)");
    let checked = catch_unwind(AssertUnwindSafe(|| check(&mut plans))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a panic with a non-string payload".into());
        Err(Violation::Panicked(message))
    });
    match checked {
        Ok((story, tallies)) => Ok(Verdict { plans, story, tallies }),
        Err(violation) => {
            Err(Box::new(SweepFailure { scenario, seed, config: *rc, plans, violation }))
        }
    }
}

/// The full verdict on one seed of `scenario` under `rc`.
pub fn replay_seed(
    scenario: Scenario,
    rc: &RecoveryConfig,
    seed: u64,
) -> Result<Verdict, Box<SweepFailure>> {
    check_seed(scenario, rc, seed, &sequential_prefix(&rc.sim))
}

/// Sweeps seeds `start .. start + count` of `scenario`, stopping at the
/// first violation. The oracle is computed once for the whole sweep.
pub fn run_sweep(
    scenario: Scenario,
    rc: &RecoveryConfig,
    start: u64,
    count: u64,
) -> Result<SweepSummary, Box<SweepFailure>> {
    let oracle = sequential_prefix(&rc.sim);
    let mut summary =
        SweepSummary { scenario, seeds: 0, tallies: vec![0; scenario.tally_labels().len()] };
    for seed in start..start.saturating_add(count) {
        let verdict = check_seed(scenario, rc, seed, &oracle)?;
        summary.seeds += 1;
        for (sum, n) in summary.tallies.iter_mut().zip(verdict.tallies) {
            *sum += n;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_sweep_of_every_scenario_is_clean_and_diverse() {
        for scenario in Scenario::ALL {
            let rc = scenario.default_config();
            let s = run_sweep(scenario, &rc, 0, 30)
                .unwrap_or_else(|f| panic!("{} sweep failed:\n{f}", scenario.name()));
            assert_eq!(s.seeds, 30);
            let line = s.to_string();
            match scenario {
                Scenario::Fault | Scenario::Shard => {
                    assert_eq!(s.tally("completed") + s.tally("stalled by fatal faults"), 30);
                    assert!(s.tally("completed") > 0, "some seeds must complete: {line}");
                    assert!(s.tally("stalled by fatal faults") > 0, "some must die: {line}");
                    assert!(s.tally("primaries killed") > 0, "a server must die: {line}");
                    assert!(s.tally("faults injected") > 0 && s.tally("stale rows corrected") > 0);
                }
                Scenario::Crash => {
                    assert!(s.tally("crashed") > 0, "every seed injects a crash: {line}");
                    assert!(s.tally("resumed from checkpoint") > 0, "{line}");
                    assert!(s.tally("checkpoints saved") > 0, "{line}");
                    assert!(s.tally("storage faults injected") > 0, "{line}");
                }
                Scenario::Failover => {
                    assert_eq!(s.tally("completed"), 30, "every kill schedule must complete");
                    assert!(s.tally("primaries killed") >= 30, "every seed kills one: {line}");
                    assert!(s.tally("promotions") >= s.tally("primaries killed"), "{line}");
                }
                Scenario::Netfault => {
                    assert_eq!(s.tally("completed"), 30, "every window must be ridden out");
                    assert!(s.tally("promotions") > 0, "silence must trip suspicion: {line}");
                }
            }
        }
    }

    #[test]
    fn a_replayed_seed_tells_its_story() {
        let v = replay_seed(Scenario::Crash, &Scenario::Crash.default_config(), 17).unwrap();
        assert!(v.plans.contains("process crashes") && v.plans.contains("storage-fault plan:"));
        assert!(v.story.contains("phase 1") && v.story.contains("phase 2"), "{}", v.story);
        assert_eq!(v.tallies.len(), Scenario::Crash.tally_labels().len());
    }

    #[test]
    fn failures_print_the_plans_and_a_complete_recipe() {
        let scenario = Scenario::Failover;
        let mut config = scenario.default_config();
        config.sim = config.sim.with_topology(4, 2);
        let f = SweepFailure {
            scenario,
            seed: 509,
            config,
            plans: format!("fault plan:\n{}", FaultPlan::from_seed_failover(509, 24, 4, 2)),
            violation: Violation::OutOfBudget,
        };
        let text = f.to_string();
        assert!(text.contains("scenario: failover") && text.contains("seed: 509"));
        assert!(text.contains("fault plan:\n- "));
        // --shards used to be missing: the recipe derived a 3-shard plan
        assert!(text.ends_with("cargo xtask sim failover --seed 509 --shards 4 --replicas 2"));
        let bare = SweepFailure { config: scenario.default_config(), ..f };
        assert_eq!(bare.recipe(), "cargo xtask sim failover --seed 509");
    }

    #[test]
    fn a_panicking_check_becomes_a_failure_record() {
        let scenario = Scenario::Failover;
        let config = scenario.default_config();
        let plans = Plans::of(scenario, &config, 42).to_string();
        let f = judge(scenario, &config, 42, |text| {
            *text = plans.clone();
            panic!("catch-up lost row 3")
        })
        .expect_err("a panic is a failure");
        assert_eq!(f.violation, Violation::Panicked("catch-up lost row 3".into()));
        let text = f.to_string();
        assert!(text.contains("seed: 42") && text.contains(&plans), "{text}");
        assert!(text.contains("violation: check panicked: catch-up lost row 3"), "{text}");
        assert!(text.ends_with("reproduce with: cargo xtask sim failover --seed 42"), "{text}");
        // a panic while the plans are derived still names the seed and its recipe
        let f = judge(scenario, &config, 42, |_| panic!("dry run lost row 3"))
            .expect_err("a panic is a failure");
        let text = f.to_string();
        assert!(text.contains("seed: 42") && text.contains("plans were not derived"), "{text}");
        assert!(text.ends_with("reproduce with: cargo xtask sim failover --seed 42"), "{text}");
    }

    #[test]
    fn scenario_names_round_trip_and_defaults_are_valid() {
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::from_name(scenario.name()), Some(scenario));
            assert_eq!(scenario.validate(&scenario.default_config()), Ok(()));
        }
        assert_eq!(Scenario::from_name("sideways"), None);
    }
}
