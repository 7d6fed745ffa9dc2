//! CLI driver for the pipeline simulator (`cargo xtask sim`).
//!
//! `sim <scenario> (--seed N | --sweep COUNT) [flags]` — one positional
//! scenario (`fault`, `crash`, `shard`, `failover`, `netfault`; see
//! [`el_sim::Scenario`]) and one of two modes:
//!
//! * `--seed N` replays one seed with full diagnostics: the derived
//!   plans, what each phase did, and the verdict of every invariant. This
//!   is the reproduction path DESIGN.md §10 documents for failing seeds.
//! * `--sweep COUNT [--start S]` checks seeds `S .. S+COUNT` (CI runs
//!   this). On a violation the failure record — scenario, seed, plans,
//!   violation, reproduction command — is printed and written to
//!   `target/sim/<scenario>-failure-seed-N.txt` for artifact upload, and
//!   the process exits non-zero.

use el_sim::{replay_seed, run_sweep, RecoveryConfig, Scenario, SweepFailure};
use std::process::ExitCode;

/// What to do with the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Replay exactly this seed.
    Seed(u64),
    /// Sweep this many seeds from `start`.
    Sweep { count: u64, start: u64 },
}

/// Parsed command-line request.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Request {
    scenario: Scenario,
    mode: Mode,
    config: RecoveryConfig,
}

const USAGE: &str = "usage: sim <scenario> (--seed N | --sweep COUNT) [--start S] [--batches N]
           [--bound B] [--every E] [--retain R] [--shards N] [--replicas K]
scenarios:
  fault     single-server faults: stalls, delays, deaths, saturation, drops, duplicates
  crash     crash -> recover from the checkpoint store under storage faults -> resume
  shard     per-shard faults: shard death, cross-shard reordering (default 3 shards)
  failover  kill-the-primary schedules, completion required (default 3 shards x 3 replicas)
  netfault  heartbeat-loss and partition windows, completion required (default 3 x 3)
flags:
  --seed N      replay one seed with full diagnostics
  --sweep COUNT invariant-check COUNT seeds
  --start S     first seed of the sweep (default 0)
  --batches N   batches per simulated run (default 24)
  --bound B     staleness bound (default 6)
  --every E     checkpoint cadence in applied batches (crash, default 4)
  --retain R    checkpoints retained by the store (crash, default 2)
  --shards N    shards in the parameter tier
  --replicas K  members per shard's replica group";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Request, String> {
    let name = args.next().ok_or(USAGE)?;
    if name == "--help" {
        return Err(USAGE.to_string());
    }
    let scenario =
        Scenario::from_name(&name).ok_or_else(|| format!("unknown scenario `{name}`\n{USAGE}"))?;
    let mut config = scenario.default_config();
    let (mut seed, mut sweep, mut start) = (None, None, 0);
    while let Some(flag) = args.next() {
        let mut grab = || -> Result<u64, String> {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            value.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--seed" => seed = Some(grab()?),
            "--sweep" => sweep = Some(grab()?),
            "--start" => start = grab()?,
            "--batches" => config.sim.num_batches = grab()?,
            "--bound" => config.sim.staleness_bound = grab()?,
            "--every" => config.ckpt_every = grab()?.max(1),
            "--retain" => config.retain = grab()?.max(1) as usize,
            "--shards" => config.sim.shard.num_shards = grab()?.clamp(1, 64) as u32,
            "--replicas" => config.sim.replicas = grab()?.clamp(1, 16) as u32,
            "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let mode = match (seed, sweep) {
        (Some(seed), None) => Mode::Seed(seed),
        (None, Some(count)) => Mode::Sweep { count, start },
        _ => return Err(format!("exactly one of --seed and --sweep is required\n{USAGE}")),
    };
    scenario.validate(&config)?;
    Ok(Request { scenario, mode, config })
}

fn main() -> ExitCode {
    let Request { scenario, mode, config } = match parse_args(std::env::args().skip(1)) {
        Ok(request) => request,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (name, sim) = (scenario.name(), &config.sim);
    println!(
        "{name}: shards x replicas = {} x {}, {} batches, staleness bound {}, \
         checkpoint every {} retaining {}",
        sim.shard.num_shards,
        sim.replicas,
        sim.num_batches,
        sim.staleness_bound,
        config.ckpt_every,
        config.retain
    );
    let outcome = match mode {
        Mode::Seed(seed) => replay_seed(scenario, &config, seed).map(|verdict| {
            println!("seed {seed}\n{}\n{}", verdict.plans, verdict.story);
            println!("all invariants hold (exactly-once, staleness bound, replay, oracle)");
        }),
        Mode::Sweep { count, start } => {
            println!("sweeping {count} seeds from {start}");
            run_sweep(scenario, &config, start, count).map(|summary| println!("{summary}"))
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("INVARIANT VIOLATION\n{failure}");
            write_failure_record(&failure);
            ExitCode::FAILURE
        }
    }
}

/// Writes a failure record for CI artifact upload (best effort).
fn write_failure_record(failure: &SweepFailure) {
    let path = format!("target/sim/{}-failure-seed-{}.txt", failure.scenario.name(), failure.seed);
    if std::fs::create_dir_all("target/sim")
        .and_then(|()| std::fs::write(&path, format!("{failure}\n")))
        .is_ok()
    {
        eprintln!("failure record written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_sim::{SimConfig, Violation};

    fn parse(line: &str) -> Result<Request, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// CI's sweep invocations: the arguments of every `run: cargo xtask
    /// sim …` step in the workflow, read from the workflow itself.
    fn ci_sweeps() -> Vec<&'static str> {
        include_str!("../../../../.github/workflows/ci.yml")
            .lines()
            .filter_map(|line| line.trim().strip_prefix("run: cargo xtask sim "))
            .collect()
    }

    #[test]
    fn a_failure_recipe_reproduces_the_config_its_sweep_ran_with() {
        let sweeps = ci_sweeps();
        assert!(!sweeps.is_empty(), "the CI workflow must run at least one sweep");
        for line in sweeps {
            let swept = parse(line).unwrap_or_else(|e| panic!("`{line}` must parse: {e}"));
            let Mode::Sweep { start, .. } = swept.mode else { panic!("`{line}` is a sweep") };
            let failure = SweepFailure {
                scenario: swept.scenario,
                seed: start + 7,
                config: swept.config,
                plans: String::new(),
                violation: Violation::OutOfBudget,
            };
            let recipe = failure.recipe();
            let args = recipe.strip_prefix("cargo xtask sim ").expect("an xtask command line");
            let replayed = parse(args).unwrap_or_else(|e| panic!("`{recipe}` must parse: {e}"));
            assert_eq!(replayed.scenario, swept.scenario, "{recipe}");
            assert_eq!(replayed.mode, Mode::Seed(start + 7), "{recipe}");
            assert_eq!(replayed.config, swept.config, "`{line}` -> `{recipe}` lost a flag");
            assert!(failure.to_string().ends_with(&format!("reproduce with: {recipe}")));
        }
    }

    #[test]
    fn scenarios_default_to_the_topology_their_faults_need() {
        let topology = |line: &str| {
            let sim = parse(line).unwrap().config.sim;
            (sim.shard.num_shards, sim.replicas)
        };
        assert_eq!(topology("fault --seed 1"), (1, 1));
        assert_eq!(topology("crash --seed 1"), (1, 1));
        assert_eq!(topology("shard --seed 1"), (3, 1));
        assert_eq!(topology("failover --seed 1"), (3, 3));
        assert_eq!(topology("netfault --seed 1 --shards 2"), (2, 3));
        let defaults = parse("fault --seed 1").unwrap().config;
        assert_eq!(defaults.sim, SimConfig::default());
    }

    #[test]
    fn conflicting_or_meaningless_requests_are_usage_errors() {
        for line in [
            "",
            "--sweep 4",
            "sideways --seed 1",
            "fault",
            "fault --seed 1 --sweep 4",
            "fault --seed",
            "fault --seed banana",
            "fault --seed 1 --verbose",
            // a group of one has nobody to fail over to
            "failover --seed 0 --replicas 1",
            "netfault --sweep 4 --replicas 1",
        ] {
            assert!(parse(line).is_err(), "`{line}` must be rejected");
        }
        assert!(parse("failover --seed 0 --replicas 2").is_ok());
    }
}
