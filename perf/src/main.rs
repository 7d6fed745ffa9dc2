//! `perf` — one benchmark for the whole stack.
//!
//! ```text
//! perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perf --workload <name|all> --repeat N [--seed N] [--seconds S]   # median, quartiles, spread
//! perf --compare a.json b.json                                     # two --repeat documents
//! perf --smoke                                                     # all six, both modes, 1/50 size
//! perf --list
//! ```
//!
//! A run prints every metric by name with its unit on stderr and, as the
//! last line of stdout, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` reports the per-layer ledger from a separate traced run and
//! writes the spans next to the executable. See README.md.

mod layers;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Summary, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{RunArgs, Workload, WORKLOADS};

/// Run length the committed work rates are sized for (`run_seconds` in
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 10.0;

struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]\n\
         \x20      perf --compare a.json b.json | --smoke | --list",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workloads: Vec::new(), seed: 2022, seconds: RUN_SECONDS, trace: false, repeat: 0 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workloads = if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?]
                };
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat < 2 {
                    return Err("--repeat needs at least 2 runs".to_string());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("no --workload given".to_string());
    }
    Ok(cli)
}

/// Traces go next to the executable: inside the build directory, wherever
/// the caller put it, and never into the source tree.
fn trace_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perf-traces")))
        .unwrap_or_else(|| std::path::PathBuf::from("perf-traces"))
}

/// The commit of the checkout the benchmark runs in, when it is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

fn provenance_fields() -> Vec<(&'static str, String)> {
    let mut fields = layers::provenance();
    fields.push(("commit", git_commit()));
    fields
}

fn run_once(w: &Workload, cli: &Cli) -> bool {
    let args =
        RunArgs { seed: cli.seed, seconds: cli.seconds, trace: cli.trace, trace_dir: trace_dir() };
    let prov: Vec<String> = provenance_fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!(
        "{} seed={} seconds={} trace={} {}",
        w.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        prov.join(" ")
    );
    let t0 = std::time::Instant::now();
    let outcome = workloads::run(w, &args);
    eprint!("{}", report::render_table(&outcome));
    eprintln!(
        "  ops attempted {} failed {} correct {} ({:.1} s in all)",
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        t0.elapsed().as_secs_f64()
    );
    for note in &outcome.notes {
        eprintln!("  INCORRECT: {note}");
    }
    println!("{}", report::render_result(&outcome));
    outcome.correct
}

/// Re-executes this binary `repeat` times per workload, each run in a fresh
/// process with the next seed, and prints the `--repeat` document.
fn run_repeat(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut all_correct = true;
    let mut doc = Vec::new();
    for w in &cli.workloads {
        let mut summaries: Vec<Summary> = Vec::new();
        for r in 0..cli.repeat {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &(cli.seed + r as u64).to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            all_correct &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().ok_or("a run printed no result line")?;
            for (name, unit, value) in report::parse_result_metrics(line)? {
                match summaries.iter_mut().find(|s| s.name == name) {
                    Some(s) => s.values.push(value),
                    None => summaries.push(Summary { name, unit, values: vec![value] }),
                }
            }
        }
        for s in &summaries {
            eprintln!(
                "{:<18} {:<44} median {:>14.4} {:<8} spread {:.4}",
                w.name,
                s.name,
                s.median(),
                s.unit,
                s.spread()
            );
        }
        doc.push((w.name.to_string(), summaries));
    }
    print!("{}", report::render_repeat(&provenance_fields(), &doc));
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, all_within) = report::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(all_within)
}

fn run_smoke() -> bool {
    let t0 = std::time::Instant::now();
    let mut ok = true;
    for (name, trace, out) in workloads::smoke(RUN_SECONDS, &trace_dir()) {
        let good = out.correct && out.failed == 0;
        println!(
            "{name:<18} trace={} {} ({} ops)",
            u8::from(trace),
            if good { "ok" } else { "FAILED" },
            out.attempted
        );
        for note in &out.notes {
            println!("    {note}");
        }
        ok &= good;
    }
    println!("smoke: {:.1} s", t0.elapsed().as_secs_f64());
    ok
}

fn list() {
    for w in &WORKLOADS {
        println!("workload    {:<44} {}", w.name, w.why);
    }
    for d in &END_TO_END {
        println!(
            "end-to-end  {:<44} {:<8} {} is better, bound {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound
        );
    }
    for d in &PER_LAYER {
        println!("per-layer   {:<44} {:<8} {} is better", d.name, d.unit, d.better.as_str());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("--list") => {
            list();
            Ok(true)
        }
        Some("--smoke") => Ok(run_smoke()),
        Some("--compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        _ => parse(&args).and_then(|cli| {
            if cli.repeat > 0 {
                run_repeat(&cli)
            } else {
                // Every workload runs even after one came back incorrect.
                Ok(cli.workloads.iter().map(|w| run_once(w, &cli)).filter(|ok| !ok).count() == 0)
            }
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
