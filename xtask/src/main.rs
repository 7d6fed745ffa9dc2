//! Repo automation entry point (`cargo xtask <cmd>`).
//!
//! Commands:
//!
//! * `lint` — the vendored crate drift check of [`hash`] plus the
//!   analyzer; exits nonzero on any drift or finding.
//! * `analyze` — the token-level workspace analyzer
//!   ([`xtask::analyze`]): zero-alloc reachability for `// CONTRACT:
//!   zero-alloc` fns, panic-path audit for `// CONTRACT: panic-free`
//!   loops, env-var registry drift against `docs/env-vars.md`, and the
//!   source conventions (SAFETY comments, crate-root unsafe attributes,
//!   lock unwraps, clock reads, `target_feature` contracts). Any finding
//!   fails. Writes `target/analyze/report.txt` (the CI artifact).
//! * `vendor-hash [--update]` — verify (or regenerate) the FNV-1a content
//!   manifest `vendor/MANIFEST.fnv1a`.
//! * `miri` — run the Miri-sized unsafe-surface test subset under Miri.
//!   Skips with exit 0 (and a loud message) when the nightly `miri`
//!   component is not installed — e.g. in offline containers; it never
//!   masks actual findings.
//! * `tsan` — run the pool stress harness and the serving tier's
//!   hand-off tests under ThreadSanitizer. Needs nightly + the `rust-src`
//!   component (`-Zbuild-std`); same skip-when-unavailable /
//!   fail-on-findings policy.
//! * `sim <scenario> (--seed N | --sweep COUNT) [flags]` — run the
//!   deterministic pipeline simulator (`crates/sim`). The scenario says
//!   what a seed means: `fault` (single-server faults), `crash` (process
//!   crashes, torn checkpoint writes, at-rest rot, recovery), `shard`
//!   (per-shard faults), `failover` (kill-the-primary schedules) or
//!   `netfault` (heartbeat loss, partitions) — the last two must
//!   complete byte-identical to the sequential oracle. `--sweep COUNT
//!   [--start S]` is CI's mode, `--seed N` replays one failing seed with
//!   full diagnostics; `--batches`, `--bound`, `--every`, `--retain`,
//!   `--shards` and `--replicas` set the run. Arguments pass through to the `sim`
//!   binary; see DESIGN.md §10–§11 and §14–§15.
//! * `ckpt [args...]` — checkpoint tooling: `verify <path>` fully checks
//!   one `.elck` file or a whole store directory (per file its sequence
//!   number, size, checksum and validity, then the file recovery would
//!   pick), `bench` measures checkpoint size and save/restore time.
//!   Arguments pass through to the `ckpt` binary; see DESIGN.md §11.
//!
//! The exact invocations these commands issue are documented in DESIGN.md
//! ("Safety & analysis architecture").

#![forbid(unsafe_code)]

use xtask::{analyze, hash};

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the repo root is the parent of the
    // manifest dir.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask must live one level below the repo root")
        .to_path_buf()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         lint                 vendor drift check + analyzer\n  \
         analyze              token-level workspace analysis (fails on any finding)\n  \
         vendor-hash [--update]  verify (or regenerate) vendor/MANIFEST.fnv1a\n  \
         miri                 run the Miri unsafe-surface subset (needs nightly miri)\n  \
         tsan                 run the pool stress + serve hand-off tests under TSan\n                       \
         (needs nightly + rust-src)\n  \
         sim <scenario> (--seed N | --sweep COUNT) [flags]\n                       \
         run the pipeline simulator; scenario is one of fault | crash |\n                       \
         shard | failover | netfault (`sim --help` lists flags)\n  \
         ckpt [args...]       checkpoint tooling (verify <file or store dir> | bench)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&root),
        Some("analyze") => cmd_analyze(&root),
        Some("vendor-hash") => cmd_vendor_hash(&root, args.iter().any(|a| a == "--update")),
        Some("miri") => cmd_miri(&root),
        Some("tsan") => cmd_tsan(&root),
        Some("sim") => cmd_sim(&root, &args[1..]),
        Some("ckpt") => cmd_ckpt(&root, &args[1..]),
        Some("help") | None => usage(),
        Some(other) => {
            eprintln!("error: unknown xtask command `{other}`\n");
            usage()
        }
    }
}

fn cmd_lint(root: &Path) -> ExitCode {
    let drift = hash::drift_violations(root);
    for v in &drift {
        eprintln!("{v}");
    }
    let analyze_ok = analyze::run(root).is_ok();
    if drift.is_empty() && analyze_ok {
        println!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    if !drift.is_empty() {
        eprintln!("xtask lint: {} vendor drift violation(s)", drift.len());
    }
    ExitCode::FAILURE
}

fn cmd_analyze(root: &Path) -> ExitCode {
    match analyze::run(root) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

fn cmd_vendor_hash(root: &Path, do_update: bool) -> ExitCode {
    if do_update {
        match hash::update(root) {
            Ok(n) => {
                println!("xtask vendor-hash: wrote {} ({n} files)", hash::MANIFEST);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask vendor-hash: writing {} failed: {e}", hash::MANIFEST);
                ExitCode::FAILURE
            }
        }
    } else {
        let violations = hash::drift_violations(root);
        if violations.is_empty() {
            println!("xtask vendor-hash: vendor/ matches {}", hash::MANIFEST);
            return ExitCode::SUCCESS;
        }
        for v in &violations {
            eprintln!("{v}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_sim(root: &Path, pass_through: &[String]) -> ExitCode {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args(["run", "--quiet", "--release", "-p", "el-sim", "--bin", "sim", "--"])
        .args(pass_through);
    match status_of(&mut cmd) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask sim: spawning cargo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ckpt(root: &Path, pass_through: &[String]) -> ExitCode {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args(["run", "--quiet", "--release", "-p", "el-pipeline", "--bin", "ckpt", "--"])
        .args(pass_through);
    match status_of(&mut cmd) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask ckpt: spawning cargo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis runners (miri / tsan)
// ---------------------------------------------------------------------------

/// Runs `cmd`, returns whether it exited successfully; `Err` if it could
/// not be spawned at all.
fn status_of(cmd: &mut Command) -> std::io::Result<bool> {
    cmd.status().map(|s| s.success())
}

/// True when `rustup run nightly <probe...>` exits 0 with output captured.
fn nightly_has(probe: &[&str]) -> bool {
    Command::new("rustup")
        .args(["run", "nightly"])
        .args(probe)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn skip(what: &str, how: &str) -> ExitCode {
    eprintln!(
        "xtask {what}: SKIPPED — {how}.\n\
         This is an environment limitation, not a pass: rerun where the \
         toolchain component is available (CI runs it on nightly)."
    );
    ExitCode::SUCCESS
}

fn cmd_miri(root: &Path) -> ExitCode {
    if !nightly_has(&["cargo", "miri", "--version"]) {
        return skip(
            "miri",
            "the nightly `miri` component is not installed \
             (`rustup component add miri --toolchain nightly`)",
        );
    }
    // Two pool configurations: RAYON_NUM_THREADS=1 keeps the pool
    // worker-free, so the caller-drains-queue protocol runs deterministically
    // and leak checking stays strict; a second pass with workers enabled
    // exercises cross-thread dispatch/latch ordering and needs
    // -Zmiri-ignore-leaks because pool workers are detached by design.
    let runs: &[(&str, &str, &[&str])] = &[
        (
            "pool protocol, caller-drain (RAYON_NUM_THREADS=1)",
            "1",
            &["test", "-p", "rayon", "--lib", "--tests"],
        ),
        (
            "pool protocol, 3 workers (leak check off: detached workers)",
            "3",
            &["test", "-p", "rayon", "--lib", "--tests"],
        ),
        (
            "tensor unsafe surface (portable kernel, miri-sized blocks)",
            "1",
            &["test", "-p", "el-tensor", "--lib", "micro::", "batched::"],
        ),
    ];
    for (what, threads, args) in runs {
        println!("xtask miri: {what}");
        let mut cmd = Command::new("rustup");
        cmd.args(["run", "nightly", "cargo", "miri"])
            .args(*args)
            .current_dir(root)
            .env("RAYON_NUM_THREADS", threads)
            .env("MIRIFLAGS", if *threads == "1" { "" } else { "-Zmiri-ignore-leaks" });
        match status_of(&mut cmd) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("xtask miri: FAILED during `{what}`");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask miri: could not spawn rustup: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("xtask miri: clean");
    ExitCode::SUCCESS
}

fn cmd_tsan(root: &Path) -> ExitCode {
    if !nightly_has(&["rustc", "--version"]) {
        return skip("tsan", "no nightly toolchain installed");
    }
    // -Zsanitizer=thread requires rebuilding std with the sanitizer
    // (-Zbuild-std), which needs the rust-src component.
    let src_installed = Command::new("rustup")
        .args(["component", "list", "--installed", "--toolchain", "nightly"])
        .output()
        .map(|o| o.status.success() && String::from_utf8_lossy(&o.stdout).contains("rust-src"))
        .unwrap_or(false);
    if !src_installed {
        return skip(
            "tsan",
            "the nightly `rust-src` component is not installed \
             (`rustup component add rust-src --toolchain nightly`)",
        );
    }
    let host = Command::new("rustc").args(["-vV"]).output().ok().and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
    });
    let Some(host) = host else {
        eprintln!("xtask tsan: could not determine the host target triple");
        return ExitCode::FAILURE;
    };
    // The rayon shim's queue/latch protocol, and the serving tier's
    // submit -> pending queue -> worker hand-off (one mutex + condvar, with
    // the budget counters and stats as atomics beside it).
    let runs: &[(&str, &[&str])] = &[
        ("pool stress harness (1/2/4/8-thread subprocesses)", &["-p", "rayon", "--test", "stress"]),
        ("serving-tier lock/condvar hand-off", &["-p", "el-serve", "--lib", "server::"]),
    ];
    for (what, args) in runs {
        println!("xtask tsan: {what} on {host}");
        let mut cmd = Command::new("rustup");
        cmd.args(["run", "nightly", "cargo", "test"])
            .args(["-Zbuild-std", "--target", &host])
            .args(*args)
            .current_dir(root)
            .env("RUSTFLAGS", "-Zsanitizer=thread")
            .env("CARGO_TARGET_DIR", root.join("target/tsan"))
            // TSan reports must fail the run, not just print.
            .env("TSAN_OPTIONS", "halt_on_error=1");
        match status_of(&mut cmd) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("xtask tsan: FAILED during `{what}` (test failure or data race report)");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask tsan: could not spawn rustup: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("xtask tsan: clean");
    ExitCode::SUCCESS
}
