//! `cargo xtask analyze` — token-level workspace static analysis.
//!
//! Pipeline: [`lexer`] tokenizes each source file, [`parser`] builds a
//! per-file item model, [`model`] assembles the workspace (crate dep
//! graph + call-graph indexes), then the rule modules run:
//!
//! - [`alloc`] — `// CONTRACT: zero-alloc` reachability: annotated fns
//!   must not transitively reach a curated allocating-fn list.
//! - [`blocking`] — `// CONTRACT: non-blocking` reachability: fns the
//!   rayon pool runs as tasks must not transitively reach a thread-parking
//!   wait (`Condvar::wait*`, `Receiver::recv*`, `JoinHandle::join`).
//! - [`panics`] — `// CONTRACT: panic-free` audit: no `unwrap`/`expect`/
//!   `panic!`-family site reachable from annotated loops unless it carries
//!   an adjacent `// PANIC-OK: <reason>`.
//! - [`envreg`] — every literal `env::var("EL_…"/"RAYON_…")` read must be
//!   registered in `docs/env-vars.md`, and registry rows must not go stale.
//! - [`rules`] — the source conventions (SAFETY adjacency,
//!   `lock().unwrap()`, `Instant::now`, `target_feature` caller
//!   obligations, crate-root unsafe attributes), matched on tokens so
//!   strings/comments can neither trigger nor suppress them.
//!
//! Any finding fails the run; there is no baseline of tolerated ones.

pub mod alloc;
pub mod blocking;
pub mod envreg;
pub mod lexer;
pub mod model;
pub mod panics;
pub mod parser;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::Path;

/// One analysis finding. `rule`/`file`/`context`/`detail` identify it
/// independently of line numbers (the rules dedup on them);
/// `line`/`msg`/`chain` are for the human diagnostic only.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rule: String,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// Enclosing function (qualified) or other stable anchor; empty when
    /// the finding has no natural context.
    pub context: String,
    /// What was found (sink name, panic kind, env-var name, …) — stable
    /// across line moves.
    pub detail: String,
    pub line: u32,
    pub msg: String,
    /// Call chain for reachability rules (root first), pre-rendered.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)?;
        for step in &self.chain {
            write!(f, "\n    {step}")?;
        }
        Ok(())
    }
}

/// Outcome of a full analysis run.
pub struct Report {
    pub findings: Vec<Finding>,
    /// Counts per rule, for the summary line.
    pub fns_analyzed: usize,
    pub crates_analyzed: usize,
}

/// Runs every analysis over the repo at `root`.
pub fn run_analyses(root: &Path) -> Report {
    let ws = model::build_workspace(root);
    let mut findings = Vec::new();
    findings.extend(alloc::check(&ws));
    findings.extend(blocking::check(&ws));
    findings.extend(panics::check(&ws));
    findings.extend(envreg::check(root, &ws));
    findings.extend(rules::check(root));
    findings.sort();
    findings.dedup();
    let fns_analyzed = ws.all_fns().count();
    Report { findings, fns_analyzed, crates_analyzed: ws.crates.len() }
}

/// Full `cargo xtask analyze` entry point: run, write the report artifact,
/// print diagnostics. Returns `Err(count)` with the number of findings
/// when there are any: every finding fails the run, and waivers live in
/// the source (`// PANIC-OK:` comments, registry rows).
pub fn run(root: &Path) -> Result<(), usize> {
    let report = run_analyses(root);
    write_artifact(root, &report);

    for f in &report.findings {
        eprintln!("{f}");
    }
    println!(
        "analyze: {} crate(s), {} fn(s), {} finding(s)",
        report.crates_analyzed,
        report.fns_analyzed,
        report.findings.len()
    );
    if report.findings.is_empty() {
        Ok(())
    } else {
        eprintln!(
            "analyze: FAILED — fix the finding(s), or add `// PANIC-OK: <reason>` / registry rows where justified"
        );
        Err(report.findings.len())
    }
}

/// Writes `target/analyze/report.txt` (the CI artifact) with every
/// finding.
fn write_artifact(root: &Path, report: &Report) {
    let dir = root.join("target").join("analyze");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "analyze report: {} crate(s), {} fn(s), {} finding(s)\n\n",
        report.crates_analyzed,
        report.fns_analyzed,
        report.findings.len()
    ));
    for f in &report.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    let _ = fs::write(dir.join("report.txt"), out);
}
