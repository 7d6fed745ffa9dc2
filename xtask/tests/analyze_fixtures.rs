//! End-to-end analyzer tests over the seeded-violation fixture
//! workspace in `tests/fixtures/`.
//!
//! Each test copies the pristine `base/` tree into a scratch directory
//! under `CARGO_TARGET_TMPDIR`, optionally replaces
//! `crates/fxcore/src/lib.rs` with one of the `overlays/` files (each
//! seeds exactly one violation), and drives the real
//! [`xtask::analyze::run`] entry point — the same code path as
//! `cargo xtask analyze` — asserting on its exit status and on the
//! `target/analyze/report.txt` artifact (file, span, call chain).

use std::fs;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// Fresh scratch copy of the clean fixture workspace.
fn scratch(name: &str) -> PathBuf {
    let dst = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyze-fixtures").join(name);
    let _ = fs::remove_dir_all(&dst);
    copy_tree(&fixtures().join("base"), &dst);
    dst
}

fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create scratch dir");
    for e in fs::read_dir(src).expect("read fixture dir") {
        let e = e.expect("fixture dir entry");
        let from = e.path();
        let to = dst.join(e.file_name());
        if from.is_dir() {
            copy_tree(&from, &to);
        } else {
            fs::copy(&from, &to).expect("copy fixture file");
        }
    }
}

/// Replaces `crates/fxcore/src/lib.rs` with an overlay; returns the
/// overlay source for line-number lookups.
fn seed(root: &Path, overlay: &str) -> String {
    let src = fs::read_to_string(fixtures().join("overlays").join(overlay)).expect("read overlay");
    fs::write(root.join("crates/fxcore/src/lib.rs"), &src).expect("seed violation");
    src
}

/// 1-based line of the first occurrence of `needle` in `src`.
fn line_of(src: &str, needle: &str) -> usize {
    let off = src.find(needle).unwrap_or_else(|| panic!("overlay lacks `{needle}`"));
    src[..off].matches('\n').count() + 1
}

fn report(root: &Path) -> String {
    fs::read_to_string(root.join("target/analyze/report.txt")).expect("report artifact")
}

#[test]
fn clean_base_tree_passes() {
    let root = scratch("clean");
    assert_eq!(xtask::analyze::run(&root), Ok(()));
    let rep = report(&root);
    assert!(rep.contains("0 finding(s)"), "{rep}");
}

#[test]
fn alloc_two_hops_fails_with_call_chain() {
    let root = scratch("alloc");
    let src = seed(&root, "alloc_two_hops.rs");
    let sink_line = line_of(&src, "with_capacity");
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("[zero-alloc]"), "{rep}");
    // span of the allocating call
    assert!(rep.contains(&format!("crates/fxcore/src/lib.rs:{sink_line}")), "{rep}");
    // full offending chain, root to sink
    for hop in ["hot", "mid", "deep", "with_capacity"] {
        assert!(rep.contains(hop), "missing chain hop `{hop}`:\n{rep}");
    }
}

#[test]
fn blocking_handoff_in_fork_fails_with_call_chain() {
    let root = scratch("blocking");
    let src = seed(&root, "blocking_handoff_in_fork.rs");
    let sink_line = line_of(&src, "self.built.wait(");
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("[non-blocking]"), "{rep}");
    assert!(rep.contains(&format!("crates/fxcore/src/lib.rs:{sink_line}")), "{rep}");
    // the hand-off is reached through a `take` that std's arity rules out
    for hop in ["table_forward", "analyze", "Prefetcher::take", ".wait()"] {
        assert!(rep.contains(hop), "missing chain hop `{hop}`:\n{rep}");
    }
    assert_eq!(rep.matches("[non-blocking]").count(), 1, "{rep}");
}

#[test]
fn panic_reachable_fails_across_crates() {
    let root = scratch("panic");
    let src = seed(&root, "panic_reachable.rs");
    let site_line = line_of(&src, ".unwrap()");
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("[panic-path]"), "{rep}");
    assert!(rep.contains(&format!("crates/fxcore/src/lib.rs:{site_line}")), "{rep}");
    // chain starts at the contract root in the *other* crate
    assert!(rep.contains("drive"), "{rep}");
    assert!(rep.contains("crates/fxpipe/src/lib.rs"), "{rep}");
    assert!(rep.contains("unwrap()"), "{rep}");
}

#[test]
fn unregistered_env_var_fails() {
    let root = scratch("env");
    seed(&root, "env_unregistered.rs");
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("[env-registry]"), "{rep}");
    assert!(rep.contains("EL_FIXTURE_UNREGISTERED"), "{rep}");
    assert!(rep.contains("docs/env-vars.md"), "{rep}");
}

#[test]
fn stale_registry_row_fails() {
    let root = scratch("env-stale");
    // registry row whose variable nobody reads
    let reg = root.join("docs/env-vars.md");
    let mut text = fs::read_to_string(&reg).unwrap();
    text.push_str("| `EL_FIXTURE_GHOST` | nowhere | A knob nobody reads. |\n");
    fs::write(&reg, text).unwrap();
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("EL_FIXTURE_GHOST"), "{rep}");
}

#[test]
fn unsafe_without_safety_comment_fails() {
    let root = scratch("unsafe");
    let src = seed(&root, "unsafe_no_safety.rs");
    let kw = ["un", "safe"].concat(); // keep this test file lint-clean
    let site_line = line_of(&src, &format!("{kw} {{"));
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("[safety-comment]"), "{rep}");
    assert!(rep.contains(&format!("crates/fxcore/src/lib.rs:{site_line}")), "{rep}");
}

#[test]
fn missing_crate_attrs_fail_the_run() {
    let kw = ["un", "safe"].concat();
    // An unsafe-free lib root without `forbid` (the test root under
    // `crates/fxcore/tests/` needs none, so the clean tree passes).
    let root = scratch("attrs-forbid");
    let p = root.join("crates/fxpipe/src/lib.rs");
    let src = fs::read_to_string(&p).unwrap();
    fs::write(&p, src.replace(&format!("#![forbid({kw}_code)]\n"), "")).unwrap();
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("crates/fxpipe/src/lib.rs:1: [crate-attrs]"), "{rep}");
    assert!(rep.contains(&format!("forbid({kw}_code)")), "{rep}");

    // A justified unsafe block in a unit whose root lacks `deny`.
    let root = scratch("attrs-deny");
    let src = seed(&root, "unsafe_no_safety.rs")
        .replace(&format!("#![deny({kw}_op_in_{kw}_fn)]\n"), "")
        .replace("// speed matters here", "// SAFETY: callers pass a non-empty slice");
    fs::write(root.join("crates/fxcore/src/lib.rs"), src).unwrap();
    assert!(xtask::analyze::run(&root).is_err());
    let rep = report(&root);
    assert!(rep.contains("crates/fxcore/src/lib.rs:1: [crate-attrs]"), "{rep}");
    assert!(!rep.contains("[safety-comment]"), "{rep}");
}
