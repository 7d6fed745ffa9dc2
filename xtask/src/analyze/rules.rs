//! The repo's source conventions, checked on the token stream.
//!
//! Every trigger is a token and every justification is a comment token,
//! so strings and comments can neither trigger nor suppress a rule (a
//! multi-line raw string holding Rust code is just a string):
//!
//! - `safety-comment` — the unsafe keyword at a code position needs an
//!   adjacent `// SAFETY:` comment (same line, or directly above across
//!   comment/attribute lines).
//! - `lock-unwrap` — `.lock()/.read()/.write()` immediately unwrapped in
//!   non-test library code.
//! - `instant-now` — `Instant::now()` in library crates outside
//!   `src/timing.rs`/`src/bin` needs an adjacent `// TIMING:` comment.
//! - `hash-order` — in non-test library code of the crates whose output
//!   is pinned ([`ORDER_PINNED_CRATES`]), a std `HashMap`/`HashSet`
//!   brought into a file (its `use`, an inline `collections::` path, or a
//!   glob import) needs an adjacent `// ORDER-FREE:` comment saying why no
//!   result depends on the collection's per-process iteration order.
//! - `target-feature-contract` — `#[target_feature]` fns must carry a
//!   `# Safety` doc heading that names the caller's obligation.
//! - `crate-attrs` — a compilation unit that uses the unsafe keyword
//!   carries `#![deny(unsafe_op_in_unsafe_fn)]` on its root, so every
//!   unsafe operation sits in an explicit, justified block; an unsafe-free
//!   `lib.rs`/`main.rs` root carries `#![forbid(unsafe_code)]`, so unsafe
//!   code can only come back through a reviewed attribute change.

use super::parser::{parse_file, ParsedFile};
use super::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Strips doc-comment decoration (`/`, `!`, `*`) and leading whitespace
/// from a comment token's text.
fn comment_body(text: &str) -> &str {
    text.trim_start().trim_start_matches(['/', '!', '*']).trim_start()
}

fn is_safety_comment(text: &str) -> bool {
    let b = comment_body(text);
    b.starts_with("SAFETY") || b.starts_with("# Safety")
}

fn is_timing_comment(text: &str) -> bool {
    comment_body(text).starts_with("TIMING")
}

fn is_order_free_comment(text: &str) -> bool {
    comment_body(text).starts_with("ORDER-FREE")
}

/// The crates (directory names under `crates/`) whose results are pinned
/// by trained-bytes hashes, sweep lines or the benchmark's inputs hash:
/// std's hash collections iterate in a per-process random order, so in
/// these crates each one needs an `// ORDER-FREE:` justification.
pub const ORDER_PINNED_CRATES: [&str; 6] = ["tensor", "core", "reorder", "dlrm", "pipeline", "sim"];

/// Adjacency walk shared by `safety-comment` and `instant-now`: justified
/// when `pred` holds for a comment on `line` itself, or on a comment-only
/// line walked up from it across contiguous comment/attribute lines. A
/// code line stops the walk — a trailing comment on someone else's
/// statement is not an adjacent justification.
fn justified(pf: &ParsedFile, line: u32, pred: impl Fn(&str) -> bool) -> bool {
    if pf.comment_lines.get(&line).is_some_and(|c| pred(c)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if pf.is_comment_only_line(l) {
            if pred(&pf.comment_lines[&l]) {
                return true;
            }
            continue;
        }
        if pf.attr_lines.contains(&l) {
            continue;
        }
        return false;
    }
    false
}

/// `safety-comment` over one parsed file.
pub fn safety_findings(pf: &ParsedFile) -> Vec<Finding> {
    let kw = ["un", "safe"].concat();
    pf.unsafe_lines
        .iter()
        .filter(|&&l| !justified(pf, l, |c| c.contains("SAFETY") || is_safety_comment(c)))
        .map(|&l| Finding {
            rule: "safety-comment".into(),
            file: pf.path.clone(),
            context: enclosing_fn(pf, l),
            detail: format!("{kw} keyword"),
            line: l,
            msg: format!("`{kw}` without an adjacent `// SAFETY:` justification"),
            chain: Vec::new(),
        })
        .collect()
}

/// `lock-unwrap` over one parsed file.
pub fn lock_findings(pf: &ParsedFile) -> Vec<Finding> {
    pf.locks
        .iter()
        .filter(|l| l.unwrapped && !l.in_test)
        .map(|l| Finding {
            rule: "lock-unwrap".into(),
            file: pf.path.clone(),
            context: enclosing_fn(pf, l.line),
            detail: format!(".{}().unwrap", l.method),
            line: l.line,
            msg: format!(
                "`.{}()` result unwrapped in library code; handle poisoning explicitly \
                 (e.g. `unwrap_or_else(PoisonError::into_inner)`)",
                l.method
            ),
            chain: Vec::new(),
        })
        .collect()
}

/// `instant-now` over one parsed file.
pub fn instant_findings(pf: &ParsedFile) -> Vec<Finding> {
    pf.instant_now
        .iter()
        .filter(|(l, in_test)| !in_test && !justified(pf, *l, is_timing_comment))
        .map(|(l, _)| Finding {
            rule: "instant-now".into(),
            file: pf.path.clone(),
            context: enclosing_fn(pf, *l),
            detail: "Instant::now".into(),
            line: *l,
            msg: "`Instant::now()` in library code; use the `timing` module, or justify \
                  with an adjacent `// TIMING:` comment"
                .into(),
            chain: Vec::new(),
        })
        .collect()
}

/// `hash-order` over one parsed file.
pub fn hash_order_findings(pf: &ParsedFile) -> Vec<Finding> {
    pf.hash_collections
        .iter()
        .filter(|(_, l, in_test)| !in_test && !justified(pf, *l, is_order_free_comment))
        .map(|(name, l, _)| Finding {
            rule: "hash-order".into(),
            file: pf.path.clone(),
            context: enclosing_fn(pf, *l),
            detail: format!("std {name}"),
            line: *l,
            msg: format!(
                "std `{name}` in a crate whose output is pinned: its iteration order changes \
                 from process to process; use a dense or ordered structure, or justify with \
                 an adjacent `// ORDER-FREE:` comment saying why no result depends on it"
            ),
            chain: Vec::new(),
        })
        .collect()
}

/// `target-feature-contract` over one parsed file: the fn's attached docs
/// must contain a `# Safety` heading and name the caller.
pub fn target_feature_findings(pf: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &pf.fns {
        if !f.has_target_feature() {
            continue;
        }
        let has_heading = f.docs.iter().any(|d| comment_body(d).starts_with("# Safety"));
        let names_caller = f.docs.iter().any(|d| d.to_ascii_lowercase().contains("caller"));
        if !(has_heading && names_caller) {
            out.push(Finding {
                rule: "target-feature-contract".into(),
                file: pf.path.clone(),
                context: f.qualified.clone(),
                detail: "missing caller obligation".into(),
                line: f.line,
                msg: "`#[target_feature]` function without a `# Safety` doc section \
                      naming the caller's obligation (the CPU-support precondition \
                      binds every call site)"
                    .into(),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// `crate-attrs` over one compilation unit, given its parsed root, whether
/// any file of the unit uses the unsafe keyword, and whether the root is a
/// `lib.rs`/`main.rs` (which must forbid unsafe code when free of it).
pub fn crate_attr_findings(
    root: &ParsedFile,
    uses_unsafe: bool,
    wants_forbid: bool,
) -> Vec<Finding> {
    let kw = ["un", "safe"].concat();
    let (deny, forbid) = (format!("deny({kw}_op_in_{kw}_fn)"), format!("forbid({kw}_code)"));
    let has = |attr: &str| root.inner_attrs.iter().any(|a| a == attr);
    let missing = |attr: &str, msg: String| Finding {
        rule: "crate-attrs".into(),
        file: root.path.clone(),
        context: String::new(),
        detail: format!("missing #![{attr}]"),
        line: 1,
        msg,
        chain: Vec::new(),
    };
    if uses_unsafe && !has(&deny) {
        vec![missing(&deny, format!("unit uses `{kw}` but its root lacks `#![{deny}]`"))]
    } else if !uses_unsafe && wants_forbid && !has(&forbid) {
        vec![missing(&forbid, format!("{kw}-free crate root lacks `#![{forbid}]`"))]
    } else {
        Vec::new()
    }
}

/// Finds the qualified name of the fn whose span covers `line` (for the
/// baseline key); empty when outside any fn.
fn enclosing_fn(pf: &ParsedFile, line: u32) -> String {
    pf.fns
        .iter()
        .filter(|f| f.line <= line && line <= f.end_line.max(f.line))
        .min_by_key(|f| f.end_line.max(f.line) - f.line)
        .map(|f| f.qualified.clone())
        .unwrap_or_default()
}

/// A compilation unit: one crate root plus every file compiled into it.
#[derive(Debug)]
struct Unit {
    /// The crate root file (`lib.rs`, `main.rs`, a test/bench/example/bin).
    root: PathBuf,
    /// All files of the unit, root included.
    files: Vec<PathBuf>,
    /// Whether an unsafe-free root must forbid unsafe code: true for
    /// `lib.rs`/`main.rs` roots, not for tests/benches/examples/bins.
    wants_forbid: bool,
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn files_in_dir_flat(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    let mut v: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "rs"))
        .collect();
    v.sort();
    v
}

/// Collects the compilation units of one cargo package directory.
fn package_units(pkg: &Path) -> Vec<Unit> {
    let mut units = Vec::new();
    let src = pkg.join("src");
    let lib = src.join("lib.rs");
    let main = src.join("main.rs");
    if lib.is_file() {
        let mut files = Vec::new();
        rs_files_under(&src, &mut files);
        files.retain(|p| *p != main && !p.starts_with(src.join("bin")));
        units.push(Unit { root: lib, files, wants_forbid: true });
    }
    if main.is_file() {
        units.push(Unit { root: main.clone(), files: vec![main], wants_forbid: true });
    }
    for root in files_in_dir_flat(&src.join("bin")) {
        units.push(Unit { root: root.clone(), files: vec![root], wants_forbid: false });
    }
    for dir in ["tests", "benches", "examples"] {
        for root in files_in_dir_flat(&pkg.join(dir)) {
            units.push(Unit { root: root.clone(), files: vec![root], wants_forbid: false });
        }
    }
    units
}

/// The repo's package directories: the root package, `xtask`, and every
/// package under `crates/` and `vendor/`.
fn package_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf(), root.join("xtask")];
    for parent in ["crates", "vendor"] {
        let Ok(entries) = fs::read_dir(root.join(parent)) else { continue };
        let mut v: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        v.sort();
        dirs.extend(v);
    }
    dirs
}

/// Runs the rules over every compilation unit in the repo: safety,
/// target-feature and crate-attrs everywhere, lock-unwrap in `src/`,
/// instant-now in `crates/*` lib sources outside `src/bin` and
/// `src/timing.rs`, hash-order in the lib sources of
/// [`ORDER_PINNED_CRATES`] outside `src/bin`.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
    for pkg in package_dirs(root) {
        let lib_crate = pkg.starts_with(root.join("crates"));
        let order_pinned = ORDER_PINNED_CRATES.iter().any(|c| pkg == root.join("crates").join(c));
        for unit in package_units(&pkg) {
            let in_src = unit.root.parent().is_some_and(|d| d.ends_with("src"))
                || unit.root.parent().is_some_and(|d| d.ends_with("bin"));
            let mut uses_unsafe = false;
            let mut root_pf = None;
            for f in &unit.files {
                let Ok(content) = fs::read_to_string(f) else { continue };
                let pf = parse_file(&rel(f), &content);
                out.extend(safety_findings(&pf));
                out.extend(target_feature_findings(&pf));
                if in_src {
                    out.extend(lock_findings(&pf));
                    let in_bin = f.starts_with(pkg.join("src").join("bin"));
                    if lib_crate && !in_bin && !f.ends_with("src/timing.rs") {
                        out.extend(instant_findings(&pf));
                    }
                    if order_pinned && !in_bin {
                        out.extend(hash_order_findings(&pf));
                    }
                }
                uses_unsafe |= !pf.unsafe_lines.is_empty();
                if *f == unit.root {
                    root_pf = Some(pf);
                }
            }
            let root_pf = root_pf.unwrap_or_else(|| parse_file(&rel(&unit.root), ""));
            out.extend(crate_attr_findings(&root_pf, uses_unsafe, unit.wants_forbid));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parser::parse_file;

    fn kw() -> String {
        ["un", "safe"].concat()
    }

    #[test]
    fn safety_string_cannot_suppress() {
        // The legacy rule accepted any raw-line "SAFETY" occurrence — even
        // inside a string literal on the same line. Token-level must not.
        let src = format!("pub fn f() {{ let s = \"SAFETY\"; {} {{ }} }}", kw());
        let pf = parse_file("a.rs", &src);
        let v = safety_findings(&pf);
        assert_eq!(v.len(), 1, "string must not justify: {v:?}");
    }

    #[test]
    fn safety_comment_same_line_or_above() {
        let above = format!("pub fn f() {{\n    // SAFETY: checked\n    {} {{ }}\n}}", kw());
        assert!(safety_findings(&parse_file("a.rs", &above)).is_empty());
        let trailing = format!("pub fn f() {{ {} {{ }} /* SAFETY: checked */ }}", kw());
        assert!(safety_findings(&parse_file("a.rs", &trailing)).is_empty());
        let blank_breaks = format!("pub fn f() {{\n    // SAFETY: stale\n\n    {} {{ }}\n}}", kw());
        assert_eq!(safety_findings(&parse_file("a.rs", &blank_breaks)).len(), 1);
        let parenthetical =
            format!("pub fn f() {{\n    // SAFETY (lifetime erasure): ok\n    {} {{ }}\n}}", kw());
        assert!(safety_findings(&parse_file("a.rs", &parenthetical)).is_empty());
        // Attributes between the comment and the construct are transparent.
        let attrs_between = format!(
            "/// docs\n/// # Safety\n/// caller checked\n#[inline]\npub {} fn f() {{}}\n",
            kw()
        );
        assert!(safety_findings(&parse_file("a.rs", &attrs_between)).is_empty());
    }

    #[test]
    fn unsafe_in_raw_string_is_not_code() {
        // The legacy scanner's documented blind spot: multi-line raw
        // strings containing Rust code.
        let src = format!("pub fn f() {{ let s = r#\"\n{} {{ }}\n\"#; drop(s); }}", kw());
        assert!(safety_findings(&parse_file("a.rs", &src)).is_empty());
    }

    #[test]
    fn lock_unwrap_token_rule() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap(); }";
        let v = lock_findings(&parse_file("a.rs", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].context, "f");
        let ok = "pub fn f(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }";
        assert!(lock_findings(&parse_file("a.rs", ok)).is_empty());
        let in_str = "pub fn f() { let s = \".lock().unwrap()\"; drop(s); }";
        assert!(lock_findings(&parse_file("a.rs", in_str)).is_empty());
        let read =
            "pub fn f(m: &std::sync::RwLock<u32>) { let _g = m.read().expect(\"poisoned\"); }";
        assert_eq!(lock_findings(&parse_file("a.rs", read)).len(), 1);
        // Tests may assert on poisoning.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap(); }\n}";
        assert!(lock_findings(&parse_file("a.rs", in_tests)).is_empty());
    }

    #[test]
    fn instant_now_token_rule() {
        let bad = "pub fn f() { let _t = Instant::now(); }";
        assert_eq!(instant_findings(&parse_file("a.rs", bad)).len(), 1);
        let good =
            "pub fn f() {\n    // TIMING: cold startup stamp\n    let _t = Instant::now();\n}";
        assert!(instant_findings(&parse_file("a.rs", good)).is_empty());
        let prose = "// mentions Instant::now() in prose\npub fn f() {}";
        assert!(instant_findings(&parse_file("a.rs", prose)).is_empty());
        let trailing = "pub fn f() { let _t = Instant::now(); // TIMING: cold start-up stamp\n}";
        assert!(instant_findings(&parse_file("a.rs", trailing)).is_empty());
        let blank_breaks = "pub fn f() {\n    // TIMING: stale\n\n    let _t = Instant::now();\n}";
        assert_eq!(instant_findings(&parse_file("a.rs", blank_breaks)).len(), 1);
    }

    #[test]
    fn hash_order_token_rule() {
        let bare =
            "use std::collections::HashMap;\npub fn f() -> HashMap<u8, u8> { HashMap::new() }";
        let v = hash_order_findings(&parse_file("a.rs", bare));
        assert_eq!(v.len(), 1, "one finding per entry point, not per mention: {v:?}");
        assert_eq!((v[0].detail.as_str(), v[0].line), ("std HashMap", 1));
        let justified =
            "// ORDER-FREE: lookups only, never iterated\nuse std::collections::HashMap;\n";
        assert!(hash_order_findings(&parse_file("a.rs", justified)).is_empty());
        let trailing = "use std::collections::HashSet; // ORDER-FREE: membership only\n";
        assert!(hash_order_findings(&parse_file("a.rs", trailing)).is_empty());
        let other_tag = "// TIMING: not a justification\nuse std::collections::HashSet;\n";
        assert_eq!(hash_order_findings(&parse_file("a.rs", other_tag)).len(), 1);
        let blank_breaks = "// ORDER-FREE: stale\n\nuse std::collections::HashMap;\n";
        assert_eq!(hash_order_findings(&parse_file("a.rs", blank_breaks)).len(), 1);
        // an inline path inside a function body is an entry point too
        let inline = "pub fn f(xs: &[u32]) -> usize {\n    let s: std::collections::HashSet<u32> = xs.iter().copied().collect();\n    s.len()\n}";
        let v = hash_order_findings(&parse_file("a.rs", inline));
        assert_eq!((v.len(), v[0].context.as_str()), (1, "f"));
        let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
        assert!(hash_order_findings(&parse_file("a.rs", in_tests)).is_empty());
        let ordered = "use std::collections::{BTreeMap, BTreeSet};\n";
        assert!(hash_order_findings(&parse_file("a.rs", ordered)).is_empty());
    }

    #[test]
    fn order_pinned_crates_exist() {
        // a renamed crate directory would silently drop out of the rule
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask sits in the repo");
        for name in ORDER_PINNED_CRATES {
            assert!(root.join("crates").join(name).join("src/lib.rs").is_file(), "{name}");
        }
    }

    #[test]
    fn target_feature_contract_token_rule() {
        let bare = format!("#[target_feature(enable = \"avx2\")]\npub {} fn k() {{}}", kw());
        let pf = parse_file("k.rs", &bare);
        let v = target_feature_findings(&pf);
        assert_eq!(v.len(), 1, "{:?}", pf.fns);
        // heading without naming the caller is still a violation
        let headed = format!(
            "/// # Safety\n/// avx2 must exist.\n#[target_feature(enable = \"avx2\")]\npub {} fn k() {{}}",
            kw()
        );
        assert_eq!(target_feature_findings(&parse_file("k.rs", &headed)).len(), 1);
        let good = format!(
            "/// # Safety\n/// The caller must verify AVX2 support first.\n#[target_feature(enable = \"avx2\")]\npub {} fn k() {{}}",
            kw()
        );
        assert!(target_feature_findings(&parse_file("k.rs", &good)).is_empty());
        // attribute text inside a string is not an attribute
        let quoted = "pub fn f() { let s = \"#[target_feature(enable)]\"; drop(s); }";
        assert!(target_feature_findings(&parse_file("k.rs", quoted)).is_empty());
    }

    #[test]
    fn crate_attrs_token_rule() {
        let deny = format!("#![deny({}_op_in_{}_fn)]\npub fn f() {{}}\n", kw(), kw());
        let forbid = format!("//! docs\n#![forbid({}_code)]\npub fn f() {{}}\n", kw());
        let bare = "pub fn f() {}\n";
        let check = |src: &str, uses_unsafe, wants_forbid| {
            crate_attr_findings(&parse_file("lib.rs", src), uses_unsafe, wants_forbid)
        };
        // The attribute names contain the keyword only as part of a word.
        assert!(parse_file("lib.rs", &deny).unsafe_lines.is_empty());
        // A unit that uses the keyword needs the deny attribute on its root.
        assert_eq!(
            check(bare, true, false)[0].detail,
            format!("missing #![deny({}_op_in_{}_fn)]", kw(), kw())
        );
        assert!(check(&deny, true, false).is_empty());
        assert_eq!(check(&forbid, true, true).len(), 1);
        // An unsafe-free lib/main root must forbid it; a test root need not.
        assert_eq!(
            check(bare, false, true)[0].detail,
            format!("missing #![forbid({}_code)]", kw())
        );
        assert!(check(&forbid, false, true).is_empty());
        assert!(check(bare, false, false).is_empty());
        // Text in a string is not an attribute.
        let quoted = format!("pub fn f() {{ let s = \"#![forbid({}_code)]\"; drop(s); }}\n", kw());
        assert_eq!(check(&quoted, false, true).len(), 1);
    }
}
