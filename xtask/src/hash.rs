//! Vendored-crate drift check.
//!
//! `vendor/` holds frozen API-compatible stand-ins (see `vendor/README.md`);
//! edits there must be deliberate and reviewed as such. This module keeps a
//! content-hash manifest at `vendor/MANIFEST.fnv1a` — one sorted line per
//! file, `{fnv1a64:016x}  {repo-relative path}` — and reports any file
//! whose hash differs, is missing, or is new.
//!
//! FNV-1a is not cryptographic; the manifest defends against *accidental*
//! drift (a stray edit riding along in a big diff), not adversaries — an
//! adversary could just regenerate the manifest anyway.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One drift finding, pointing at a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative file the finding is about.
    pub file: PathBuf,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// Short rule identifier (stable, greppable).
    pub rule: &'static str,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.msg)
    }
}

pub const MANIFEST: &str = "vendor/MANIFEST.fnv1a";

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // Skip build artifacts should any ever appear under vendor/.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&p, out);
        } else if p.is_file() {
            out.push(p);
        }
    }
}

/// Hashes every file under `vendor/` (except the manifest itself), keyed by
/// repo-relative path with `/` separators.
pub fn current_hashes(root: &Path) -> BTreeMap<String, u64> {
    let mut files = Vec::new();
    walk(&root.join("vendor"), &mut files);
    let mut map = BTreeMap::new();
    for p in files {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel == MANIFEST {
            continue;
        }
        if let Ok(bytes) = std::fs::read(&p) {
            map.insert(rel, fnv1a64(&bytes));
        }
    }
    map
}

fn parse_manifest(content: &str) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((hash, path)) = line.split_once("  ") {
            if let Ok(h) = u64::from_str_radix(hash, 16) {
                map.insert(path.to_string(), h);
            }
        }
    }
    map
}

fn render_manifest(map: &BTreeMap<String, u64>) -> String {
    let mut s = String::from(
        "# FNV-1a 64 content hashes of vendor/ (regenerate: cargo xtask vendor-hash --update)\n",
    );
    for (path, hash) in map {
        s.push_str(&format!("{hash:016x}  {path}\n"));
    }
    s
}

/// Regenerates the manifest from the working tree.
pub fn update(root: &Path) -> std::io::Result<usize> {
    let map = current_hashes(root);
    std::fs::write(root.join(MANIFEST), render_manifest(&map))?;
    Ok(map.len())
}

/// Compares the working tree against the manifest; one violation per
/// changed, missing or untracked file (or for a missing manifest).
pub fn drift_violations(root: &Path) -> Vec<Violation> {
    let manifest_path = root.join(MANIFEST);
    let Ok(content) = std::fs::read_to_string(&manifest_path) else {
        return vec![Violation {
            file: PathBuf::from(MANIFEST),
            line: 0,
            rule: "vendor-drift",
            msg: "manifest missing; run `cargo xtask vendor-hash --update`".into(),
        }];
    };
    let recorded = parse_manifest(&content);
    let actual = current_hashes(root);
    let mut out = Vec::new();
    for (path, hash) in &recorded {
        match actual.get(path) {
            None => out.push(Violation {
                file: PathBuf::from(path),
                line: 0,
                rule: "vendor-drift",
                msg: "tracked vendored file deleted (manifest stale?)".into(),
            }),
            Some(h) if h != hash => out.push(Violation {
                file: PathBuf::from(path),
                line: 0,
                rule: "vendor-drift",
                msg: format!(
                    "content changed (recorded {hash:016x}, actual {h:016x}); if intentional, \
                     run `cargo xtask vendor-hash --update` and review the manifest diff"
                ),
            }),
            Some(_) => {}
        }
    }
    for path in actual.keys() {
        if !recorded.contains_key(path) {
            out.push(Violation {
                file: PathBuf::from(path),
                line: 0,
                rule: "vendor-drift",
                msg: "untracked vendored file; run `cargo xtask vendor-hash --update`".into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_roundtrip_and_drift_detection() {
        let dir = std::env::temp_dir().join(format!("xtask-hash-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("vendor/x/src")).unwrap();
        std::fs::write(dir.join("vendor/x/src/lib.rs"), "pub fn f() {}\n").unwrap();

        // Fresh manifest: clean.
        update(&dir).unwrap();
        assert!(drift_violations(&dir).is_empty());

        // Seeded drift: edit a tracked file → exactly one finding.
        std::fs::write(dir.join("vendor/x/src/lib.rs"), "pub fn f() { let _ = 1; }\n").unwrap();
        let v = drift_violations(&dir);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "vendor-drift");
        assert!(v[0].msg.contains("content changed"));

        // New untracked file also flagged.
        std::fs::write(dir.join("vendor/x/src/extra.rs"), "\n").unwrap();
        assert_eq!(drift_violations(&dir).len(), 2);

        // --update re-blesses the tree.
        update(&dir).unwrap();
        assert!(drift_violations(&dir).is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
