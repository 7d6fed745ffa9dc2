//! Workspace model: parsed files grouped by crate, a crate-level
//! dependency graph (parsed from each member's `Cargo.toml`), and a
//! name-resolution-lite call graph with reachability search.
//!
//! Resolution is deliberately over-approximate — a method call `x.foo()`
//! can resolve to *any* workspace `fn foo` — then pruned by the crate
//! dependency graph: a call in crate A only resolves into crates A can
//! actually reach (itself + transitive workspace deps). That keeps the
//! false-edge rate low enough for contract checking without real type
//! inference.

use super::parser::{parse_file, Call, CallKind, Contracts, FnItem, ParsedFile};
use super::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

/// One workspace member crate.
#[derive(Debug)]
pub struct CrateModel {
    /// Package name from `Cargo.toml` (e.g. `el-core`).
    pub name: String,
    /// Repo-relative dir (`crates/core`), `/`-separated.
    pub dir: String,
    /// Names of workspace crates this crate depends on (direct).
    pub deps: Vec<String>,
    /// Parsed library-source files (everything under `src/`).
    pub files: Vec<ParsedFile>,
}

/// Global function id: (crate index, file index, fn index).
pub type FnId = (usize, usize, usize);

/// Method names so common on std containers/`Option`/iterators that an
/// unqualified `x.name()` is overwhelmingly a std call, not a workspace
/// one, each with the most arguments any std method of that name takes.
/// A method-kind call with one of these names and no more arguments than
/// that never resolves to workspace fns (qualified `Type::name` /
/// `self.name()`-via-`Self` still do). With more arguments it cannot be
/// std's, so it resolves: `slot.take(&mut plan, indices, offsets)` is a
/// workspace hand-off, not `Option::take`.
const STD_SHADOWED_METHODS: &[(&str, usize)] = &[
    ("as_mut", 0),
    ("as_ref", 0),
    ("chain", 1),
    ("clear", 0),
    ("clone", 0),
    ("collect", 0),
    ("contains", 1),
    ("count", 0),
    ("drain", 1),
    ("extend", 1),
    ("fill", 1),
    ("filter", 1),
    ("first", 0),
    ("flush", 0),
    ("fold", 2),
    ("get", 1),
    ("get_mut", 1),
    ("insert", 2),
    ("into", 0),
    ("is_empty", 0),
    ("iter", 0),
    ("iter_mut", 0),
    ("join", 1),
    ("last", 0),
    ("len", 0),
    ("map", 1),
    ("max", 1),
    ("min", 1),
    ("next", 0),
    ("pop", 0),
    ("push", 1),
    ("read", 1),
    ("remove", 1),
    ("replace", 2),
    ("reserve", 1),
    ("resize", 2),
    ("rev", 0),
    ("sort", 0),
    ("split", 1),
    ("sum", 0),
    ("swap", 2),
    ("take", 1),
    ("to_owned", 0),
    ("truncate", 1),
    ("write", 1),
    ("zip", 1),
];

/// The full workspace model plus call-resolution indexes.
pub struct Workspace {
    pub crates: Vec<CrateModel>,
    /// crate name -> index in `crates`.
    pub crate_by_name: HashMap<String, usize>,
    /// Transitive workspace-dep closure per crate (includes self).
    pub dep_closure: Vec<BTreeSet<usize>>,
    /// fn name -> candidate FnIds (free-fn resolution).
    by_name: HashMap<String, Vec<FnId>>,
    /// (impl type, fn name) -> candidate FnIds (qualified resolution).
    by_qual: HashMap<(String, String), Vec<FnId>>,
}

impl Workspace {
    pub fn fn_item(&self, id: FnId) -> &FnItem {
        &self.crates[id.0].files[id.1].fns[id.2]
    }

    pub fn file(&self, id: FnId) -> &ParsedFile {
        &self.crates[id.0].files[id.1]
    }

    /// Iterate every (FnId, FnItem).
    pub fn all_fns(&self) -> impl Iterator<Item = (FnId, &FnItem)> {
        self.crates.iter().enumerate().flat_map(|(ci, c)| {
            c.files.iter().enumerate().flat_map(move |(fi, f)| {
                f.fns.iter().enumerate().map(move |(gi, item)| ((ci, fi, gi), item))
            })
        })
    }

    /// Candidate callees for `call` made from crate `from`: every
    /// workspace fn whose name (and, for qualified calls, impl type or
    /// module file stem) matches, restricted to crates in `from`'s
    /// dependency closure. Test fns never resolve as callees.
    pub fn resolve(&self, from_crate: usize, call: &Call, caller_impl: Option<&str>) -> Vec<FnId> {
        let reachable = &self.dep_closure[from_crate];
        let keep = |id: &FnId| reachable.contains(&id.0) && !self.fn_item(*id).is_test;
        match call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Qualified => {
                let name = call.name.clone();
                let mut out = Vec::new();
                if let Some(q) = &call.qualifier {
                    let q_resolved =
                        if q == "Self" { caller_impl.map(str::to_string) } else { Some(q.clone()) };
                    if let Some(q) = q_resolved {
                        // impl-type match: Type::name
                        if let Some(ids) = self.by_qual.get(&(q.clone(), name.clone())) {
                            out.extend(ids.iter().copied().filter(keep));
                        }
                        // module match: `shard::sorted()` where shard.rs
                        // declares free fn sorted — qualifier equals the
                        // file stem (snake_case modules only; an impl-type
                        // qualifier is CamelCase and won't collide).
                        if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                            for id in self.by_name.get(&name).into_iter().flatten() {
                                if !keep(id) {
                                    continue;
                                }
                                let f = self.file(*id);
                                let stem = Path::new(&f.path)
                                    .file_stem()
                                    .and_then(|s| s.to_str())
                                    .unwrap_or("");
                                let item = self.fn_item(*id);
                                if stem == q && item.impl_type.is_none() {
                                    out.push(*id);
                                }
                            }
                        }
                    }
                } else if let Some(ids) = self.by_name.get(&name) {
                    out.extend(ids.iter().copied().filter(keep));
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            CallKind::Free | CallKind::Method => {
                // Free calls resolve by bare name; method calls resolve to
                // any impl fn with that name (receiver type unknown) —
                // except std-ubiquitous names, where the receiver is almost
                // always a std container and resolving to a same-named
                // workspace method fabricates edges (`v.truncate(n)` on a
                // Vec must not become an edge into `Svd::truncate`).
                // Qualified calls (`Svd::truncate`, `self.foo` → `Self::`)
                // still resolve those fns, and so does a call with more
                // arguments than std's method takes; the documented cost
                // is a missed edge on an unqualified call to such a method
                // that std's arity also fits.
                let std_shadowed = STD_SHADOWED_METHODS
                    .iter()
                    .any(|&(name, max_args)| name == call.name && call.args <= max_args);
                if call.kind == CallKind::Method && std_shadowed {
                    return Vec::new();
                }
                let mut out: Vec<FnId> = self
                    .by_name
                    .get(&call.name)
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(keep)
                    .filter(|id| match call.kind {
                        // a free call can't land on an inherent method
                        CallKind::Free => self.fn_item(*id).impl_type.is_none(),
                        _ => true,
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// BFS from `roots` over resolved calls. Returns, for every reached
    /// fn, the call edge that first reached it: `reached[id] = Some((via
    /// caller, call line))` (None for roots). Use [`Workspace::chain_to`] to turn a
    /// hit into a printable path.
    pub fn reach(&self, roots: &[FnId]) -> HashMap<FnId, Option<(FnId, u32)>> {
        let mut seen: HashMap<FnId, Option<(FnId, u32)>> = HashMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for r in roots {
            if seen.insert(*r, None).is_none() {
                queue.push_back(*r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let item = self.fn_item(id);
            let impl_ty = item.impl_type.clone();
            for call in item.calls.clone() {
                for callee in self.resolve(id.0, &call, impl_ty.as_deref()) {
                    if callee == id {
                        continue;
                    }
                    seen.entry(callee).or_insert_with(|| {
                        queue.push_back(callee);
                        Some((id, call.line))
                    });
                }
            }
        }
        seen
    }

    /// Findings of a reachability contract: for every non-test fn whose
    /// contracts satisfy `is_root`, each call that `sink` labels in a fn
    /// the root reaches, with the chain from the root to that call. The
    /// rule is named after the contract; `what` words the message
    /// (`allocating`, `blocking`).
    pub fn contract_findings(
        &self,
        contract: &str,
        what: &str,
        is_root: fn(&Contracts) -> bool,
        sink: fn(&Call) -> Option<String>,
    ) -> Vec<Finding> {
        let roots: Vec<FnId> = self
            .all_fns()
            .filter(|(_, f)| is_root(&f.contracts) && !f.is_test)
            .map(|(id, _)| id)
            .collect();

        let mut findings = Vec::new();
        // Analyze each root separately so the diagnostic chain starts at the
        // contract carrier (a shared BFS would attribute a sink to whichever
        // root reached it first).
        for root in roots {
            let reached = self.reach(&[root]);
            let root_name = self.fn_item(root).qualified.clone();
            // Deterministic order: sort reached fns by (file, line).
            let mut hit: Vec<FnId> = reached.keys().copied().collect();
            hit.sort_by_key(|id| (self.file(*id).path.clone(), self.fn_item(*id).line));
            for id in hit {
                let item = self.fn_item(id);
                for call in &item.calls {
                    let Some(sink) = sink(call) else { continue };
                    let mut chain: Vec<String> = self
                        .chain_to(&reached, id)
                        .into_iter()
                        .map(|(name, file, line)| format!("{name} ({file}:{line})"))
                        .collect();
                    chain.push(format!("-> {} ({}:{})", sink, self.file(id).path, call.line));
                    findings.push(Finding {
                        rule: contract.into(),
                        file: self.file(id).path.clone(),
                        context: item.qualified.clone(),
                        detail: format!("{root_name} reaches {sink}"),
                        line: call.line,
                        msg: format!(
                            "{what} call `{sink}` reachable from `// CONTRACT: {contract}` fn `{root_name}`"
                        ),
                        chain,
                    });
                }
            }
        }
        findings.sort();
        findings.dedup_by(|a, b| {
            (&a.rule, &a.file, &a.context, &a.detail) == (&b.rule, &b.file, &b.context, &b.detail)
        });
        findings
    }

    /// Reconstruct the call chain `root -> … -> id` from a `reach` map,
    /// as `(fn qualified name, file, line-of-call-into-next)` steps.
    pub fn chain_to(
        &self,
        reached: &HashMap<FnId, Option<(FnId, u32)>>,
        id: FnId,
    ) -> Vec<(String, String, u32)> {
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            let item = self.fn_item(cur);
            let file = self.file(cur).path.clone();
            match reached.get(&cur) {
                Some(Some((parent, line))) => {
                    rev.push((item.qualified.clone(), file, *line));
                    cur = *parent;
                }
                _ => {
                    rev.push((item.qualified.clone(), file, item.line));
                    break;
                }
            }
        }
        rev.reverse();
        rev
    }
}

/// Reads `name` and workspace-path deps out of a member `Cargo.toml`.
/// Hand-rolled: the manifests in this repo are simple and we cannot add a
/// TOML dependency to xtask.
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    name = Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
        // dependency lines: `el-core = { workspace = true }` or
        // `el-core.workspace = true` under [dependencies] /
        // [dev-dependencies], or table headers [dependencies.el-core].
        if section.starts_with("dependencies") || section.starts_with("dev-dependencies") {
            if let Some(eq) = line.find('=') {
                let key = line[..eq].trim();
                let key = key.split('.').next().unwrap_or(key).trim();
                if !key.is_empty() && !key.contains(' ') {
                    deps.push(key.to_string());
                }
            }
        }
        if let Some(rest) = section.strip_prefix("dependencies.") {
            deps.push(rest.to_string());
            section = "dependencies".into(); // body lines are config, not deps
        }
    }
    deps.sort();
    deps.dedup();
    (name, deps)
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
}

fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().and_then(|s| s.to_str()) == Some("rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Builds the model from `crates/*` (library crates only — the call-graph
/// analyses reason about code that ships, not vendor or xtask).
pub fn build_workspace(root: &Path) -> Workspace {
    let mut crates = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map(|rd| rd.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    dirs.sort();

    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else { continue };
        let (name, deps) = parse_manifest(&text);
        let Some(name) = name else { continue };
        let src = dir.join("src");
        let mut files = Vec::new();
        for f in rust_files_under(&src) {
            if let Ok(content) = fs::read_to_string(&f) {
                files.push(parse_file(&rel(root, &f), &content));
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        crates.push(CrateModel { name, dir: rel(root, &dir), deps, files });
    }

    let crate_by_name: HashMap<String, usize> =
        crates.iter().enumerate().map(|(i, c)| (c.name.clone(), i)).collect();

    // transitive closure of workspace deps (+ self)
    let mut dep_closure: Vec<BTreeSet<usize>> = Vec::with_capacity(crates.len());
    for (i, c) in crates.iter().enumerate() {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        seen.insert(i);
        queue.push_back(i);
        let _ = c;
        while let Some(j) = queue.pop_front() {
            for d in &crates[j].deps {
                if let Some(&k) = crate_by_name.get(d) {
                    if seen.insert(k) {
                        queue.push_back(k);
                    }
                }
            }
        }
        dep_closure.push(seen);
    }

    let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
    let mut by_qual: HashMap<(String, String), Vec<FnId>> = HashMap::new();
    for (ci, c) in crates.iter().enumerate() {
        for (fi, f) in c.files.iter().enumerate() {
            for (gi, item) in f.fns.iter().enumerate() {
                let id = (ci, fi, gi);
                by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(ty) = &item.impl_type {
                    by_qual.entry((ty.clone(), item.name.clone())).or_default().push(id);
                }
            }
        }
    }

    Workspace { crates, crate_by_name, dep_closure, by_name, by_qual }
}

/// One in-memory crate spec for [`workspace_from_sources`]:
/// `(crate name, deps, [(path, source)])`.
pub type SourceSpec<'a> = (&'a str, &'a [&'a str], &'a [(&'a str, &'a str)]);

/// Parse a set of in-memory files into a workspace (for tests/fixtures).
pub fn workspace_from_sources(specs: &[SourceSpec]) -> Workspace {
    let mut crates = Vec::new();
    for (name, deps, files) in specs {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
        crates.push(CrateModel {
            name: name.to_string(),
            dir: format!("crates/{name}"),
            deps: deps.iter().map(|d| d.to_string()).collect(),
            files: parsed,
        });
    }
    let crate_by_name: HashMap<String, usize> =
        crates.iter().enumerate().map(|(i, c)| (c.name.clone(), i)).collect();
    let mut dep_closure: Vec<BTreeSet<usize>> = Vec::with_capacity(crates.len());
    for i in 0..crates.len() {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(i);
        queue.push_back(i);
        while let Some(j) = queue.pop_front() {
            for d in &crates[j].deps {
                if let Some(&k) = crate_by_name.get(d) {
                    if seen.insert(k) {
                        queue.push_back(k);
                    }
                }
            }
        }
        dep_closure.push(seen);
    }
    let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
    let mut by_qual: HashMap<(String, String), Vec<FnId>> = HashMap::new();
    for (ci, c) in crates.iter().enumerate() {
        for (fi, f) in c.files.iter().enumerate() {
            for (gi, item) in f.fns.iter().enumerate() {
                let id = (ci, fi, gi);
                by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(ty) = &item.impl_type {
                    by_qual.entry((ty.clone(), item.name.clone())).or_default().push(id);
                }
            }
        }
    }
    Workspace { crates, crate_by_name, dep_closure, by_name, by_qual }
}

/// Sorted map of crate name -> crate dir for diagnostics.
pub fn crate_dirs(ws: &Workspace) -> BTreeMap<String, String> {
    ws.crates.iter().map(|c| (c.name.clone(), c.dir.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_crate_ws() -> Workspace {
        workspace_from_sources(&[
            (
                "el-core",
                &[],
                &[(
                    "crates/el-core/src/lib.rs",
                    "pub struct Plan;\nimpl Plan {\n    pub fn build(&self) { helper(); }\n    pub fn alloc_path(&self) { Vec::with_capacity(4); }\n}\npub fn helper() {}\n",
                )],
            ),
            (
                "el-pipe",
                &["el-core"],
                &[(
                    "crates/el-pipe/src/lib.rs",
                    "pub fn drive(p: &Plan) { p.build(); }\npub fn lonely() {}\n",
                )],
            ),
            (
                "el-iso",
                &[],
                &[("crates/el-iso/src/lib.rs", "pub fn build() { secret(); }\npub fn secret() {}\n")],
            ),
        ])
    }

    #[test]
    fn dep_closure_prunes_resolution() {
        let ws = two_crate_ws();
        let pipe = ws.crate_by_name["el-pipe"];
        let drive = ws.all_fns().find(|(_, f)| f.name == "drive").map(|(id, _)| id).unwrap();
        let call = ws.fn_item(drive).calls.iter().find(|c| c.name == "build").unwrap().clone();
        let targets = ws.resolve(pipe, &call, None);
        // `p.build()` resolves into el-core (dep) but NOT el-iso (not a dep)
        let names: Vec<_> = targets.iter().map(|id| ws.file(*id).path.clone()).collect();
        assert!(names.iter().any(|p| p.contains("el-core")), "{names:?}");
        assert!(!names.iter().any(|p| p.contains("el-iso")), "{names:?}");
    }

    #[test]
    fn reach_builds_chains() {
        let ws = two_crate_ws();
        let drive = ws.all_fns().find(|(_, f)| f.name == "drive").map(|(id, _)| id).unwrap();
        let helper = ws.all_fns().find(|(_, f)| f.name == "helper").map(|(id, _)| id).unwrap();
        let reached = ws.reach(&[drive]);
        assert!(reached.contains_key(&helper), "drive -> Plan::build -> helper");
        let chain = ws.chain_to(&reached, helper);
        let names: Vec<_> = chain.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["drive", "Plan::build", "helper"]);
    }

    #[test]
    fn std_shadowed_method_names_do_not_resolve() {
        // `v.truncate(n)` on a Vec must not fabricate an edge into a
        // workspace `Svd::truncate`; the qualified spelling still resolves.
        let ws = workspace_from_sources(&[(
            "el-t",
            &[],
            &[(
                "crates/el-t/src/lib.rs",
                "pub struct Svd;\nimpl Svd {\n    pub fn truncate(&self) {}\n}\n\
                 pub fn shrink(v: &mut Vec<u32>) { v.truncate(1); }\n\
                 pub fn direct(s: &Svd) { Svd::truncate(s); }\n",
            )],
        )]);
        let t = ws.crate_by_name["el-t"];
        let shrink = ws.all_fns().find(|(_, f)| f.name == "shrink").map(|(id, _)| id).unwrap();
        let call = ws.fn_item(shrink).calls.iter().find(|c| c.name == "truncate").unwrap();
        assert_eq!(call.kind, CallKind::Method);
        assert!(ws.resolve(t, call, None).is_empty(), "std-shadowed method must not resolve");
        let direct = ws.all_fns().find(|(_, f)| f.name == "direct").map(|(id, _)| id).unwrap();
        let qcall = ws.fn_item(direct).calls.iter().find(|c| c.name == "truncate").unwrap();
        assert_eq!(ws.resolve(t, qcall, None).len(), 1, "qualified call still resolves");
    }

    #[test]
    fn shadowed_name_past_std_arity_resolves() {
        // `opt.take()` is `Option::take`; `slot.take(&mut plan, xs)` has
        // more arguments than any std `take`, so it is the workspace one.
        let ws = workspace_from_sources(&[(
            "el-t",
            &[],
            &[(
                "crates/el-t/src/lib.rs",
                "pub struct Slot;\nimpl Slot {\n    pub fn take(&self, p: &mut u32, xs: &[u32]) {}\n}\n\
                 pub fn claim(s: &Slot, p: &mut u32, xs: &[u32], o: &mut Option<u32>) {\n\
                 let _ = o.take();\n    s.take(p, xs);\n}\n",
            )],
        )]);
        let t = ws.crate_by_name["el-t"];
        let claim = ws.all_fns().find(|(_, f)| f.name == "claim").map(|(id, _)| id).unwrap();
        let resolved: Vec<usize> = ws
            .fn_item(claim)
            .calls
            .iter()
            .filter(|c| c.name == "take")
            .map(|c| ws.resolve(t, c, None).len())
            .collect();
        assert_eq!(resolved, [0, 1], "only the two-argument take resolves");
    }

    #[test]
    fn free_call_does_not_resolve_to_method() {
        let ws = two_crate_ws();
        let core = ws.crate_by_name["el-core"];
        let call =
            Call { kind: CallKind::Free, name: "build".into(), qualifier: None, line: 1, args: 0 };
        let targets = ws.resolve(core, &call, None);
        // Plan::build is a method; a bare `build()` in el-core must not hit it
        assert!(targets.iter().all(|id| ws.fn_item(*id).impl_type.is_none()), "{targets:?}");
    }

    #[test]
    fn manifest_parsing() {
        let (name, deps) = parse_manifest(
            "[package]\nname = \"el-core\"\nversion = \"0.1.0\"\n\n[dependencies]\nel-tensor = { workspace = true }\nrayon.workspace = true\n\n[dev-dependencies]\nel-bench = { path = \"../bench\" }\n",
        );
        assert_eq!(name.as_deref(), Some("el-core"));
        assert_eq!(deps, ["el-bench", "el-tensor", "rayon"]);
    }

    #[test]
    fn self_qualified_resolution() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "pub struct S;\nimpl S {\n    pub fn a(&self) { Self::b(); }\n    fn b() { Vec::with_capacity(1); }\n}\n",
            )],
        )]);
        let a = ws.all_fns().find(|(_, f)| f.name == "a").map(|(id, _)| id).unwrap();
        let b = ws.all_fns().find(|(_, f)| f.name == "b").map(|(id, _)| id).unwrap();
        let reached = ws.reach(&[a]);
        assert!(reached.contains_key(&b), "Self::b resolves within impl S");
    }
}
