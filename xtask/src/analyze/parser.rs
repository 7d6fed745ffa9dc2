//! Lightweight item parser: turns a token stream into a per-file model.
//!
//! This is *not* a Rust parser. It tracks just enough structure for the
//! analyses: which `fn` encloses a given token, which `impl` block that fn
//! sits in (for `Type::method` qualification and `Self::` resolution),
//! whether a scope is test-only (`#[cfg(test)]` mod or `#[test]` fn), plus
//! inventories of call sites, panic sites, env-var reads, lock acquisitions,
//! `Instant::now` uses and the paths that bring in std's hash collections.
//! Everything is matched on tokens, so string and comment contents can
//! neither trigger nor suppress a rule.
//!
//! Line-adjacency walks (contract comments, `PANIC-OK`, the lint ports)
//! use three pre-computed per-line maps: `comment_lines` (comment text by
//! line), `attr_lines` (lines covered by `#[…]` groups, transparent to
//! walks), and `code_lines` (lines carrying code tokens, which *stop*
//! walks — a trailing comment on someone else's statement is not an
//! adjacent justification).

use super::lexer::{lex, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — unqualified.
    Free,
    /// `Type::foo(…)` / `module::foo(…)` — `qualifier` holds the segment
    /// immediately before the final `::`.
    Qualified,
    /// `recv.foo(…)` — method syntax; receiver type unknown.
    Method,
    /// `foo!(…)` — macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub kind: CallKind,
    pub name: String,
    /// Last path segment before the call name (`Qualified` only).
    pub qualifier: Option<String>,
    pub line: u32,
}

/// Kind of potential panic at a panic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    Unwrap,
    Expect,
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    Macro,
}

impl PanicKind {
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap()",
            PanicKind::Expect => "expect()",
            PanicKind::Macro => "panic-family macro",
        }
    }
}

/// A call that can panic, with its allowlist state.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub kind: PanicKind,
    /// Macro name for `PanicKind::Macro` (`panic`, `todo`, …).
    pub macro_name: Option<String>,
    pub line: u32,
    /// `Some(reason)` when a `// PANIC-OK: <reason>` comment is adjacent
    /// (same line, or walking up over comment/attribute lines).
    pub allow_reason: Option<String>,
}

/// `std::env::var("NAME")` (or `var_os`) with a literal name.
#[derive(Debug, Clone)]
pub struct EnvRead {
    pub name: String,
    pub line: u32,
}

/// `.lock()` / `.read()` / `.write()` call, tracking whether the returned
/// guard is immediately unwrapped.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub method: String,
    pub line: u32,
    pub unwrapped: bool,
    /// Inside `#[cfg(test)]` or a `#[test]` fn.
    pub in_test: bool,
}

/// Contract annotations recognized above a function.
#[derive(Debug, Clone, Default)]
pub struct Contracts {
    /// `// CONTRACT: zero-alloc`
    pub zero_alloc: bool,
    /// `// CONTRACT: panic-free`
    pub panic_free: bool,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `Type::name` when declared inside `impl Type`, else `name`.
    pub qualified: String,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    pub line: u32,
    pub end_line: u32,
    /// Attribute text, whitespace-normalized (e.g. `cfg(test)`,
    /// `target_feature(enable="avx2")`).
    pub attrs: Vec<String>,
    /// Doc/contract comment text lines attached above the fn.
    pub docs: Vec<String>,
    pub contracts: Contracts,
    /// Declared inside `#[cfg(test)]` mod / marked `#[test]`.
    pub is_test: bool,
    /// Declared with the unsafe keyword.
    pub is_unsafe: bool,
    /// Body present (not a trait-method signature).
    pub has_body: bool,
    pub calls: Vec<Call>,
    pub panic_sites: Vec<PanicSite>,
}

impl FnItem {
    /// True when the attr list contains `target_feature(...)`.
    pub fn has_target_feature(&self) -> bool {
        self.attrs.iter().any(|a| a.starts_with("target_feature"))
    }
}

/// Everything the analyses need from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    pub fns: Vec<FnItem>,
    pub env_reads: Vec<EnvRead>,
    pub locks: Vec<LockSite>,
    /// Lines with `Instant::now()` calls, with test-scope flag.
    pub instant_now: Vec<(u32, bool)>,
    /// Where std's `HashMap`/`HashSet` enter the file: the name (`*` for a
    /// glob import), the line of the `collections`/`hash_map`/`hash_set`
    /// path segment it hangs from, and the test-scope flag.
    pub hash_collections: Vec<(String, u32, bool)>,
    /// Lines where the unsafe keyword appears at a code position.
    pub unsafe_lines: Vec<u32>,
    /// Comment text by line (first comment starting on/covering that
    /// line). Multi-line block comments cover their whole span.
    pub comment_lines: BTreeMap<u32, String>,
    /// Lines covered by attributes (`#[…]` / `#![…]`), transparent to
    /// adjacency walks.
    pub attr_lines: BTreeSet<u32>,
    /// Lines carrying at least one non-comment token.
    pub code_lines: BTreeSet<u32>,
    /// Inner attribute texts (`#![…]` without the brackets), in file
    /// order: on a crate root, the crate-level attributes.
    pub inner_attrs: Vec<String>,
    /// Outer attribute groups by *end* line: `end -> [(start, text)]`.
    attrs_by_end: BTreeMap<u32, Vec<(u32, String)>>,
}

impl ParsedFile {
    /// Line holds a comment and no code (attr lines are code lines).
    pub fn is_comment_only_line(&self, line: u32) -> bool {
        self.comment_lines.contains_key(&line) && !self.code_lines.contains(&line)
    }

    /// Outer attributes attached to an item starting at `line`: walks up
    /// over attribute groups and comment-only lines.
    pub fn attrs_above(&self, line: u32) -> Vec<String> {
        let mut attrs = Vec::new();
        let mut l = line;
        while l > 1 {
            l -= 1;
            if let Some(groups) = self.attrs_by_end.get(&l) {
                for (start, text) in groups.iter().rev() {
                    attrs.push(text.clone());
                    l = l.min(*start);
                }
                continue;
            }
            if self.is_comment_only_line(l) || self.attr_lines.contains(&l) {
                continue;
            }
            break;
        }
        attrs.reverse();
        attrs
    }
}

/// Assembled so this file passes the repo's own keyword lint.
fn unsafe_kw() -> String {
    ["un", "safe"].concat()
}

/// Path segments std's hash collections live under.
const HASH_MODULES: &[&str] = &["collections", "hash_map", "hash_set"];

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "use", "where",
    "while", "async", "await",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s) || s == unsafe_kw()
}

#[derive(Debug, Clone)]
enum Scope {
    /// `impl Type { … }` — brace depth at entry, extracted type name.
    Impl(usize, String),
    /// `mod m { … }` under `#[cfg(test)]`.
    TestMod(usize),
    /// Function body: index into `out.fns`, depth of its opening brace.
    Fn(usize, usize),
    /// Macro invocation body we skip call collection in (`debug_assert*!`
    /// with a `{…}` body).
    DebugAssert(usize),
}

pub fn parse_file(path: &str, src: &str) -> ParsedFile {
    let toks = lex(src);
    let mut out = ParsedFile { path: path.to_string(), ..Default::default() };

    // Pre-pass 1: comment text and code lines.
    for t in &toks {
        if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
            for line in t.line..=t.end_line {
                out.comment_lines.entry(line).or_insert_with(|| t.text.clone());
            }
        } else {
            for line in t.line..=t.end_line {
                out.code_lines.insert(line);
            }
        }
    }

    // Pre-pass 2: attribute groups. `#` `[` … `]` is an outer attribute
    // (attached to the following item); `#` `!` `[` … `]` is inner
    // (transparent to walks, attached to nothing).
    collect_attrs(&toks, &mut out);

    Parser { toks: &toks, i: 0, depth: 0, scopes: Vec::new(), out: &mut out }.run();
    out
}

fn collect_attrs(toks: &[Tok], out: &mut ParsedFile) {
    let code_at = |mut i: usize| -> Option<usize> {
        while let Some(t) = toks.get(i) {
            if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                i += 1;
            } else {
                return Some(i);
            }
        }
        None
    };
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Punct && t.text == "#") {
            i += 1;
            continue;
        }
        let Some(j) = code_at(i + 1) else { break };
        let (inner, open_idx) = if toks[j].text == "!" {
            match code_at(j + 1) {
                Some(k) if toks[k].text == "[" => (true, k),
                _ => {
                    i += 1;
                    continue;
                }
            }
        } else if toks[j].text == "[" {
            (false, j)
        } else {
            i += 1;
            continue;
        };
        // join tokens to the matching `]`
        let mut depth = 0i32;
        let mut text = String::new();
        let mut k = open_idx;
        let mut end_line = t.line;
        let mut closed = false;
        while let Some(u) = toks.get(k) {
            match u.kind {
                TokKind::Punct if u.text == "[" => {
                    depth += 1;
                    if depth > 1 {
                        text.push('[');
                    }
                }
                TokKind::Punct if u.text == "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = u.end_line;
                        closed = true;
                        break;
                    }
                    text.push(']');
                }
                TokKind::Comment | TokKind::DocComment => {}
                TokKind::Str => {
                    text.push('"');
                    text.push_str(&u.text);
                    text.push('"');
                }
                _ => text.push_str(&u.text),
            }
            k += 1;
        }
        if !closed {
            break;
        }
        for l in t.line..=end_line {
            out.attr_lines.insert(l);
        }
        if inner {
            out.inner_attrs.push(text);
        } else {
            out.attrs_by_end.entry(end_line).or_default().push((t.line, text));
        }
        i = k + 1;
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
    /// Current brace depth.
    depth: usize,
    scopes: Vec<Scope>,
    out: &'a mut ParsedFile,
}

impl<'a> Parser<'a> {
    /// Next code token at or after index `i` (skipping comments), or None.
    fn code_at(&self, mut i: usize) -> Option<(usize, &'a Tok)> {
        while let Some(t) = self.toks.get(i) {
            if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                i += 1;
            } else {
                return Some((i, t));
            }
        }
        None
    }

    /// `off`-th code token after index `i` (0 = the one at/after `i`).
    fn code_ahead(&self, i: usize, off: usize) -> Option<&'a Tok> {
        let mut idx = i;
        for k in 0..=off {
            let (j, t) = self.code_at(idx)?;
            if k == off {
                return Some(t);
            }
            idx = j + 1;
        }
        None
    }

    /// Previous code token strictly before index `i`.
    fn code_before(&self, i: usize) -> Option<&'a Tok> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.toks[j];
            if !matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                return Some(t);
            }
        }
        None
    }

    /// Index of the previous code token strictly before index `i`.
    fn code_index_before(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !matches!(self.toks[j].kind, TokKind::Comment | TokKind::DocComment))
    }

    /// When the code tokens before index `i` are `<module> ::` with
    /// `<module>` one of [`HASH_MODULES`], the module token's line.
    fn hash_module_before(&self, i: usize) -> Option<u32> {
        let c2 = self.code_index_before(i)?;
        let c1 = self.code_index_before(c2)?;
        let module = &self.toks[self.code_index_before(c1)?];
        let colons = [c1, c2].iter().all(|&c| self.toks[c].text == ":");
        (colons && module.kind == TokKind::Ident && HASH_MODULES.contains(&module.text.as_str()))
            .then_some(module.line)
    }

    /// Cursor on `HashMap`, `HashSet` or `*`: records a std hash collection
    /// entering the file — the name on a path through [`HASH_MODULES`]
    /// (`std::collections::HashMap`), a member of a `use` group hanging
    /// from one (`use std::collections::{BTreeMap, HashMap}`), or a glob
    /// import of one.
    fn hash_collection_site(&mut self) {
        let t = &self.toks[self.i];
        let mut line = self.hash_module_before(self.i);
        if line.is_none() && t.text != "*" {
            // Walk back to the opener of the enclosing `use` group over
            // path tokens only; nested groups are skipped whole.
            let mut j = self.i;
            let mut nested = 0usize;
            while let Some(k) = self.code_index_before(j) {
                let u = &self.toks[k];
                match u.text.as_str() {
                    "{" if nested == 0 => {
                        line = self.hash_module_before(k);
                        break;
                    }
                    "{" => nested -= 1,
                    "}" => nested += 1,
                    "," | ":" | "*" | "as" | "self" | "super" | "crate" => {}
                    _ if u.kind == TokKind::Ident && !is_keyword(&u.text) => {}
                    _ => break,
                }
                j = k;
            }
        }
        if let Some(line) = line {
            let in_test = self.in_test_code();
            self.out.hash_collections.push((t.text.clone(), line, in_test));
        }
    }

    /// Second-previous code token before index `i`.
    fn code_before2(&self, i: usize) -> Option<&'a Tok> {
        let mut j = i;
        let mut seen = 0;
        while j > 0 {
            j -= 1;
            let t = &self.toks[j];
            if !matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                seen += 1;
                if seen == 2 {
                    return Some(t);
                }
            }
        }
        None
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx, _) => Some(*idx),
            _ => None,
        })
    }

    fn current_impl_type(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Impl(_, ty) => Some(ty.clone()),
            _ => None,
        })
    }

    fn in_test_scope(&self) -> bool {
        self.scopes.iter().any(|s| matches!(s, Scope::TestMod(_)))
    }

    /// The cursor is in a test module or a test fn.
    fn in_test_code(&self) -> bool {
        self.in_test_scope() || self.current_fn().is_some_and(|i| self.out.fns[i].is_test)
    }

    fn in_debug_assert(&self) -> bool {
        self.scopes.iter().any(|s| matches!(s, Scope::DebugAssert(_)))
    }

    fn run(&mut self) {
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            match t.kind {
                TokKind::Comment | TokKind::DocComment => {
                    self.i += 1;
                }
                TokKind::Punct if t.text == "{" => {
                    self.depth += 1;
                    self.i += 1;
                }
                TokKind::Punct if t.text == "}" => {
                    self.depth = self.depth.saturating_sub(1);
                    // close any scopes opened at this depth
                    while let Some(top) = self.scopes.last() {
                        let open = match top {
                            Scope::Impl(d, _)
                            | Scope::TestMod(d)
                            | Scope::Fn(_, d)
                            | Scope::DebugAssert(d) => *d,
                        };
                        if open > self.depth {
                            if let Some(Scope::Fn(idx, _)) = self.scopes.pop() {
                                self.out.fns[idx].end_line = t.line;
                            }
                        } else {
                            break;
                        }
                    }
                    self.i += 1;
                }
                TokKind::Ident if t.text == "impl" && self.current_fn().is_none() => {
                    self.impl_header();
                }
                TokKind::Ident if t.text == "mod" && self.current_fn().is_none() => {
                    self.mod_header();
                }
                TokKind::Ident if t.text == "fn" => {
                    self.fn_header();
                }
                TokKind::Ident if t.text == unsafe_kw() => {
                    self.out.unsafe_lines.push(t.line);
                    self.i += 1;
                }
                TokKind::Ident => {
                    if matches!(t.text.as_str(), "HashMap" | "HashSet") {
                        self.hash_collection_site();
                    }
                    self.ident_in_code();
                }
                TokKind::Punct if t.text == "*" => {
                    self.hash_collection_site();
                    self.i += 1;
                }
                _ => {
                    self.i += 1;
                }
            }
        }
        // close fns left open at EOF (unterminated input)
        let last_line = self.toks.last().map(|t| t.end_line).unwrap_or(1);
        for s in &self.scopes {
            if let Scope::Fn(idx, _) = s {
                if self.out.fns[*idx].end_line == 0 {
                    self.out.fns[*idx].end_line = last_line;
                }
            }
        }
    }

    /// Cursor on `impl`. Extracts the implemented type's head identifier:
    /// `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`, skipping
    /// `&`/`mut`/`dyn`. Pushes an `Impl` scope at its `{`.
    fn impl_header(&mut self) {
        let mut j = self.i + 1;
        // skip generic params `<…>`
        if let Some((k, t)) = self.code_at(j) {
            if t.text == "<" {
                let mut angle = 0i32;
                let mut m = k;
                while let Some((n, u)) = self.code_at(m) {
                    if u.text == "<" {
                        angle += 1;
                    } else if u.text == ">" {
                        angle -= 1;
                        if angle == 0 {
                            m = n + 1;
                            break;
                        }
                    } else if u.text == "{" || u.text == ";" {
                        break;
                    }
                    m = n + 1;
                }
                j = m;
            }
        }
        // Collect the head ident until `{`/`where`; a `for` restarts the
        // collection (the implemented type follows it).
        let mut head: Option<String> = None;
        let mut m = j;
        while let Some((n, t)) = self.code_at(m) {
            match t.kind {
                TokKind::Punct if t.text == "{" || t.text == ";" => break,
                TokKind::Ident if t.text == "for" => {
                    head = None;
                    m = n + 1;
                }
                TokKind::Ident if t.text == "where" => break,
                TokKind::Ident if !is_keyword(&t.text) && head.is_none() => {
                    head = Some(t.text.clone());
                    m = n + 1;
                }
                _ => m = n + 1,
            }
        }
        // advance to the `{` (or `;`) and open the scope
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            if t.kind == TokKind::Punct && t.text == "{" {
                self.depth += 1;
                self.scopes.push(Scope::Impl(self.depth, head.unwrap_or_default()));
                self.i += 1;
                return;
            }
            if t.kind == TokKind::Punct && t.text == ";" {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    /// Cursor on `mod`. Pushes a `TestMod` scope when the mod carries
    /// `#[cfg(test)]`.
    fn mod_header(&mut self) {
        let line = self.toks[self.i].line;
        let is_test = self.out.attrs_above(line).iter().any(|a| a == "cfg(test)");
        // find `{` or `;`
        let mut j = self.i + 1;
        while let Some((k, t)) = self.code_at(j) {
            if t.text == "{" {
                self.depth += 1;
                if is_test {
                    self.scopes.push(Scope::TestMod(self.depth));
                }
                self.i = k + 1;
                return;
            }
            if t.text == ";" {
                self.i = k + 1;
                return;
            }
            j = k + 1;
        }
        self.i = self.toks.len();
    }

    /// Cursor on `fn`. Builds the `FnItem`, records attrs/docs/contracts,
    /// then pushes a `Fn` scope at the body `{` (or returns at `;`).
    fn fn_header(&mut self) {
        let fn_tok = &self.toks[self.i];
        let name = match self.code_ahead(self.i + 1, 0) {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            _ => {
                self.i += 1;
                return;
            }
        };
        let decl_line = fn_tok.line;
        let attrs = self.out.attrs_above(decl_line);
        let (docs, contracts) = self.docs_and_contracts_above(decl_line);
        let is_unsafe = self.code_before(self.i).map(|t| t.text == unsafe_kw()).unwrap_or(false)
            || self.code_before2(self.i).map(|t| t.text == unsafe_kw()).unwrap_or(false);
        let impl_type = self.current_impl_type().filter(|t| !t.is_empty());
        let qualified = match &impl_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        let is_test = self.in_test_scope() || attrs.iter().any(|a| a == "test");

        let idx = self.out.fns.len();
        self.out.fns.push(FnItem {
            name,
            qualified,
            impl_type,
            line: decl_line,
            end_line: 0,
            attrs,
            docs,
            contracts,
            is_test,
            is_unsafe,
            has_body: false,
            calls: Vec::new(),
            panic_sites: Vec::new(),
        });

        // Walk to the body `{` at bracket depth 0, or `;`.
        self.i += 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" if paren == 0 && bracket == 0 => {
                        self.depth += 1;
                        self.out.fns[idx].has_body = true;
                        self.scopes.push(Scope::Fn(idx, self.depth));
                        self.i += 1;
                        return;
                    }
                    ";" if paren == 0 && bracket == 0 => {
                        self.out.fns[idx].end_line = t.line;
                        self.i += 1;
                        return;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// Docs + contract comments above `line`: walk up over comment-only
    /// and attribute lines; code or blank lines stop the walk.
    fn docs_and_contracts_above(&mut self, line: u32) -> (Vec<String>, Contracts) {
        let mut docs = Vec::new();
        let mut contracts = Contracts::default();
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.out.is_comment_only_line(l) {
                let text = self.out.comment_lines[&l].clone();
                let trimmed = text.trim();
                if let Some(rest) = trimmed.strip_prefix("CONTRACT:") {
                    match rest.trim() {
                        "zero-alloc" => contracts.zero_alloc = true,
                        "panic-free" => contracts.panic_free = true,
                        _ => {}
                    }
                }
                docs.push(trimmed.to_string());
                continue;
            }
            if self.out.attr_lines.contains(&l) {
                continue;
            }
            break;
        }
        docs.reverse();
        (docs, contracts)
    }

    /// `// PANIC-OK: reason` on the same line as `line`, or walking up
    /// over comment-only/attr lines above it.
    fn panic_ok_reason(&self, line: u32) -> Option<String> {
        let probe = |l: u32| -> Option<String> {
            self.out
                .comment_lines
                .get(&l)
                .and_then(|c| c.trim().strip_prefix("PANIC-OK:"))
                .map(|r| r.trim().to_string())
        };
        if let Some(r) = probe(line) {
            return Some(r);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.out.is_comment_only_line(l) {
                if let Some(r) = probe(l) {
                    return Some(r);
                }
                continue;
            }
            if self.out.attr_lines.contains(&l) {
                continue;
            }
            break;
        }
        None
    }

    /// Cursor on an identifier inside code: classify calls, env reads,
    /// panic sites, lock sites, Instant::now.
    fn ident_in_code(&mut self) {
        let t = &self.toks[self.i];
        let name = t.text.clone();
        let line = t.line;

        let next = self.code_ahead(self.i + 1, 0);
        let next_is =
            |s: &str| next.map(|u| u.kind == TokKind::Punct && u.text == s).unwrap_or(false);

        // macro invocation: `name !` then `(`/`[`/`{`
        if next_is("!") {
            if let Some(op) = self.code_ahead(self.i + 1, 1) {
                if op.kind == TokKind::Punct && matches!(op.text.as_str(), "(" | "[" | "{") {
                    let opener = op.text.clone();
                    self.macro_invocation(&name, line, &opener);
                    return;
                }
            }
            self.i += 1;
            return;
        }

        if !next_is("(") || is_keyword(&name) {
            self.i += 1;
            return;
        }

        // classify by the tokens before the name
        let prev = self.code_before(self.i);
        let prev2 = self.code_before2(self.i);
        let prev_is =
            |s: &str| prev.map(|u| u.kind == TokKind::Punct && u.text == s).unwrap_or(false);
        let prev2_is =
            |s: &str| prev2.map(|u| u.kind == TokKind::Punct && u.text == s).unwrap_or(false);

        if prev_is(":") && prev2_is(":") {
            // Qualified: find the segment before `::`
            let qualifier = {
                let mut j = self.i;
                let mut seen = 0;
                let mut q = None;
                while j > 0 {
                    j -= 1;
                    let u = &self.toks[j];
                    if matches!(u.kind, TokKind::Comment | TokKind::DocComment) {
                        continue;
                    }
                    seen += 1;
                    if seen >= 3 {
                        if u.kind == TokKind::Ident {
                            q = Some(u.text.clone());
                        }
                        break;
                    }
                }
                q
            };
            self.record_qualified_call(&name, qualifier, line);
        } else if prev_is(".") {
            self.record_method_call(&name, line);
        } else {
            self.record_free_call(&name, line);
        }
        self.i += 1;
    }

    fn record_call(&mut self, call: Call) {
        if self.in_debug_assert() {
            return;
        }
        if let Some(idx) = self.current_fn() {
            self.out.fns[idx].calls.push(call);
        }
    }

    fn record_free_call(&mut self, name: &str, line: u32) {
        self.record_call(Call {
            kind: CallKind::Free,
            name: name.to_string(),
            qualifier: None,
            line,
        });
    }

    fn record_method_call(&mut self, name: &str, line: u32) {
        // panic sites: exactly `unwrap` / `expect` as method names
        let pk = match name {
            "unwrap" => Some(PanicKind::Unwrap),
            "expect" => Some(PanicKind::Expect),
            _ => None,
        };
        if let Some(kind) = pk {
            if !self.in_debug_assert() {
                let allow_reason = self.panic_ok_reason(line);
                if let Some(idx) = self.current_fn() {
                    self.out.fns[idx].panic_sites.push(PanicSite {
                        kind,
                        macro_name: None,
                        line,
                        allow_reason,
                    });
                }
            }
        }
        // lock sites
        if matches!(name, "lock" | "read" | "write") {
            // `.lock()` then immediately `.unwrap()` / `.expect(`?
            let unwrapped = {
                let mut j = self.i + 1;
                let mut parens = 0i32;
                let mut after_close = None;
                while let Some((k, u)) = self.code_at(j) {
                    if u.kind == TokKind::Punct && u.text == "(" {
                        parens += 1;
                    } else if u.kind == TokKind::Punct && u.text == ")" {
                        parens -= 1;
                        if parens == 0 {
                            after_close = Some(k + 1);
                            break;
                        }
                    }
                    j = k + 1;
                }
                match after_close {
                    Some(k) => {
                        let dot = self.code_ahead(k, 0);
                        let meth = self.code_ahead(k, 1);
                        matches!((dot, meth), (Some(d), Some(m))
                            if d.text == "." && (m.text == "unwrap" || m.text == "expect"))
                    }
                    None => false,
                }
            };
            let in_test = self.in_test_code();
            self.out.locks.push(LockSite { method: name.to_string(), line, unwrapped, in_test });
        }
        self.record_call(Call {
            kind: CallKind::Method,
            name: name.to_string(),
            qualifier: None,
            line,
        });
    }

    fn record_qualified_call(&mut self, name: &str, qualifier: Option<String>, line: u32) {
        // env reads: env::var("LITERAL") / env::var_os("LITERAL")
        if (name == "var" || name == "var_os") && qualifier.as_deref() == Some("env") {
            // the argument must be a string literal right after `(`
            if let Some(arg) = self.code_ahead(self.i + 1, 1) {
                if arg.kind == TokKind::Str {
                    self.out.env_reads.push(EnvRead { name: arg.text.clone(), line });
                }
            }
        }
        if name == "now" && qualifier.as_deref() == Some("Instant") {
            let in_test = self.in_test_code();
            self.out.instant_now.push((line, in_test));
        }
        self.record_call(Call {
            kind: CallKind::Qualified,
            name: name.to_string(),
            qualifier,
            line,
        });
    }

    /// Cursor on a macro name, with `!` + opener ahead. Records panic-
    /// family macros as panic sites; enters a skip scope for
    /// `debug_assert*` so debug-only validation doesn't pollute the call
    /// graph; records everything else as a Macro call.
    fn macro_invocation(&mut self, name: &str, line: u32, opener: &str) {
        match name {
            "panic" | "todo" | "unimplemented" | "unreachable" if !self.in_debug_assert() => {
                let allow_reason = self.panic_ok_reason(line);
                if let Some(idx) = self.current_fn() {
                    self.out.fns[idx].panic_sites.push(PanicSite {
                        kind: PanicKind::Macro,
                        macro_name: Some(name.to_string()),
                        line,
                        allow_reason,
                    });
                }
            }
            n if n.starts_with("debug_assert") => {
                if opener == "{" {
                    // advance past name/!/{ and open a skip scope
                    self.i += 1;
                    while self.i < self.toks.len() && self.toks[self.i].text != "{" {
                        self.i += 1;
                    }
                    if self.i < self.toks.len() {
                        self.depth += 1;
                        self.scopes.push(Scope::DebugAssert(self.depth));
                        self.i += 1;
                    }
                    return;
                }
                let close = if opener == "(" { ")" } else { "]" };
                // skip the balanced `(...)` / `[...]` group inline
                self.i += 1;
                while self.i < self.toks.len() && self.toks[self.i].text != opener {
                    self.i += 1;
                }
                let mut depth = 0i32;
                while self.i < self.toks.len() {
                    let t = &self.toks[self.i];
                    if t.kind == TokKind::Punct && t.text == opener {
                        depth += 1;
                    } else if t.kind == TokKind::Punct && t.text == close {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                    self.i += 1;
                }
                return;
            }
            _ => {}
        }
        self.record_call(Call {
            kind: CallKind::Macro,
            name: name.to_string(),
            qualifier: None,
            line,
        });
        self.i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw() -> String {
        ["un", "safe"].concat()
    }

    #[test]
    fn fn_items_with_impl_qualification() {
        let src = "\
struct Foo;
impl Foo {
    pub fn bar(&self) -> u32 { self.baz() }
    fn baz(&self) -> u32 { 7 }
}
fn free_fn() { Foo.bar(); }
";
        let f = parse_file("t.rs", src);
        let names: Vec<_> = f.fns.iter().map(|x| x.qualified.as_str()).collect();
        assert_eq!(names, ["Foo::bar", "Foo::baz", "free_fn"]);
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Foo"));
        assert!(f.fns[2].impl_type.is_none());
        // Foo::bar calls baz as a method
        assert!(f.fns[0].calls.iter().any(|c| c.kind == CallKind::Method && c.name == "baz"));
    }

    #[test]
    fn impl_trait_for_type_takes_rhs() {
        let src = "impl Display for Wrapper { fn fmt(&self) {} }\nimpl<T> From<T> for Holder<T> { fn from(_: T) {} }";
        let f = parse_file("t.rs", src);
        assert_eq!(f.fns[0].qualified, "Wrapper::fmt");
        assert_eq!(f.fns[1].qualified, "Holder::from");
    }

    #[test]
    fn contracts_and_docs_walk_up_over_attrs() {
        let src = "\
/// Builds the plan without allocating.
// CONTRACT: zero-alloc
#[inline]
pub fn build_into(&self) {}

// CONTRACT: panic-free
pub fn run(&self) {}

pub fn plain() {}
";
        let f = parse_file("t.rs", src);
        assert!(f.fns[0].contracts.zero_alloc, "{:?}", f.fns[0]);
        assert!(!f.fns[0].contracts.panic_free);
        assert!(f.fns[1].contracts.panic_free);
        assert!(!f.fns[2].contracts.zero_alloc && !f.fns[2].contracts.panic_free);
        assert!(f.fns[0].docs.iter().any(|d| d.contains("without allocating")));
    }

    #[test]
    fn contract_in_string_does_not_annotate() {
        let src = "pub fn tricky() { let s = \"// CONTRACT: zero-alloc\"; }\npub fn after() {}";
        let f = parse_file("t.rs", src);
        assert!(!f.fns[1].contracts.zero_alloc);
    }

    #[test]
    fn panic_sites_and_allowlist() {
        let src = "\
pub fn risky(x: Option<u32>) -> u32 {
    let a = x.unwrap(); // PANIC-OK: checked non-empty above
    let b = x.expect(\"must be set\");
    if a == 0 { panic!(\"zero\") }
    b
}
";
        let f = parse_file("t.rs", src);
        let sites = &f.fns[0].panic_sites;
        assert_eq!(sites.len(), 3, "{sites:?}");
        assert_eq!(sites[0].kind, PanicKind::Unwrap);
        assert_eq!(sites[0].allow_reason.as_deref(), Some("checked non-empty above"));
        assert_eq!(sites[1].kind, PanicKind::Expect);
        assert!(
            sites[1].allow_reason.is_none(),
            "a trailing PANIC-OK on the previous code line must not leak down: {sites:?}"
        );
        assert_eq!(sites[2].kind, PanicKind::Macro);
        assert_eq!(sites[2].macro_name.as_deref(), Some("panic"));
    }

    #[test]
    fn panic_ok_walks_up_from_preceding_line() {
        let src = "\
pub fn f(x: Option<u32>) -> u32 {
    // PANIC-OK: len asserted above
    x.unwrap()
}
";
        let f = parse_file("t.rs", src);
        assert_eq!(f.fns[0].panic_sites[0].allow_reason.as_deref(), Some("len asserted above"));
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic_site() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) + x.unwrap_or(1) + x.unwrap_or_default() }";
        let f = parse_file("t.rs", src);
        assert!(f.fns[0].panic_sites.is_empty(), "{:?}", f.fns[0].panic_sites);
    }

    #[test]
    fn debug_assert_contents_are_skipped() {
        let src = "\
pub fn hot(xs: &[u32]) {
    debug_assert!(xs.iter().collect::<Vec<_>>().len() == xs.len());
    debug_assert_eq!(xs.to_vec().len(), xs.len());
    xs.first();
}
";
        let f = parse_file("t.rs", src);
        let calls: Vec<_> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(!calls.contains(&"collect"), "{calls:?}");
        assert!(!calls.contains(&"to_vec"), "{calls:?}");
        assert!(calls.contains(&"first"), "{calls:?}");
    }

    #[test]
    fn env_reads_only_with_literal_names() {
        let src = "\
pub fn knobs() {
    let a = std::env::var(\"EL_KERNEL\");
    let b = std::env::var_os(\"RAYON_NUM_THREADS\");
    let name = key();
    let c = std::env::var(name);
}
";
        let f = parse_file("t.rs", src);
        let names: Vec<_> = f.env_reads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["EL_KERNEL", "RAYON_NUM_THREADS"]);
    }

    #[test]
    fn env_var_in_string_not_recorded() {
        let src = "pub fn doc() { let s = \"std::env::var(\\\"EL_FAKE\\\")\"; }";
        let f = parse_file("t.rs", src);
        assert!(f.env_reads.is_empty());
    }

    #[test]
    fn lock_sites_track_unwrap() {
        let src = "\
pub fn locked(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap();
    let h = m.lock().unwrap_or_else(|e| e.into_inner());
    drop((g, h));
}
#[cfg(test)]
mod tests {
    pub fn in_test(m: &std::sync::Mutex<u32>) { let _g = m.lock().unwrap(); }
}
";
        let f = parse_file("t.rs", src);
        assert_eq!(f.locks.len(), 3);
        assert!(f.locks[0].unwrapped && !f.locks[0].in_test);
        assert!(!f.locks[1].unwrapped, "unwrap_or_else must not count as unwrapped");
        assert!(f.locks[2].unwrapped && f.locks[2].in_test, "{:?}", f.locks[2]);
    }

    #[test]
    fn test_scope_detection() {
        let src = "\
pub fn lib_fn() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn a_test() { helper(); }
}
";
        let f = parse_file("t.rs", src);
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test, "helper inside cfg(test) mod: {:?}", f.fns[1]);
        assert!(f.fns[2].is_test);
    }

    #[test]
    fn unsafe_fn_and_target_feature_attr() {
        let src = format!("#[target_feature(enable = \"avx2\")]\npub {} fn kernel() {{}}\n", kw());
        let f = parse_file("t.rs", &src);
        assert!(f.fns[0].is_unsafe);
        assert!(f.fns[0].has_target_feature(), "{:?}", f.fns[0].attrs);
        assert!(!f.unsafe_lines.is_empty());
    }

    #[test]
    fn inner_attrs_are_transparent_but_not_attached() {
        let src = "#![deny(missing_docs)]\npub fn first() {}\n";
        let f = parse_file("t.rs", src);
        assert!(f.fns[0].attrs.is_empty(), "{:?}", f.fns[0].attrs);
        assert!(f.attr_lines.contains(&1));
        assert_eq!(f.inner_attrs, ["deny(missing_docs)"]);
    }

    #[test]
    fn qualified_and_free_calls() {
        let src = "pub fn f() { helper(); Matrix::zeros(3, 4); crate::shard::sorted(); }";
        let f = parse_file("t.rs", src);
        let calls = &f.fns[0].calls;
        assert!(calls.iter().any(|c| c.kind == CallKind::Free && c.name == "helper"));
        assert!(calls.iter().any(|c| c.kind == CallKind::Qualified
            && c.name == "zeros"
            && c.qualifier.as_deref() == Some("Matrix")));
        assert!(calls.iter().any(|c| c.kind == CallKind::Qualified
            && c.name == "sorted"
            && c.qualifier.as_deref() == Some("shard")));
    }

    #[test]
    fn instant_now_detection() {
        let src = "pub fn t() { let _x = std::time::Instant::now(); }";
        let f = parse_file("t.rs", src);
        assert_eq!(f.instant_now.len(), 1);
        assert!(!f.instant_now[0].1);
    }

    #[test]
    fn hash_collection_entry_points() {
        let names =
            |src: &str| -> Vec<(String, u32, bool)> { parse_file("a.rs", src).hash_collections };
        let plain = "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) {}";
        assert_eq!(names(plain), vec![("HashMap".to_string(), 1, false)]);
        let group = "use std::collections::{\n    BTreeMap,\n    HashSet,\n};";
        assert_eq!(names(group), vec![("HashSet".to_string(), 1, false)]);
        let nested = "use std::{collections::{hash_map::Entry, HashMap as Map}, fmt};";
        assert_eq!(names(nested).len(), 1);
        let inline = "pub fn f() { let s: std::collections::HashSet<u8> = Default::default(); }";
        assert_eq!(names(inline), vec![("HashSet".to_string(), 1, false)]);
        let glob = "use std::collections::*;";
        assert_eq!(names(glob), vec![("*".to_string(), 1, false)]);
        let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
        assert!(names(in_tests)[0].2);
        // a use already imported, another crate's type, a string, a comment
        let quiet = "pub fn f(m: HashMap<u8, u8>, v: Vec<HashSet<u8>>) { let _ = indexmap::IndexMap::new(); let _s = \"std::collections::HashMap\"; } // std::collections::HashMap";
        assert!(names(quiet).is_empty());
        let not_a_group = "pub fn f() { let x: HashMap<u8, u8> = g(); }";
        assert!(names(not_a_group).is_empty());
    }

    #[test]
    fn fn_body_brace_not_confused_by_return_type() {
        let src = "pub fn mk(n: usize) -> [u8; 4] { [0; 4] }\npub fn next() {}";
        let f = parse_file("t.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].has_body);
    }

    #[test]
    fn trait_method_signature_has_no_body() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { self.sig() } }";
        let f = parse_file("t.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert!(!f.fns[0].has_body);
        assert!(f.fns[1].has_body);
    }

    #[test]
    fn multiline_attr_is_transparent() {
        let src = "\
// CONTRACT: zero-alloc
#[cfg_attr(
    feature = \"x\",
    inline
)]
pub fn hot() {}
";
        let f = parse_file("t.rs", src);
        assert!(f.fns[0].contracts.zero_alloc, "{:?}", f.fns[0]);
    }
}
