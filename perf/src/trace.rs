//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark's own files around calls into each
//! layer's public functions (the program itself carries no spans yet). A
//! span has a name, a start, an end, the span that caused it, and an
//! operation id — the step or request-batch number — shared by every span
//! of one operation. The buffer is preallocated and written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the buffer, `u32::MAX` for a root.
    pub parent: u32,
    /// Step or request-batch number.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn is_root(&self) -> bool {
        self.parent == NO_PARENT
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// In-memory span buffer with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(capacity), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, op });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Records a child of the innermost open span whose interval is known
    /// only after the fact — the first `duration_ns` of the open span (how
    /// a layer's own stage counter is folded into the tree).
    pub fn child_prefix(&mut self, name: &'static str, duration_ns: u64) {
        let Some(&parent) = self.open.last() else { return };
        let p = self.spans[parent as usize];
        let end_ns = (p.start_ns + duration_ns).min(self.now_ns());
        self.spans.push(Span { name, start_ns: p.start_ns, end_ns, parent, op: p.op });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time and call count of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Self time per span name: a span's duration minus the part of its
/// interval its direct children cover. Root spans are reported under their
/// own name; their self time is what no layer call accounts for.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if !s.is_root() {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(&covered) {
        let e = out.entry(s.name).or_default();
        e.self_ns += s.duration_ns().saturating_sub(*cov);
        e.calls += 1;
    }
    out
}

/// Wall time under root spans, and the share of it that is root self time
/// (time inside an operation but outside every layer span).
pub fn unattributed_share(spans: &[Span]) -> (u64, f64) {
    let mut covered = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| !s.is_root()) {
        covered[s.parent as usize] += s.duration_ns();
    }
    let (mut wall, mut loose) = (0u64, 0u64);
    for (s, cov) in spans.iter().zip(&covered).filter(|(s, _)| s.is_root()) {
        wall += s.duration_ns();
        loose += s.duration_ns().saturating_sub(*cov);
    }
    (wall, if wall == 0 { 0.0 } else { loose as f64 / wall as f64 })
}

/// Renders the buffer as one JSON document: `{"workload", "seed", "spans":
/// [{"name","start_ns","end_ns","parent","op"}]}` (`parent` is the index of
/// the enclosing span in `spans`, or -1).
pub fn render_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.is_root() { -1 } else { i64::from(s.parent) };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // step [0,100] -> a [10,40] -> a1 [15,25]; step -> b [50,90]
        let spans = [
            span("step", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["step"], SelfTime { self_ns: 100 - 30 - 40, calls: 1 });
        assert_eq!(st["a"], SelfTime { self_ns: 30 - 10, calls: 1 });
        assert_eq!(st["a1"], SelfTime { self_ns: 10, calls: 1 });
        assert_eq!(st["b"], SelfTime { self_ns: 40, calls: 1 });
        // every nanosecond of the root is attributed exactly once
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
        let (wall, share) = unattributed_share(&spans);
        assert_eq!(wall, 100);
        assert!((share - 0.30).abs() < 1e-12);
    }

    #[test]
    fn same_name_spans_accumulate_across_operations() {
        let spans = [
            span("step", 0, 10, NO_PARENT),
            span("x", 2, 6, 0),
            span("step", 10, 30, NO_PARENT),
            span("x", 12, 28, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st["x"], SelfTime { self_ns: 20, calls: 2 });
        assert_eq!(st["step"], SelfTime { self_ns: 10, calls: 2 });
    }

    #[test]
    fn tracer_nests_by_open_stack_and_renders() {
        let mut t = Tracer::with_capacity(8);
        let root = t.enter("step", 7);
        let a = t.enter("a", 7);
        t.child_prefix("a.plan", 0);
        t.exit(a);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert!(s[0].is_root());
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[2].op, 7);
        assert!(s[0].end_ns >= s[1].end_ns);
        let json = render_json("w", 1, s);
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert!(json.contains("\"parent\":-1"));
    }
}
