//! Metric declarations, the result line, and `--repeat` / `--compare`.
//!
//! The declarations here are the single source the result writer, the
//! README tables and `BENCHMARK.json` agree with (a unit test compares them
//! with the JSON file). JSON is rendered by hand; only `--compare` parses.

use crate::stats;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; 0 for
    /// per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Higher, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one; the
/// README says what each means per workload. On the shared two-core
/// reference box two sets of ten seeds, run half an hour apart, spread
/// (interquartile range over median) by at most 0.053 on throughput and
/// median latency, 0.021 on RSS and 0.071 on set-up in a quiet hour, with
/// medians at most 0.083 apart; in an hour when the box changed speed the
/// spreads reached 0.15 and the medians lay up to 0.20 apart. The timing
/// bounds are therefore the largest the contract allows. Tail latency
/// moved by 0.39 in that hour and is a per-layer metric
/// (`serve.latency_tail_us`) for that reason.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One ledger row per layer boundary; 0 where a workload never enters the
/// layer. README.md maps each to the end-to-end metric it should move.
pub const PER_LAYER: [MetricDecl; 60] = [
    higher("tensor.gemm.gflops", "Gflop/s"),
    lower("tensor.gemm.ns_per_task", "ns"),
    lower("core.plan.build_us", "us"),
    lower("core.plan.unique_ratio", "ratio"),
    higher("core.plan.reuse_ratio", "ratio"),
    lower("core.plan.gemm_tasks_per_step", "count"),
    lower("core.analysis.ms_per_step", "ms"),
    lower("core.forward.ms_per_step", "ms"),
    lower("core.backward.ms_per_step", "ms"),
    lower("core.backward.share", "ratio"),
    lower("dlrm.mlp.ms_per_step", "ms"),
    lower("dlrm.interaction.ms_per_step", "ms"),
    lower("dlrm.embed_dense.ms_per_step", "ms"),
    lower("dlrm.step_ms_p50", "ms"),
    lower("dlrm.step_ms_p95", "ms"),
    lower("dlrm.loss_final", "loss"),
    lower("reorder.fit_s", "s"),
    higher("reorder.reuse_gain", "ratio"),
    lower("data.batch_gen.ms_per_batch", "ms"),
    lower("gen.late_p99_us", "us"),
    lower("pipeline.server.gather.ms_per_batch", "ms"),
    lower("pipeline.server.apply.ms_per_batch", "ms"),
    lower("pipeline.server.cpu_share", "ratio"),
    lower("pipeline.server.h2d_bytes_per_batch", "B"),
    lower("pipeline.server.d2h_bytes_per_batch", "B"),
    lower("pipeline.cache.sync_us_per_batch", "us"),
    lower("pipeline.cache.insert_us_per_batch", "us"),
    lower("pipeline.cache.stale_hits_per_batch", "count"),
    lower("pipeline.cache.peak_kb", "kB"),
    higher("pipeline.trainer.worker_busy_share", "ratio"),
    lower("pipeline.trainer.worker_wait_share", "ratio"),
    lower("pipeline.trainer.loader_share", "ratio"),
    higher("pipeline.trainer.overlap_ratio", "ratio"),
    lower("pipeline.router.gather.ms_per_batch", "ms"),
    lower("pipeline.router.scatter_push.us_per_batch", "us"),
    lower("pipeline.router.shard_imbalance", "ratio"),
    lower("pipeline.replica.apply.ms_per_batch", "ms"),
    lower("pipeline.replica.append_overhead", "ratio"),
    lower("pipeline.replica.failovers", "count"),
    lower("serve.ingress.submit_ns", "ns"),
    higher("serve.window.batch_size_mean", "count"),
    lower("serve.window.wait_us_est", "us"),
    lower("serve.batches_per_s", "1/s"),
    lower("serve.shed_share", "ratio"),
    lower("serve.slo_miss_share", "ratio"),
    lower("serve.latency_tail_us", "us"),
    lower("serve.coalescer.us_per_batch", "us"),
    lower("serve.coalescer.dedup_ratio", "ratio"),
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.cache.evictions_per_s", "1/s"),
    lower("core.inference.lookup_us_per_request", "us"),
    higher("core.inference.hit_ratio", "ratio"),
    lower("proc.cpu_s", "s"),
    lower("proc.cpu_util", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    lower("trace.spans", "count"),
    lower("bench.tail_percentile", "%"),
    lower("bench.ops_attempted", "count"),
    lower("bench.ops_failed", "count"),
];

/// The values of one run, one slot per declared metric.
pub struct Ledger {
    decls: &'static [MetricDecl],
    values: Vec<f64>,
}

impl Ledger {
    pub fn new(decls: &'static [MetricDecl]) -> Self {
        Self { decls, values: vec![0.0; decls.len()] }
    }

    /// Records a declared metric; an undeclared name is a bug in the
    /// benchmark, caught by the smoke test.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[slot] = value;
    }

    pub fn rows(&self) -> impl Iterator<Item = (&MetricDecl, f64)> + '_ {
        self.decls.iter().zip(self.values.iter().copied())
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Ledger,
    /// Why `correct` is false, and anything else worth a line on stderr.
    pub notes: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// every declared metric once, each value with all its digits.
pub fn render_result(outcome: &Outcome) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (d, v)) in outcome.metrics.rows().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// The metric table for people, one `name value unit` row per metric.
pub fn render_table(outcome: &Outcome) -> String {
    let mut out = String::new();
    for (d, v) in outcome.metrics.rows() {
        let _ = writeln!(out, "  {:<44} {:>16.4} {}", d.name, v, d.unit);
    }
    out
}

// ---------------------------------------------------------------------------
// --repeat and --compare
// ---------------------------------------------------------------------------

/// Median and quartiles of one metric over repeated runs.
pub struct Summary {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            stats::spread(&self.values)
        }
    }
}

/// Pulls `metrics` out of a result line.
pub fn parse_result_metrics(line: &str) -> Result<Vec<(String, String, f64)>, String> {
    let v = serde_json::value_from_str(line).map_err(|e| format!("result line: {e}"))?;
    let map = v.as_map().ok_or("result line is not an object")?;
    let metrics = map
        .iter()
        .find(|(k, _)| k == "metrics")
        .and_then(|(_, m)| m.as_map())
        .ok_or("result line has no metrics object")?;
    let mut out = Vec::with_capacity(metrics.len());
    for (name, m) in metrics {
        let fields = m.as_map().ok_or("metric is not an object")?;
        let value = fields
            .iter()
            .find(|(k, _)| k == "value")
            .and_then(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        let unit = match fields.iter().find(|(k, _)| k == "unit") {
            Some((_, serde::Value::Str(s))) => s.clone(),
            _ => String::new(),
        };
        out.push((name.clone(), unit, value));
    }
    Ok(out)
}

/// Renders the `--repeat` document: provenance, then per workload and
/// metric the values, their median, quartiles and spread.
pub fn render_repeat(
    provenance: &[(&str, String)],
    workloads: &[(String, Vec<Summary>)],
) -> String {
    let mut out = String::from("{\"provenance\": {");
    for (i, (k, v)) in provenance.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": \"{v}\"");
    }
    out.push_str("}, \"workloads\": {");
    for (w, (name, summaries)) in workloads.iter().enumerate() {
        if w > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\n\"{name}\": {{");
        for (i, s) in summaries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let (q1, q3) = if s.values.len() >= 2 {
                stats::quartiles(&s.values)
            } else {
                (s.median(), s.median())
            };
            let values: Vec<String> = s.values.iter().map(|v| json_number(*v)).collect();
            let _ = write!(
                out,
                "\n  \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"spread\": {}, \"values\": [{}]}}",
                s.name,
                s.unit,
                json_number(s.median()),
                json_number(q1),
                json_number(q3),
                json_number(s.spread()),
                values.join(", ")
            );
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// Judges one end-to-end metric of one workload: `b` against the parent
/// `a`. Unresolved when either side's spread exceeds the bound — the runs
/// cannot tell a regression of that size from noise.
pub fn judge(decl: &MetricDecl, a: &Summary, b: &Summary) -> Verdict {
    if a.spread() > decl.bound || b.spread() > decl.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (a.median(), b.median());
    let worse_by = match decl.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > decl.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

struct RepeatDoc {
    provenance: Vec<(String, String)>,
    workloads: Vec<(String, Vec<Summary>)>,
}

fn parse_repeat(text: &str) -> Result<RepeatDoc, String> {
    let v = serde_json::value_from_str(text).map_err(|e| e.to_string())?;
    let top = v.as_map().ok_or("not a --repeat document")?;
    let field = |k: &str| top.iter().find(|(name, _)| name == k).map(|(_, v)| v);
    let provenance = field("provenance")
        .and_then(|p| p.as_map())
        .ok_or("no provenance")?
        .iter()
        .map(|(k, v)| {
            let v = match v {
                serde::Value::Str(s) => s.clone(),
                _ => String::new(),
            };
            (k.clone(), v)
        })
        .collect();
    let mut workloads = Vec::new();
    for (w, metrics) in field("workloads").and_then(|w| w.as_map()).ok_or("no workloads")? {
        let mut summaries = Vec::new();
        for (name, m) in metrics.as_map().ok_or("workload is not an object")? {
            let fields = m.as_map().ok_or("metric is not an object")?;
            let values = fields
                .iter()
                .find(|(k, _)| k == "values")
                .and_then(|(_, v)| v.as_seq())
                .ok_or("metric has no values")?
                .iter()
                .filter_map(|v| v.as_f64())
                .collect();
            summaries.push(Summary { name: name.clone(), unit: String::new(), values });
        }
        workloads.push((w.clone(), summaries));
    }
    Ok(RepeatDoc { provenance, workloads })
}

/// Compares two `--repeat` documents row by row. Refuses when they were
/// not measured alike. Returns the report and whether every row is within
/// its bound.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_repeat(a_text)?, parse_repeat(b_text)?);
    for key in ["nproc", "rayon_threads", "kernel"] {
        let get =
            |d: &RepeatDoc| d.provenance.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        if get(&a) != get(&b) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                get(&a),
                get(&b)
            ));
        }
    }
    let mut out = String::new();
    let mut all_within = true;
    for (w, sa) in &a.workloads {
        let Some((_, sb)) = b.workloads.iter().find(|(name, _)| name == w) else {
            continue;
        };
        for decl in &END_TO_END {
            let (Some(ma), Some(mb)) =
                (sa.iter().find(|s| s.name == decl.name), sb.iter().find(|s| s.name == decl.name))
            else {
                continue;
            };
            let verdict = judge(decl, ma, mb);
            all_within &= verdict == Verdict::Within;
            let _ = writeln!(
                out,
                "{w:<18} {:<18} {:>14.4} -> {:>14.4} {:<4} spread {:.3}/{:.3} bound {:.2}  {}",
                decl.name,
                ma.median(),
                mb.median(),
                decl.unit,
                ma.spread(),
                mb.spread(),
                decl.bound,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
    }
    Ok((out, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name, 64), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "metric {} declared twice", d.name);
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(name_ok(w.name, 64), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "name {} used twice", w.name);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn result_line_emits_every_declared_metric_exactly_once() {
        for decls in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut metrics = Ledger::new(decls);
            metrics.set(decls[0].name, 1.25);
            let outcome =
                Outcome { correct: true, attempted: 7, failed: 0, metrics, notes: Vec::new() };
            let line = render_result(&outcome);
            assert!(!line.contains('\n'));
            for d in decls {
                let key = format!("\"{}\": {{\"value\"", d.name);
                assert_eq!(line.matches(&key).count(), 1, "{} not emitted once", d.name);
            }
            let parsed = parse_result_metrics(&line).expect("the writer emits valid JSON");
            assert_eq!(parsed.len(), decls.len());
            assert_eq!(parsed[0].2, 1.25);
            assert_eq!(parsed[0].1, decls[0].unit);
            let top = serde_json::value_from_str(&line).unwrap();
            let keys: Vec<&str> = top.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn setting_an_undeclared_metric_is_a_bug() {
        Ledger::new(&END_TO_END).set("no.such.metric", 1.0);
    }

    /// `BENCHMARK.json` lists exactly the declared workloads and metrics.
    #[test]
    fn benchmark_json_agrees_with_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let v = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        let top = v.as_map().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let list = |k: &str| top.iter().find(|(n, _)| n == k).unwrap().1.as_seq().unwrap();
        let text_of = |m: &serde::Value, k: &str| -> String {
            match m.as_map().unwrap().iter().find(|(n, _)| n == k) {
                Some((_, serde::Value::Str(s))) => s.clone(),
                other => panic!("{k}: {other:?}"),
            }
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(text_of(j, "name"), w.name);
            assert_eq!(text_of(j, "why"), w.why);
            assert_eq!(j.as_map().unwrap().len(), 2);
        }
        for (key, decls) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let metrics = list(key);
            assert_eq!(metrics.len(), decls.len(), "{key} length");
            for (j, d) in metrics.iter().zip(decls) {
                assert_eq!(text_of(j, "name"), d.name);
                assert_eq!(text_of(j, "unit"), d.unit);
                assert_eq!(text_of(j, "better"), d.better.as_str());
                let fields = j.as_map().unwrap();
                match fields.iter().find(|(n, _)| n == "bound") {
                    Some((_, b)) => {
                        assert_eq!(key, "end_to_end");
                        assert!((b.as_f64().unwrap() - d.bound).abs() < 1e-12, "{} bound", d.name);
                        assert_eq!(fields.len(), 4);
                    }
                    None => {
                        assert_eq!(key, "per_layer");
                        assert_eq!(fields.len(), 3);
                    }
                }
            }
        }
    }

    fn summary(name: &str, values: &[f64]) -> Summary {
        Summary { name: name.to_string(), unit: String::new(), values: values.to_vec() }
    }

    #[test]
    fn judge_separates_within_worse_and_unresolved() {
        let thr = END_TO_END.iter().find(|d| d.name == "throughput_per_s").unwrap();
        let base = summary(thr.name, &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = summary(thr.name, &[99.0, 100.0, 98.5, 99.5, 100.5]);
        let slow = summary(thr.name, &[70.0, 71.0, 69.0, 70.5, 69.5]);
        let noisy = summary(thr.name, &[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(judge(thr, &base, &same), Verdict::Within);
        assert_eq!(judge(thr, &base, &slow), Verdict::Worse);
        assert_eq!(judge(thr, &base, &noisy), Verdict::Unresolved);
        // higher-is-better: faster is never worse
        assert_eq!(judge(thr, &slow, &base), Verdict::Within);
        let lat = END_TO_END.iter().find(|d| d.name == "latency_p50_us").unwrap();
        let l0 = summary(lat.name, &[200.0, 201.0, 199.0, 200.0, 200.5]);
        let l1 = summary(lat.name, &[270.0, 271.0, 269.0, 270.0, 270.5]);
        assert_eq!(judge(lat, &l0, &l1), Verdict::Worse);
        assert_eq!(judge(lat, &l1, &l0), Verdict::Within);
    }

    #[test]
    fn compare_round_trips_repeat_documents_and_refuses_mismatched_provenance() {
        let prov = |kernel: &str| {
            vec![
                ("nproc", "2".to_string()),
                ("rayon_threads", "2".to_string()),
                ("kernel", kernel.to_string()),
            ]
        };
        let doc = |kernel: &str, thr: &[f64]| {
            render_repeat(
                &prov(kernel),
                &[("train_tt_skew".to_string(), vec![summary("throughput_per_s", thr)])],
            )
        };
        let a = doc("avx2", &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let b = doc("avx2", &[70.0, 71.0, 69.0, 70.5, 69.5]);
        let (report, ok) = compare(&a, &a).unwrap();
        assert!(ok && report.contains("within bound"));
        let (report, ok) = compare(&a, &b).unwrap();
        assert!(!ok && report.contains("WORSE"));
        let err = compare(&a, &doc("portable", &[100.0, 100.0])).unwrap_err();
        assert!(err.contains("kernel differs"));
    }
}
