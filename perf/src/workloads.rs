//! The six workloads: what each runs, how much of it, and how the numbers
//! the harnesses hand back become metrics.
//!
//! Work is fixed, not time-boxed: every workload runs a committed amount of
//! work per second of `--seconds` (sized so the timed region takes about
//! that long on the two-core reference box), so every commit runs the same
//! operations and a faster commit simply finishes sooner.
//!
//! Each timed region is cut into equal segments; throughput and median
//! latency are computed per segment, and the run reports the *best
//! segment's* value of each (the lowest latency, the highest throughput).
//! On the shared two-core reference box other tenants take CPU from the
//! benchmark — a plain ALU loop varies 2x within seconds and whole minutes
//! run 1.4–1.7x slow — and they only ever slow it down, so the best segment
//! is the closest estimate of what the code does on an undisturbed machine
//! (the reasoning `crates/bench/benches/train_throughput.rs` already uses for
//! its best-of-N). Measured over two sets of ten seeds, one of which ran
//! into a slow spell, the best segment moved 14 % where the third quartile
//! moved 29 % and the median 36 %. A real regression moves every segment.

use crate::layers::{
    ChunkOut, HostedBench, HostedSpec, ServeBench, ServeOut, ServeSpec, TtBench, TtSpec,
};
use crate::report::{Better, Ledger, Outcome, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Tracer};
use std::time::Instant;

/// Set-ups an untraced run builds before its timed region, at least.
const SETUP_MIN_REPS: usize = 2;

/// Shares of `--seconds` an untraced run spends repeating set-up: before
/// its timed region, and again after it.
const SETUP_SHARE_BEFORE: f64 = 0.2;
const SETUP_SHARE_AFTER: f64 = 0.1;

/// Segments an open-loop schedule is cut into.
const SERVE_SEGMENTS: usize = 10;

/// A request answered later than this misses the serving SLO.
const SLO_LIMIT_US: f64 = 2_000.0;

/// Steps trained twice — entry point against decomposed path — to check
/// bit-identity on every run.
const VERIFY_STEPS: usize = 3;

/// Batches each pipeline topology trains to check they train the same bytes.
const VERIFY_BATCHES: u64 = 8;

pub enum Kind {
    /// Closed loop, one trainer thread calling `DlrmModel::train_step`.
    TrainTt { spec: TtSpec, segment_steps: usize, segments_per_s: f64 },
    /// Closed loop, `PipelineTrainer` over the given topology.
    TrainHosted { spec: HostedSpec, segment_batches: u64, segments_per_s: f64, warm_batches: u64 },
    /// Open loop, Poisson arrivals into `el_serve::serve`.
    Serve { spec: ServeSpec, need_evictions: bool },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What runs, and how much of it per second of `--seconds`: segments
    /// for the train kinds, `spec.rps` requests for the serve kind.
    pub kind: Kind,
}

const TT_SKEW: TtSpec = TtSpec {
    scale: 0.01,
    zipf: 1.1,
    batch: 2048,
    indices_per_sample: 4,
    reorder: true,
    uniform_tt_indices: false,
    pool: 8,
    tt_min_rows: 4_000,
};

const TT_FLAT: TtSpec = TtSpec {
    zipf: 0.05,
    batch: 256,
    indices_per_sample: 1,
    reorder: false,
    uniform_tt_indices: true,
    ..TT_SKEW
};

const HOSTED: HostedSpec = HostedSpec {
    scale: 0.01,
    batch: 1024,
    host_min_rows: 2_000,
    prefetch_depth: 4,
    shards: 1,
    replicas: 1,
};

const SERVE_LOW: ServeSpec = ServeSpec {
    rps: 1_000.0,
    rows: 1_000_000,
    indices_per_request: 8,
    zipf: 1.05,
    tenants: 4,
    warm_requests: 2_000,
    checked_responses: 64,
};

/// Closed-loop saturation of the default `ServeConfig` on the two-core
/// reference box measured 118–126 k requests/s. Open loop, the generator
/// thread takes one of the two cores and a noisy neighbour up to 40 % of
/// both; a tenant sheds once 256 of its requests are in flight, which at
/// rate r is a stall of 1024 / r seconds. 72 k (60 % of saturation), 56 k
/// and 40 k shed in some runs and 24 k in 2 of 40, and a workload must not
/// fail operations: 16 k rides out a 64 ms stall and still fills the
/// window four deep.
const SERVE_HIGH_RPS: f64 = 16_000.0;

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_tt_skew",
        why: "closed loop, train_step on large Zipf-1.1 reordered multi-hot batches, every big table TT: where prefix reuse, in-advance aggregation and the batched GEMM have the most work to remove",
        kind: Kind::TrainTt { spec: TT_SKEW, segment_steps: 11, segments_per_s: 1.0 },
    },
    Workload {
        name: "train_tt_flat",
        why: "closed loop, same model and code path on small uniform one-hot batches: dedup finds nothing, so plan building and per-call overhead are pure cost",
        kind: Kind::TrainTt { spec: TT_FLAT, segment_steps: 50, segments_per_s: 2.0 },
    },
    Workload {
        name: "train_hosted",
        why: "closed loop, PipelineTrainer on the Fig 16 placement with one HostServer: gather, apply, the embedding cache, the two queues and the loader carry the run",
        kind: Kind::TrainHosted {
            spec: HOSTED,
            segment_batches: 15,
            segments_per_s: 2.0,
            warm_batches: 8,
        },
    },
    Workload {
        name: "train_hosted_n2k2",
        why: "the same model, data and batches through 2 shards x 2 replicas: adds only router scatter/stitch and replica append, so the gap to train_hosted is the price of the topology",
        kind: Kind::TrainHosted {
            spec: HostedSpec { shards: 2, replicas: 2, ..HOSTED },
            segment_batches: 15,
            segments_per_s: 2.0,
            warm_batches: 8,
        },
    },
    Workload {
        name: "serve_low",
        why: "open loop, Poisson 1000 requests/s into the default serving tier: nothing to coalesce, so the batching window is pure latency",
        kind: Kind::Serve { spec: SERVE_LOW, need_evictions: false },
    },
    Workload {
        name: "serve_high",
        why: "open loop, Poisson 16000 requests/s (an eighth of closed-loop saturation): coalescing, cross-request dedup and the prefix cache earn their keep, and the table outgrows the cache",
        kind: Kind::Serve {
            spec: ServeSpec { rps: SERVE_HIGH_RPS, ..SERVE_LOW },
            need_evictions: true,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub trace_dir: std::path::PathBuf,
}

/// Runs one workload once and returns its result.
pub fn run(w: &Workload, args: &RunArgs) -> Outcome {
    let mut check = Check::default();
    let mut ledger = Ledger::new(if args.trace { &PER_LAYER } else { &END_TO_END });
    let segments = |per_s: f64| ((args.seconds * per_s).round() as usize).max(1);
    let (attempted, failed) = match &w.kind {
        Kind::TrainTt { spec, segment_steps, segments_per_s } => {
            let segments = segments(*segments_per_s);
            if args.trace {
                let steps = segment_steps * (segments / 4).max(1);
                tt_traced(w, spec, steps, args, &mut ledger, &mut check)
            } else {
                tt_untraced(spec, *segment_steps, segments, args, &mut ledger, &mut check)
            }
        }
        Kind::TrainHosted { spec, segment_batches, segments_per_s, warm_batches } => {
            let segments = segments(*segments_per_s);
            let harness = (spec, *warm_batches);
            if args.trace {
                let batches = segment_batches * (segments as u64 / 4).max(1);
                hosted_traced(w, harness, batches, args, &mut ledger, &mut check)
            } else {
                hosted_untraced(harness, *segment_batches, segments, args, &mut ledger, &mut check)
            }
        }
        Kind::Serve { spec, need_evictions } => {
            let timed = (spec.rps * args.seconds) as usize;
            if args.trace {
                let timed = (timed / 4).max(64);
                serve_traced(w, spec, timed, *need_evictions, args, &mut ledger, &mut check)
            } else {
                serve_untraced(spec, timed.max(64), *need_evictions, args, &mut ledger, &mut check)
            }
        }
    };
    if args.trace {
        ledger.set("bench.ops_attempted", attempted as f64);
        ledger.set("bench.ops_failed", failed as f64);
    }
    Outcome {
        correct: check.failures.is_empty(),
        attempted,
        failed,
        metrics: ledger,
        notes: check.failures,
    }
}

/// `--smoke`: every workload, both modes, at a fiftieth of the run length.
pub fn smoke(run_seconds: f64, trace_dir: &std::path::Path) -> Vec<(&'static str, bool, Outcome)> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 2022,
                seconds: run_seconds / 50.0,
                trace,
                trace_dir: trace_dir.to_path_buf(),
            };
            out.push((w.name, trace, run(w, &args)));
        }
    }
    out
}

/// Collects correctness failures; a run is correct when there are none.
#[derive(Default)]
struct Check {
    failures: Vec<String>,
}

impl Check {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn result(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.failures.push(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (clock ticks are 1/100 s on
/// Linux; 0 where `/proc` is missing).
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name: state is field 3,
            // utime and stime are fields 14 and 15.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// The repeated set-ups of one untraced run. A set-up is tens of
/// milliseconds to a second of allocation, thread start-up and warm-up,
/// which a busy neighbour slows far more than it slows the timed region's
/// arithmetic: seven set-ups in a row (0.3 s on `serve_low`) all ran 1.4x
/// slow in whole series of runs. So a run builds its harness for a fifth of
/// `--seconds` before the timed region and for another tenth after it — a
/// hundred builds on `serve_low`, three on `train_tt_skew`, more than
/// `--seconds` apart — and reports the fastest, phase by phase (see the
/// module docs): a build made of a single-threaded phase and a threaded one
/// is rarely lucky in both at once: the fastest whole build of `serve_low`
/// moved 0.024–0.040 s with the state of the box, the sum of its fastest
/// phases 0.022–0.027 s.
struct SetUps {
    seconds: f64,
    /// Seconds each build spent in each phase: `phases[phase][build]`.
    phases: Vec<Vec<f64>>,
}

/// Handed to a build, which marks where one phase ends and the next begins.
struct Lap<'a> {
    since: Instant,
    phase: usize,
    phases: &'a mut Vec<Vec<f64>>,
}

impl Lap<'_> {
    fn mark(&mut self) {
        let now = Instant::now();
        if self.phases.len() == self.phase {
            self.phases.push(Vec::new());
        }
        self.phases[self.phase].push((now - self.since).as_secs_f64());
        self.since = now;
        self.phase += 1;
    }
}

impl SetUps {
    fn new(args: &RunArgs) -> Self {
        Self { seconds: args.seconds, phases: Vec::new() }
    }

    /// Builds the harness until `share` of `--seconds` has passed, at least
    /// `min_reps` times, and returns the last build. Each build is dropped
    /// before the next starts, so two never hold memory at once.
    fn repeat<T>(
        &mut self,
        min_reps: usize,
        share: f64,
        mut build: impl FnMut(&mut Lap) -> T,
    ) -> T {
        let began = Instant::now();
        let mut last = None;
        let mut reps = 0;
        while reps < min_reps.max(1) || began.elapsed().as_secs_f64() < share * self.seconds {
            drop(last.take());
            let mut lap = Lap { since: Instant::now(), phase: 0, phases: &mut self.phases };
            last = Some(build(&mut lap));
            lap.mark();
            reps += 1;
        }
        last.expect("at least one build")
    }

    fn before<T>(&mut self, build: impl FnMut(&mut Lap) -> T) -> T {
        self.repeat(SETUP_MIN_REPS, SETUP_SHARE_BEFORE, build)
    }

    /// The builds after the timed region; sets `setup_s`.
    fn after<T>(&mut self, ledger: &mut Ledger, build: impl FnMut(&mut Lap) -> T) {
        drop(self.repeat(1, SETUP_SHARE_AFTER, build));
        let fastest: Vec<f64> = self.phases.iter().map(|p| best(p, Better::Lower)).collect();
        let mut whole: Vec<f64> =
            (0..self.phases[0].len()).map(|b| self.phases.iter().map(|p| p[b]).sum()).collect();
        whole.sort_by(f64::total_cmp);
        eprintln!(
            "set-up: {} builds, fastest phases {:.4?} s; whole builds {:.4} to {:.4} s, median {:.4} s",
            whole.len(),
            fastest,
            whole[0],
            whole[whole.len() - 1],
            stats::percentile(&whole, 50.0)
        );
        ledger.set("setup_s", fastest.iter().sum());
    }
}

/// The best of per-segment values (see the module docs).
fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Per-segment throughput, median latency and tail latency of a run.
#[derive(Default)]
struct Segments {
    rate: Vec<f64>,
    p50_us: Vec<f64>,
    tail_us: Vec<f64>,
    tail_percentile: f64,
}

impl Segments {
    /// Closes a segment that completed `ops` operations in `seconds`, with
    /// the given per-operation latencies.
    fn push(&mut self, ops: f64, seconds: f64, latencies_us: &[f64]) {
        if latencies_us.is_empty() {
            return;
        }
        let (p50, tail, p) = stats::median_and_tail(latencies_us);
        self.rate.push(ops / seconds.max(1e-12));
        self.p50_us.push(p50);
        self.tail_us.push(tail);
        self.tail_percentile = p;
    }

    fn set(&self, ledger: &mut Ledger) {
        let show = |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" ");
        eprintln!("per segment: ops/s     {}", show(&self.rate));
        eprintln!("per segment: p50 us    {}", show(&self.p50_us));
        eprintln!("per segment: p{} us  {}", self.tail_percentile, show(&self.tail_us));
        ledger.set("throughput_per_s", best(&self.rate, Better::Higher));
        ledger.set("latency_p50_us", best(&self.p50_us, Better::Lower));
    }
}

fn loss_means(losses: &[f32]) -> (f64, f64) {
    let tenth = (losses.len() / 10).max(1);
    let mean = |s: &[f32]| s.iter().map(|&l| f64::from(l)).sum::<f64>() / s.len().max(1) as f64;
    (mean(&losses[..tenth.min(losses.len())]), mean(&losses[losses.len().saturating_sub(tenth)..]))
}

fn check_losses(losses: &[f32], check: &mut Check) -> u64 {
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    check.require(bad == 0, || format!("{bad} non-finite losses"));
    // A handful of steps need not lower the loss; a real run must.
    let (first, last) = loss_means(losses);
    check.require(losses.len() < 20 || last < first, || {
        format!("loss did not fall: first tenth {first:.5}, last tenth {last:.5}")
    });
    bad
}

fn write_trace(w: &Workload, args: &RunArgs, tr: &Tracer) {
    let path = args.trace_dir.join(format!("{}.trace.json", w.name));
    let written = std::fs::create_dir_all(&args.trace_dir)
        .and_then(|()| std::fs::write(&path, trace::render_json(w.name, args.seed, tr.spans())));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Milliseconds of self time under `name`, per operation.
fn self_ms(
    st: &std::collections::BTreeMap<&'static str, trace::SelfTime>,
    name: &str,
    ops: f64,
) -> f64 {
    st.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6 / ops.max(1.0))
}

/// Sets the `trace.*` rows: unattributed share of the traced wall, and the
/// traced path's time over the untraced path's for the same operations.
fn set_trace_rows(
    ledger: &mut Ledger,
    tr: &Tracer,
    traced_s: f64,
    untraced_s: f64,
    check: &mut Check,
) {
    let (_, unattributed) = trace::unattributed_share(tr.spans());
    ledger.set("trace.unattributed_share", unattributed);
    ledger.set("trace.overhead_share", traced_s / untraced_s.max(1e-12) - 1.0);
    ledger.set("trace.spans", tr.spans().len() as f64);
    check.require(unattributed <= 0.05, || {
        format!("{:.1} % of the traced wall is outside every layer span", unattributed * 100.0)
    });
}

// ---------------------------------------------------------------------------
// train_tt_*
// ---------------------------------------------------------------------------

fn tt_untraced(
    spec: &TtSpec,
    segment_steps: usize,
    segments: usize,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    let mut setups = SetUps::new(args);
    let mut bench = setups.before(|_| TtBench::build(spec, args.seed));
    eprintln!("inputs hash {:016x}", bench.inputs_hash());
    let steps = segment_steps * segments;
    let mut losses = Vec::with_capacity(steps);
    let mut segs = Segments::default();
    let mut step_us = Vec::with_capacity(segment_steps);
    for seg in 0..segments {
        step_us.clear();
        let t0 = Instant::now();
        for i in 0..segment_steps {
            let s0 = Instant::now();
            losses.push(bench.step(seg * segment_steps + i));
            step_us.push(s0.elapsed().as_secs_f64() * 1e6);
        }
        let ops = (segment_steps * bench.batch_size()) as f64;
        segs.push(ops, t0.elapsed().as_secs_f64(), &step_us);
    }
    segs.set(ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());

    let failed = check_losses(&losses, check);
    check.result(bench.verify_decomposed(VERIFY_STEPS));
    drop(bench);
    setups.after(ledger, |_| TtBench::build(spec, args.seed));
    (steps as u64, failed)
}

fn tt_traced(
    w: &Workload,
    spec: &TtSpec,
    steps: usize,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    let mut bench = TtBench::build(spec, args.seed);
    let ops = steps as f64;

    // The entry point, with the program's own stage counters read around it.
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let stage0 = bench.stage_ns();
    let mut step_ms = Vec::with_capacity(steps);
    let mut losses = Vec::with_capacity(steps);
    for i in 0..steps {
        let s0 = Instant::now();
        losses.push(bench.step(i));
        step_ms.push(s0.elapsed().as_secs_f64() * 1e3);
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let stage1 = bench.stage_ns();
    let stage_ms = |a: u64, b: u64| (b - a) as f64 / 1e6 / ops;
    ledger.set("core.analysis.ms_per_step", stage_ms(stage0.0, stage1.0));
    ledger.set("core.forward.ms_per_step", stage_ms(stage0.1, stage1.1));
    ledger.set("core.backward.ms_per_step", stage_ms(stage0.2, stage1.2));
    ledger.set("core.backward.share", (stage1.2 - stage0.2) as f64 / 1e9 / untraced_s);
    step_ms.sort_by(f64::total_cmp);
    ledger.set("dlrm.step_ms_p50", stats::percentile(&step_ms, 50.0));
    ledger.set("dlrm.step_ms_p95", stats::percentile(&step_ms, 95.0));
    ledger.set("dlrm.loss_final", loss_means(&losses).1);
    ledger.set("proc.cpu_s", cpu_s);
    ledger.set("proc.cpu_util", cpu_s / (untraced_s * nproc()));

    // The same steps again through the decomposed path, with spans.
    let mut tr = Tracer::with_capacity(steps * 160);
    let t0 = Instant::now();
    for i in 0..steps {
        losses.push(bench.traced_step(i, &mut tr));
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let st = trace::self_times(tr.spans());
    ledger.set("dlrm.mlp.ms_per_step", self_ms(&st, "dlrm.mlp", ops));
    ledger.set("dlrm.interaction.ms_per_step", self_ms(&st, "dlrm.interaction", ops));
    ledger.set("dlrm.embed_dense.ms_per_step", self_ms(&st, "dlrm.embed_dense", ops));
    set_trace_rows(ledger, &tr, traced_s, untraced_s, check);
    write_trace(w, args, &tr);

    // Layer calls on the workload's own inputs.
    let plan = bench.plan_probe();
    ledger.set("core.plan.build_us", plan.build_us);
    ledger.set("core.plan.unique_ratio", plan.unique_ratio);
    ledger.set("core.plan.reuse_ratio", plan.reuse_ratio);
    ledger.set("core.plan.gemm_tasks_per_step", plan.gemm_tasks_per_step);
    let gemm = bench.gemm_probe();
    ledger.set("tensor.gemm.gflops", gemm.gflops);
    ledger.set("tensor.gemm.ns_per_task", gemm.ns_per_task);
    ledger.set("reorder.fit_s", bench.reorder_fit_s);
    ledger.set("reorder.reuse_gain", bench.reorder_gain());
    ledger.set("data.batch_gen.ms_per_batch", bench.batch_gen_ms());

    let failed = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    check.require(failed == 0, || format!("{failed} non-finite losses"));
    check.result(bench.verify_decomposed(VERIFY_STEPS));
    (2 * steps as u64, failed)
}

// ---------------------------------------------------------------------------
// train_hosted*
// ---------------------------------------------------------------------------

fn chunk_failed(chunk: &ChunkOut) -> u64 {
    let incomplete = chunk.requested - (chunk.losses.len() as u64).min(chunk.requested);
    incomplete + chunk.losses.iter().filter(|l| !l.is_finite()).count() as u64
}

/// Both topologies from the same seed must train the same losses and the
/// same hosted-table bytes (the repo's byte-identity invariant).
fn verify_topologies(spec: &HostedSpec, seed: u64, check: &mut Check) {
    let mut single = HostedBench::build(&HostedSpec { shards: 1, replicas: 1, ..*spec }, seed, 0);
    let mut tiered = HostedBench::build(&HostedSpec { shards: 2, replicas: 2, ..*spec }, seed, 0);
    let a = single.run_chunk(VERIFY_BATCHES);
    let b = tiered.run_chunk(VERIFY_BATCHES);
    let same_losses = a.losses.len() == b.losses.len()
        && a.losses.iter().zip(&b.losses).all(|(x, y)| x.to_bits() == y.to_bits());
    check.require(same_losses, || "N=1,K=1 and N=2,K=2 trained different losses".to_string());
    check.require(single.tables_hash() == tiered.tables_hash(), || {
        "N=1,K=1 and N=2,K=2 trained different hosted-table bytes".to_string()
    });
    check.require(b.failovers == 0, || format!("{} failovers without a kill drill", b.failovers));
}

fn hosted_untraced(
    (spec, warm_batches): (&HostedSpec, u64),
    segment_batches: u64,
    segments: usize,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    let mut setups = SetUps::new(args);
    let mut bench = setups.before(|_| HostedBench::build(spec, args.seed, warm_batches));
    eprintln!(
        "inputs hash {:016x} ({} hosted tables)",
        bench.inputs_hash(VERIFY_BATCHES),
        bench.hosted_tables()
    );
    let mut segs = Segments::default();
    let mut losses = Vec::new();
    let (mut failed, mut failovers) = (0u64, 0u64);
    for _ in 0..segments {
        let chunk = bench.run_chunk(segment_batches);
        let done = chunk.losses.len() as f64;
        // The pipeline exposes no per-batch times: a segment's one latency
        // sample is its wall time per batch.
        segs.push(
            done * bench.batch_size() as f64,
            chunk.wall_s,
            &[chunk.wall_s * 1e6 / done.max(1.0)],
        );
        failed += chunk_failed(&chunk);
        failovers += chunk.failovers;
        if let Some(cause) = &chunk.failure {
            check.failures.push(format!("pipeline stopped early: {cause}"));
        }
        losses.extend(chunk.losses);
    }
    segs.set(ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());
    drop(bench);
    setups.after(ledger, |_| HostedBench::build(spec, args.seed, warm_batches));

    check_losses(&losses, check);
    check.require(failovers == 0, || format!("{failovers} failovers without a kill drill"));
    verify_topologies(spec, args.seed, check);
    (segment_batches * segments as u64, failed)
}

fn hosted_traced(
    w: &Workload,
    (spec, warm_batches): (&HostedSpec, u64),
    batches: u64,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    // Two same-seed harnesses: one runs the threaded entry point, the other
    // the decomposed pipeline, over the same batches from the same state.
    let mut threaded = HostedBench::build(spec, args.seed, warm_batches);
    let mut stepped = HostedBench::build(spec, args.seed, warm_batches);
    let ops = batches as f64;

    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let chunk = threaded.run_chunk(batches);
    let untraced_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let wall = chunk.wall_s.max(1e-12);
    ledger.set("pipeline.server.cpu_share", chunk.server_cpu_s / wall);
    ledger.set("pipeline.server.h2d_bytes_per_batch", chunk.h2d_bytes as f64 / ops);
    ledger.set("pipeline.server.d2h_bytes_per_batch", chunk.d2h_bytes as f64 / ops);
    ledger.set("pipeline.cache.stale_hits_per_batch", chunk.stale_hits as f64 / ops);
    ledger.set("pipeline.cache.peak_kb", chunk.cache_peak_bytes as f64 / 1024.0);
    ledger.set("pipeline.trainer.worker_busy_share", chunk.worker_s / wall);
    ledger.set("pipeline.trainer.worker_wait_share", (1.0 - chunk.worker_s / wall).max(0.0));
    ledger.set("pipeline.trainer.loader_share", chunk.loader_cpu_s / wall);
    ledger.set(
        "pipeline.trainer.overlap_ratio",
        (chunk.server_cpu_s + chunk.loader_cpu_s + chunk.worker_s) / wall,
    );
    ledger.set("pipeline.replica.failovers", chunk.failovers as f64);
    ledger.set("dlrm.loss_final", loss_means(&chunk.losses).1);
    ledger.set("proc.cpu_s", cpu_s);
    ledger.set("proc.cpu_util", cpu_s / (untraced_s * nproc()));
    if let Some(cause) = &chunk.failure {
        check.failures.push(format!("pipeline stopped early: {cause}"));
    }

    let mut tr = Tracer::with_capacity(batches as usize * 256);
    let t0 = Instant::now();
    let traced = stepped.traced_chunk(batches, &mut tr);
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let st = trace::self_times(tr.spans());
    // The unreplicated twin is the benchmark's own work, not the program's.
    let twin_s = st.get("bench.plain_twin").map_or(0.0, |s| s.self_ns as f64 / 1e9);
    for (metric, span) in [
        ("data.batch_gen.ms_per_batch", "data.batch_gen"),
        ("pipeline.server.gather.ms_per_batch", "pipeline.server.gather"),
        ("pipeline.server.apply.ms_per_batch", "pipeline.server.apply"),
        ("pipeline.router.gather.ms_per_batch", "pipeline.router.gather"),
        ("pipeline.replica.apply.ms_per_batch", "pipeline.replica.apply"),
        ("dlrm.mlp.ms_per_step", "dlrm.mlp"),
        ("dlrm.interaction.ms_per_step", "dlrm.interaction"),
        ("dlrm.embed_dense.ms_per_step", "dlrm.embed_dense"),
        ("core.forward.ms_per_step", "core.forward"),
        ("core.backward.ms_per_step", "core.backward"),
        ("core.analysis.ms_per_step", "core.plan"),
    ] {
        ledger.set(metric, self_ms(&st, span, ops));
    }
    ledger.set("pipeline.cache.sync_us_per_batch", self_ms(&st, "pipeline.cache.sync", ops) * 1e3);
    ledger.set(
        "pipeline.cache.insert_us_per_batch",
        self_ms(&st, "pipeline.cache.insert", ops) * 1e3,
    );
    ledger.set(
        "pipeline.router.scatter_push.us_per_batch",
        self_ms(&st, "pipeline.router.scatter_push", ops) * 1e3,
    );
    ledger.set("pipeline.router.shard_imbalance", traced.shard_imbalance);
    ledger.set("pipeline.replica.append_overhead", traced.replica_append_overhead);
    ledger.set(
        "core.backward.share",
        self_ms(&st, "core.backward", ops) * ops / 1e3 / (traced_wall_s - twin_s).max(1e-12),
    );
    // One thread does what the entry point spreads over its threads, so the
    // ratio is the pipeline's overlap as much as the spans' cost.
    set_trace_rows(ledger, &tr, traced_wall_s - twin_s, untraced_s, check);
    write_trace(w, args, &tr);

    // The decomposed pipeline is only a measurement if it trains what the
    // threaded one trains.
    let same_losses = traced.losses.len() == chunk.losses.len()
        && traced.losses.iter().zip(&chunk.losses).all(|(x, y)| x.to_bits() == y.to_bits());
    check.require(same_losses, || {
        "decomposed and threaded pipelines trained different losses".to_string()
    });
    check.require(stepped.tables_hash() == threaded.tables_hash(), || {
        "decomposed and threaded pipelines trained different hosted-table bytes".to_string()
    });
    check.require(traced.failovers == 0, || format!("{} failovers", traced.failovers));
    let failed =
        chunk_failed(&chunk) + traced.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    (2 * batches, failed)
}

// ---------------------------------------------------------------------------
// serve_*
// ---------------------------------------------------------------------------

/// Exactly-once, nothing dropped, sampled rows right, and the cache under
/// pressure where the workload is built to put it there.
fn check_serve(out: &ServeOut, need_evictions: bool, check: &mut Check) -> u64 {
    check.require(out.answered_twice == 0, || {
        format!("{} requests answered twice", out.answered_twice)
    });
    check.require(out.unanswered == 0, || {
        format!("{} admitted requests never answered", out.unanswered)
    });
    check.require(out.dropped == 0, || format!("{} requests dropped at teardown", out.dropped));
    check.require(out.wrong_rows == 0, || {
        format!("{} sampled responses differ from TtEmbeddingBag::forward", out.wrong_rows)
    });
    check.require(!need_evictions || out.cache_evictions > 0, || {
        "the prefix cache never evicted: the table no longer outgrows it".to_string()
    });
    let late_p99 = late_p99_us(out);
    if late_p99 > 250.0 {
        eprintln!("warning: the generator ran {late_p99:.0} us late at p99; latencies include it");
    }
    out.shed + out.errored + out.unanswered + out.dropped
}

fn late_p99_us(out: &ServeOut) -> f64 {
    let mut late: Vec<f64> = out.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    if late.is_empty() {
        0.0
    } else {
        stats::percentile(&late, 99.0)
    }
}

/// Requests answered, in arrival order, as latencies in microseconds.
fn answered_us(latency_ns: &[u64]) -> Vec<f64> {
    latency_ns.iter().filter(|&&n| n != u64::MAX).map(|&n| n as f64 / 1e3).collect()
}

/// Cuts the schedule into [`SERVE_SEGMENTS`] runs of consecutive arrivals.
/// A segment's throughput is its goodput: requests answered within the SLO
/// limit per second of schedule.
fn serve_segments(out: &ServeOut) -> Segments {
    let mut segs = Segments::default();
    let n = out.latency_ns.len();
    let per = n.div_ceil(SERVE_SEGMENTS).max(1);
    for lo in (0..n).step_by(per) {
        let hi = (lo + per).min(n);
        let lat = answered_us(&out.latency_ns[lo..hi]);
        let within = lat.iter().filter(|&&l| l <= SLO_LIMIT_US).count() as f64;
        let span_ns = match out.arrival_ns.get(hi) {
            Some(&next) => (next - out.arrival_ns[lo]) as f64,
            // The last segment has no successor: scale its n - 1 gaps to n.
            None => {
                (out.arrival_ns[hi - 1] - out.arrival_ns[lo]) as f64 * (hi - lo) as f64
                    / (hi - lo - 1).max(1) as f64
            }
        };
        let seconds = span_ns / 1e9;
        segs.push(within, seconds, &lat);
    }
    segs
}

fn serve_untraced(
    spec: &ServeSpec,
    timed: usize,
    need_evictions: bool,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    // Two phases: table and request trace on this thread, then the tier's
    // threads started, warmed and stopped.
    let build = |lap: &mut Lap| {
        let b = ServeBench::build(spec, args.seed, timed);
        lap.mark();
        b.warm_only();
        b
    };
    let mut setups = SetUps::new(args);
    let bench = setups.before(build);
    eprintln!("inputs hash {:016x}", bench.inputs_hash());
    let out = bench.run_open_loop(timed, false);
    serve_segments(&out).set(ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());
    drop(bench);
    setups.after(ledger, build);
    let failed = check_serve(&out, need_evictions, check);
    (out.offered, failed)
}

fn serve_traced(
    w: &Workload,
    spec: &ServeSpec,
    timed: usize,
    need_evictions: bool,
    args: &RunArgs,
    ledger: &mut Ledger,
    check: &mut Check,
) -> (u64, u64) {
    let bench = ServeBench::build(spec, args.seed, timed);
    // The tier's counters cover a whole `serve` call, warm-up included;
    // a warm-up-only call gives the share to take off.
    let warm = bench.warm_only();
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let out = bench.run_open_loop(timed, true);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let offered = out.offered.max(1) as f64;
    let lat_us = answered_us(&out.latency_ns);
    let (p50, tail, tail_percentile) =
        if lat_us.is_empty() { (0.0, 0.0, 0.0) } else { stats::median_and_tail(&lat_us) };
    ledger.set("serve.latency_tail_us", tail);
    ledger.set("bench.tail_percentile", tail_percentile);
    let late = lat_us.iter().filter(|&&l| l > SLO_LIMIT_US).count() as f64;
    let batch_mean = lat_us.len() as f64 / out.timed_batches.max(1) as f64;
    let net = |total: u64, warm: u64| total.saturating_sub(warm) as f64;
    let (hits, misses) =
        (net(out.cache_hits, warm.cache_hits), net(out.cache_misses, warm.cache_misses));
    let submit: Vec<f64> = out.submit_ns.iter().map(|&n| n as f64).collect();
    ledger.set(
        "serve.ingress.submit_ns",
        if submit.is_empty() { 0.0 } else { stats::median(&submit) },
    );
    ledger.set("serve.window.batch_size_mean", batch_mean);
    ledger.set("serve.batches_per_s", out.timed_batches as f64 / out.schedule_s.max(1e-9));
    ledger.set("serve.shed_share", out.shed as f64 / offered);
    ledger.set(
        "serve.slo_miss_share",
        (late + (out.shed + out.errored + out.unanswered) as f64) / offered,
    );
    ledger.set(
        "serve.coalescer.dedup_ratio",
        net(out.unique_rows, warm.unique_rows) / net(out.lookups, warm.lookups).max(1.0),
    );
    ledger.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    ledger.set(
        "serve.cache.evictions_per_s",
        net(out.cache_evictions, warm.cache_evictions) / out.schedule_s.max(1e-9),
    );
    ledger.set("gen.late_p99_us", late_p99_us(&out));
    ledger.set("proc.cpu_s", cpu_s);
    ledger.set("proc.cpu_util", cpu_s / (wall_s * nproc()));

    // The same requests through the decomposed path, grouped as the tier
    // grouped them on average.
    let group = batch_mean.round().max(1.0) as usize;
    let mut tr = Tracer::with_capacity(4 * timed / group + 16);
    let replay = bench.replay(timed, group, &mut tr);
    ledger.set(
        "serve.coalescer.us_per_batch",
        (replay.process_us_per_batch - replay.lookup_us_per_batch).max(0.0),
    );
    ledger.set("serve.window.wait_us_est", (p50 - replay.process_us_per_batch).max(0.0));
    ledger.set("core.inference.lookup_us_per_request", replay.lookup_us_per_request);
    ledger.set("core.inference.hit_ratio", replay.hit_ratio);
    set_trace_rows(ledger, &tr, replay.traced_s, replay.untraced_s, check);
    write_trace(w, args, &tr);

    let failed = check_serve(&out, need_evictions, check);
    (out.offered, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        let tt = TtSpec { scale: 0.002, batch: 64, pool: 2, tt_min_rows: 1_000, ..TT_SKEW };
        let h = |seed| TtBench::build(&tt, seed).inputs_hash();
        assert_eq!(h(2022), h(2022));
        assert_ne!(h(2022), h(2023));

        let hosted = HostedSpec { scale: 0.002, batch: 64, host_min_rows: 400, ..HOSTED };
        let h = |seed| HostedBench::build(&hosted, seed, 0).inputs_hash(2);
        assert_eq!(h(7), h(7));
        assert_ne!(h(7), h(8));

        let serve = ServeSpec { rows: 10_000, warm_requests: 16, ..SERVE_LOW };
        let h = |seed| ServeBench::build(&serve, seed, 200).inputs_hash();
        assert_eq!(h(1), h(1));
        assert_ne!(h(1), h(2));
    }

    /// `perf --smoke`: every workload, both modes, must come back correct
    /// with nothing failed; the end-to-end metrics are never 0.
    #[test]
    fn every_workload_runs_correct_at_smoke_size() {
        let dir = std::env::temp_dir().join(format!("el-perf-test-{}", std::process::id()));
        for (name, trace, out) in smoke(10.0, &dir) {
            assert!(out.correct, "{name} trace={trace}: {:?}", out.notes);
            assert_eq!(out.failed, 0, "{name} trace={trace}");
            assert!(out.attempted >= 1);
            if !trace {
                for (d, v) in out.metrics.rows() {
                    assert!(v > 0.0 && v.is_finite(), "{name}: {} = {v}", d.name);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
