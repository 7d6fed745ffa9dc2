//! Tail-latency SLO harness for the online serving tier.
//!
//! Replays a deterministic open-loop Poisson/Zipf trace (`el_data::loadgen`)
//! against `el_serve::serve`, sweeping offered load x batch cap x
//! precision. Each leg submits requests *on the generated schedule* — never
//! waiting for responses before the next arrival — so queueing delay lands
//! in the recorded latencies instead of being hidden by back-pressure
//! (coordinated omission). Latency is measured from the request's *intended*
//! arrival time to its completion stamp, and recorded in the log-bucketed
//! [`el_serve::LatencyHistogram`].
//!
//! The `max_batch = 1` legs are the request-at-a-time baseline: every
//! admitted request is contracted alone. The coalesced legs let a worker
//! take up to `max_batch` requests that queued while it was busy, so
//! duplicate rows across concurrent requests are contracted once (the
//! paper's Algorithm 1 dedup applied to the request stream). Batching is
//! work-conserving — an idle worker never holds a request back — so the two
//! claims the JSON must support are: at low load coalescing costs nothing
//! over the baseline, and at high load it wins on p99 and sustains more
//! load before shedding.
//!
//! Results go to `BENCH_serve_latency.json` (override with
//! `CRITERION_BENCH_JSON`), one row per leg with p50/p99/p999, shed rate,
//! dedup and cache counters, and the standard provenance fields.
//!
//! `--test` (as passed by `cargo bench -- --test` or the CI `serve-smoke`
//! job) shrinks the sweep to seconds. The harness exits nonzero if a
//! low-load leg sheds anything, if the low-load `coalesced` p50 exceeds
//! twice the `naive` p50 of the same run, or if the highest-load
//! `coalesced` leg sheds — ratios inside one run, so the gate holds on a
//! shared runner whatever its absolute speed.

use el_core::{InferencePrecision, TtConfig, TtEmbeddingBag};
use el_data::{OpenLoopConfig, OpenLoopGen};
use el_serve::{serve, LatencyHistogram, ServeConfig, ServeError, ServeRequest, TenantConfig};
use rand::SeedableRng;
use std::time::Duration;

const NUM_TENANTS: usize = 4;
const INDICES_PER_REQUEST: usize = 8;
const NUM_ROWS: usize = 100_000;
const TRACE_SEED: u64 = 20_220_213;

/// One measured (load, batch cap, precision) leg.
struct Row {
    mode: &'static str,
    precision: &'static str,
    offered_rps: f64,
    max_batch: usize,
    requests: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    shed_rate: f64,
    completed: u64,
    batches: u64,
    lookups: u64,
    unique_rows: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn precision_name(p: InferencePrecision) -> &'static str {
    match p {
        InferencePrecision::F32 => "f32",
        InferencePrecision::Bf16 => "bf16",
        InferencePrecision::Int8 => "int8",
    }
}

/// Replays `count` requests at `offered_rps` through a serving tier with
/// the given batch cap and tenant precision, returning the measured leg.
fn run_leg(
    table: &TtEmbeddingBag,
    mode: &'static str,
    offered_rps: f64,
    max_batch: usize,
    precision: InferencePrecision,
    count: usize,
) -> Row {
    let mut gen = OpenLoopGen::new(OpenLoopConfig {
        offered_rps,
        num_rows: NUM_ROWS,
        indices_per_request: INDICES_PER_REQUEST,
        zipf_exponent: 1.05,
        num_tenants: NUM_TENANTS,
        seed: TRACE_SEED, // same trace for every mode at a given load
    });
    let mut trace = gen.trace(count);
    let arrivals: Vec<u64> = trace.iter().map(|r| r.arrive_ns).collect();

    // A bounded per-tenant budget is the SLO stance: queue depth bounds
    // worst-case latency, so offered load beyond capacity must shed
    // instead of stretching the tail. 128 in-flight per tenant is ~10x
    // the deepest backlog any sustainable leg reaches.
    let cfg = ServeConfig { workers: 1, tenant_inflight_cap: 128, ..ServeConfig::default() }
        .with_max_batch(max_batch);
    let tenants = [TenantConfig { precision }; NUM_TENANTS];

    let (hist, report) = serve(table, &cfg, &tenants, |h| {
        let base = h.now_ns();
        let mut hist = LatencyHistogram::new();
        let mut free: Vec<ServeRequest> = Vec::new();
        let mut next = 0usize;
        let mut admitted = 0u64;
        let mut received = 0u64;

        let record = |resp: el_serve::ServeResponse,
                      hist: &mut LatencyHistogram,
                      free: &mut Vec<ServeRequest>| {
            let intended = base + arrivals[resp.req.id as usize];
            hist.record(resp.done_ns.saturating_sub(intended));
            free.push(resp.req);
        };

        while next < trace.len() {
            while let Some(resp) = h.try_recv_response() {
                record(resp, &mut hist, &mut free);
                received += 1;
            }
            let target = base + arrivals[next];
            let now = h.now_ns();
            if now < target {
                let gap = target - now;
                if gap > 300_000 {
                    // Long gap: sleep most of it, leave slack for wake-up
                    // jitter.
                    std::thread::sleep(Duration::from_nanos(gap - 200_000));
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            let mut req = free.pop().unwrap_or_default();
            req.tenant = trace[next].tenant;
            req.id = next as u64;
            req.indices = std::mem::take(&mut trace[next].indices);
            match h.submit(req) {
                Ok(()) => admitted += 1,
                Err(ServeError::Overloaded { request }) => free.push(request),
                Err(e) => panic!("unexpected admission failure: {e}"),
            }
            next += 1;
        }
        // Drain the stragglers; on a graceful run every admitted request is
        // answered, the deadline only guards the harness against a hang.
        while received < admitted {
            match h.recv_response(Duration::from_secs(10)) {
                Some(resp) => {
                    record(resp, &mut hist, &mut free);
                    received += 1;
                }
                None => panic!("serving tier hung with {} responses missing", admitted - received),
            }
        }
        hist
    });

    let (p50, p99, p999) = hist.percentiles();
    Row {
        mode,
        precision: precision_name(precision),
        offered_rps,
        max_batch,
        requests: count,
        p50_us: p50 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
        p999_us: p999 as f64 / 1e3,
        shed_rate: report.shed_rate(),
        completed: report.completed,
        batches: report.batches,
        lookups: report.lookups,
        unique_rows: report.unique_rows,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        cache_evictions: report.cache_evictions,
    }
}

fn render_json(rows: &[Row], provenance: &[(String, String)]) -> String {
    let prov: String = provenance.iter().map(|(k, v)| format!(",\"{k}\":\"{v}\"")).collect();
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"id\":\"serve_latency/{}/{}/rps{:.0}\",\"mode\":\"{}\",\
             \"precision\":\"{}\",\"offered_rps\":{:.0},\"max_batch\":{},\
             \"requests\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\
             \"p999_us\":{:.1},\"shed_rate\":{:.4},\"completed\":{},\"batches\":{},\
             \"lookups\":{},\"unique_rows\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{}{prov}}}",
            r.mode,
            r.precision,
            r.offered_rps,
            r.mode,
            r.precision,
            r.offered_rps,
            r.max_batch,
            r.requests,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.shed_rate,
            r.completed,
            r.batches,
            r.lookups,
            r.unique_rows,
            r.cache_hits,
            r.cache_misses,
            r.cache_evictions,
        ));
    }
    out.push_str("\n]\n");
    out
}

fn main() {
    let quick = quick_mode();
    let loads: &[f64] =
        if quick { &[500.0, 2_000.0] } else { &[500.0, 4_000.0, 16_000.0, 48_000.0, 96_000.0] };
    // (mode, max_batch): batch=1 is the per-request baseline.
    let modes: &[(&'static str, usize)] = if quick {
        &[("naive", 1), ("coalesced", 32)]
    } else {
        &[("naive", 1), ("coalesced_narrow", 8), ("coalesced", 32)]
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let table = TtEmbeddingBag::new(&TtConfig::new(NUM_ROWS, 32, 8), &mut rng);

    let mut rows = Vec::new();
    for &rps in loads {
        let count = if quick { 300 } else { ((rps * 2.0) as usize).clamp(1_000, 40_000) };
        for &(mode, max_batch) in modes {
            let row = run_leg(&table, mode, rps, max_batch, InferencePrecision::F32, count);
            eprintln!(
                "serve_latency/{}/{}/rps{:.0}: p50 {:.0} us, p99 {:.0} us, p999 {:.0} us, \
                 shed {:.1}%, {} batches, dedup {}/{} rows",
                row.mode,
                row.precision,
                rps,
                row.p50_us,
                row.p99_us,
                row.p999_us,
                row.shed_rate * 100.0,
                row.batches,
                row.unique_rows,
                row.lookups,
            );
            rows.push(row);
        }
        // Quantized lanes at the standard batch cap: same trace, smaller
        // resident products.
        for precision in [InferencePrecision::Bf16, InferencePrecision::Int8] {
            let row = run_leg(&table, "coalesced", rps, 32, precision, count);
            eprintln!(
                "serve_latency/{}/{}/rps{:.0}: p50 {:.0} us, p99 {:.0} us, shed {:.1}%",
                row.mode,
                row.precision,
                rps,
                row.p50_us,
                row.p99_us,
                row.shed_rate * 100.0,
            );
            rows.push(row);
        }
    }

    let path = std::env::var("CRITERION_BENCH_JSON")
        .unwrap_or_else(|_| "BENCH_serve_latency.json".to_string());
    std::fs::write(&path, render_json(&rows, &el_bench::provenance_fields()))
        .expect("writing the serve-latency summary failed");
    println!("wrote serve-latency results to {path}");

    let f32_leg = |mode: &str, rps: f64| {
        rows.iter().find(|r| r.mode == mode && r.precision == "f32" && r.offered_rps == rps)
    };

    // Headline comparison: coalesced vs per-request p99 at each shared load.
    for &rps in loads {
        if let (Some(naive), Some(coalesced)) = (f32_leg("naive", rps), f32_leg("coalesced", rps)) {
            println!(
                "rps {rps:.0}: p99 naive {:.0} us vs coalesced {:.0} us ({:.2}x)",
                naive.p99_us,
                coalesced.p99_us,
                naive.p99_us / coalesced.p99_us.max(1e-9),
            );
        }
    }

    // CI gate, on ratios inside this run only (a shared runner's absolute
    // speed varies, its legs' relative order does not):
    //  * the lowest offered load is comfortably inside capacity for every
    //    mode, so any shedding there is admission control rejecting
    //    sustainable load;
    //  * with nothing to coalesce, a work-conserving tier answers as fast
    //    as the request-at-a-time baseline — a `coalesced` p50 beyond twice
    //    the `naive` one means requests are being held back for a batch;
    //  * coalescing exists to carry the highest load without shedding (in
    //    the full sweep a host stall longer than the budgets cover — 5.3 ms
    //    at 96k rps — trips this; the quick sweep tops out at 2k rps).
    let low = loads.iter().copied().fold(f64::INFINITY, f64::min);
    let high = loads.iter().copied().fold(0.0, f64::max);
    let mut violations: Vec<String> = rows
        .iter()
        .filter(|r| r.offered_rps == low && r.shed_rate > 0.0)
        .map(|r| {
            format!(
                "{}/{} shed {:.2}% at the low-load point ({low} rps)",
                r.mode,
                r.precision,
                r.shed_rate * 100.0,
            )
        })
        .collect();
    if let (Some(naive), Some(coalesced)) = (f32_leg("naive", low), f32_leg("coalesced", low)) {
        if coalesced.p50_us > 2.0 * naive.p50_us {
            violations.push(format!(
                "coalesced p50 {:.0} us is more than twice naive p50 {:.0} us at {low} rps",
                coalesced.p50_us, naive.p50_us,
            ));
        }
    }
    if let Some(r) = f32_leg("coalesced", high).filter(|r| r.shed_rate > 0.0) {
        violations.push(format!(
            "coalesced shed {:.2}% at the high-load point ({high} rps)",
            r.shed_rate * 100.0,
        ));
    }
    for v in &violations {
        eprintln!("SLO violation: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
