//! The serving front-end: admission, the pending queue, worker pool.
//!
//! Request life cycle:
//!
//! 1. **Admission** ([`ServeHandle::submit`]): a request naming a row the
//!    table does not have is rejected with a typed
//!    [`ServeError::RowOutOfRange`]; a tenant with `tenant_inflight_cap`
//!    unanswered requests is shed with a typed [`ServeError::Overloaded`].
//!    Both hand the request (and its buffers) back — submission *never
//!    blocks*, so an overloaded server degrades by rejecting, not by
//!    stalling clients. The per-tenant budget is the fairness mechanism:
//!    every queued request holds one unit of its tenant's budget, so one
//!    hot tenant can only ever occupy its own share of the pending queue.
//! 2. **Batching** is work-conserving: an admitted request goes straight
//!    into the one pending queue, and a request never waits while a worker
//!    is idle. A batch is whatever accumulated while the workers were busy,
//!    capped at `max_batch` — so batch size follows load by itself: one
//!    request at a time when the tier is idle, `max_batch` deep when
//!    arrivals outrun the workers.
//! 3. **Workers** run as tasks on the shared rayon pool; each owns one
//!    [`el_core::TtInferenceSession`] and pulls its next batch from the
//!    head of the queue, serving it through the [`Coalescer`] so duplicate
//!    rows across requests of *different* users are contracted once. The
//!    pull is a short critical section on the one lock `submit` also takes;
//!    batch compute — the expensive part — runs outside it, fully in
//!    parallel.
//!
//! Everything is scoped: [`serve`] spawns the worker tasks, runs the
//! caller's driver closure against a [`ServeHandle`], and tears the tier
//! down when the driver returns; workers drain the queue before they exit,
//! so no admitted request is lost on a graceful shutdown.

use crate::batch::{Coalescer, ServeRequest, ServeResponse};
use crate::config::ServeConfig;
use crate::timing::Clock;
use el_core::{TtEmbeddingBag, TtInferenceSession};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// Per-tenant serving policy. Every tenant is served the same way; what a
/// tenant has of its own is its in-flight budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantConfig {}

/// Typed admission outcome; every variant returns the request so the
/// caller keeps ownership of its buffers (resubmit or recycle — nothing is
/// silently dropped).
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's in-flight budget is exhausted; the request was shed,
    /// not queued.
    Overloaded {
        /// The rejected request, buffers intact.
        request: ServeRequest,
    },
    /// The request named a tenant the server was not configured with.
    UnknownTenant {
        /// The rejected request.
        request: ServeRequest,
    },
    /// The request named a row the served table does not have.
    RowOutOfRange {
        /// The rejected request, buffers intact.
        request: ServeRequest,
        /// The first out-of-range index in the request.
        index: u32,
        /// Rows of the served table.
        rows: usize,
    },
    /// The server is tearing down and no longer admits work.
    ShuttingDown {
        /// The rejected request.
        request: ServeRequest,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { request } => {
                write!(f, "tenant {} overloaded: request shed", request.tenant)
            }
            ServeError::UnknownTenant { request } => {
                write!(f, "unknown tenant {}", request.tenant)
            }
            ServeError::RowOutOfRange { index, rows, .. } => {
                write!(f, "row {index} out of range: the table has {rows} rows")
            }
            ServeError::ShuttingDown { .. } => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Shared serving statistics, updated with relaxed atomics (they are
/// counters, not synchronization).
#[derive(Default)]
struct ServeStats {
    submitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    lookups: AtomicU64,
    unique_rows: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// End-of-run accounting returned by [`serve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests admitted past admission control.
    pub submitted: u64,
    /// Requests shed at admission (overload).
    pub shed: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Batched lookups executed.
    pub batches: u64,
    /// Requests admitted but never answered (stays 0 on graceful runs).
    pub dropped: u64,
    /// Total sparse lookups coalesced.
    pub lookups: u64,
    /// Unique rows actually contracted (`lookups - unique_rows` is the
    /// chain work the cross-request dedup removed).
    pub unique_rows: u64,
    /// Prefix-cache hits across all worker sessions.
    pub cache_hits: u64,
    /// Prefix-cache misses across all worker sessions.
    pub cache_misses: u64,
    /// Prefix-cache evictions across all worker sessions.
    pub cache_evictions: u64,
}

impl ServeReport {
    /// Fraction of offered requests shed at admission.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.submitted + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }
}

/// Admitted requests waiting for a worker.
struct Pending {
    /// FIFO, pre-sized to the sum of the tenant budgets, so a push never
    /// grows it.
    queue: VecDeque<ServeRequest>,
    /// Workers parked on the condvar; `submit` only pays for a wake-up
    /// when there is someone to wake.
    idle: usize,
    /// Cleared when the driver returns: workers drain the queue and exit.
    open: bool,
}

/// The one hand-off point between `submit` and the workers.
struct Shared {
    pending: Mutex<Pending>,
    work: Condvar,
}

/// Client-side face of a running serving tier; the driver closure passed
/// to [`serve`] submits requests and drains responses through it.
pub struct ServeHandle<'a> {
    shared: &'a Shared,
    completions: mpsc::Receiver<ServeResponse>,
    clock: Clock,
    /// Per-tenant in-flight budget counters.
    inflight: &'a [AtomicU32],
    cap: usize,
    /// Rows of the served table; admission rejects any index at or past it.
    rows: usize,
    stats: &'a ServeStats,
}

impl ServeHandle<'_> {
    /// Nanoseconds on the server clock (the axis response stamps live on).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Admits `req` or rejects it. Never blocks: a request naming a row
    /// past the table gets [`ServeError::RowOutOfRange`] and an overloaded
    /// tenant [`ServeError::Overloaded`] immediately, with the request
    /// returned.
    // CONTRACT: zero-alloc
    pub fn submit(&self, mut req: ServeRequest) -> Result<(), ServeError> {
        let Some(inflight) = self.inflight.get(req.tenant as usize) else {
            return Err(ServeError::UnknownTenant { request: req });
        };
        // Checked before the request takes budget: a worker must never see
        // an index its session cannot factorize.
        if let Some(&index) = req.indices.iter().find(|&&i| i as usize >= self.rows) {
            return Err(ServeError::RowOutOfRange { request: req, index, rows: self.rows });
        }
        let prev = inflight.fetch_add(1, Ordering::AcqRel);
        if prev as usize >= self.cap {
            inflight.fetch_sub(1, Ordering::AcqRel);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { request: req });
        }
        req.submit_ns = self.clock.now_ns();
        // A poisoned lock means a tier thread panicked: the tier is going
        // down, and the caller gets its buffers back.
        let Ok(mut pending) = self.shared.pending.lock() else {
            inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::ShuttingDown { request: req });
        };
        pending.queue.push_back(req);
        // Counted under the lock the workers take the request through, so
        // `completed <= submitted` holds at every instant.
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let wake = pending.idle > 0;
        drop(pending);
        if wake {
            self.shared.work.notify_one();
        }
        Ok(())
    }

    /// Next completed response, waiting at most `timeout`.
    pub fn recv_response(&self, timeout: Duration) -> Option<ServeResponse> {
        self.completions.recv_timeout(timeout).ok()
    }

    /// Next completed response if one is already queued.
    pub fn try_recv_response(&self) -> Option<ServeResponse> {
        self.completions.try_recv().ok()
    }

    /// Requests admitted but not yet answered, across all tenants.
    pub fn outstanding(&self) -> u64 {
        self.inflight.iter().map(|t| t.load(Ordering::Acquire) as u64).sum()
    }
}

impl Drop for ServeHandle<'_> {
    /// Closes admission and wakes every parked worker so the tier can
    /// drain and join.
    fn drop(&mut self) {
        if let Ok(mut pending) = self.shared.pending.lock() {
            pending.open = false;
        }
        self.shared.work.notify_all();
    }
}

/// Runs a serving tier over `table` for the duration of `driver`.
///
/// `workers` tasks run on the shared rayon pool. `driver` executes on the
/// calling thread against a [`ServeHandle`]; when it returns, admission
/// closes, the workers serve what is still pending, the tier joins, and the
/// aggregated [`ServeReport`] is returned beside the driver's result.
///
/// # Panics
/// Panics when `tenants` is empty.
pub fn serve<R>(
    table: &TtEmbeddingBag,
    cfg: &ServeConfig,
    tenants: &[TenantConfig],
    driver: impl FnOnce(&ServeHandle<'_>) -> R,
) -> (R, ServeReport) {
    assert!(!tenants.is_empty(), "serving tier needs at least one tenant");
    let clock = Clock::start();
    let stats = ServeStats::default();

    let inflight: Vec<AtomicU32> = tenants.iter().map(|_| AtomicU32::new(0)).collect();
    // Every pending request holds a unit of its tenant's budget, so the
    // queue cannot outgrow the sum of the budgets.
    let shared = Shared {
        pending: Mutex::new(Pending {
            queue: VecDeque::with_capacity(cfg.tenant_inflight_cap * tenants.len()),
            idle: 0,
            open: true,
        }),
        work: Condvar::new(),
    };
    let (done_tx, done_rx) = mpsc::channel::<ServeResponse>();

    let result = std::thread::scope(|s| {
        let (stats, shared, inflight) = (&stats, &shared, &inflight[..]);
        let workers = s.spawn(move || {
            (0..cfg.workers).into_par_iter().for_each(|_| {
                worker_loop(table, cfg, clock, shared, &done_tx, inflight, stats);
            });
        });
        let result = {
            let handle = ServeHandle {
                shared,
                completions: done_rx,
                clock,
                inflight,
                cap: cfg.tenant_inflight_cap,
                rows: table.num_rows(),
                stats,
            };
            driver(&handle)
            // `handle` drops here, on return and on unwind alike: admission
            // closes, every parked worker wakes, drains the queue, folds
            // its session counters into `stats` and exits.
        };
        // Join the thread itself: the scope's implicit join only waits for
        // the closure, and a worker thread still exiting when the next
        // `serve` call spawns its own has not yet released its allocator
        // arena — back-to-back tiers would then, run to run, hold one
        // session's memory or two.
        if let Err(panic) = workers.join() {
            std::panic::resume_unwind(panic);
        }
        result
    });

    let submitted = stats.submitted.load(Ordering::Relaxed);
    let completed = stats.completed.load(Ordering::Relaxed);
    let report = ServeReport {
        submitted,
        shed: stats.shed.load(Ordering::Relaxed),
        completed,
        batches: stats.batches.load(Ordering::Relaxed),
        dropped: submitted - completed,
        lookups: stats.lookups.load(Ordering::Relaxed),
        unique_rows: stats.unique_rows.load(Ordering::Relaxed),
        cache_hits: stats.hits.load(Ordering::Relaxed),
        cache_misses: stats.misses.load(Ordering::Relaxed),
        cache_evictions: stats.evictions.load(Ordering::Relaxed),
    };
    (result, report)
}

/// Blocks until the queue has requests, then moves up to `max_batch` of
/// them into `batch` (the calling worker's recycled container) and returns
/// true. False once admission is closed and the queue is empty — or the
/// lock is poisoned: another tier thread panicked and the scope is about to
/// re-raise it.
// CONTRACT: zero-alloc
fn next_batch(shared: &Shared, max_batch: usize, batch: &mut Vec<ServeRequest>) -> bool {
    let Ok(mut pending) = shared.pending.lock() else {
        return false;
    };
    loop {
        if !pending.queue.is_empty() {
            let n = pending.queue.len().min(max_batch);
            batch.extend(pending.queue.drain(..n));
            return true;
        }
        if !pending.open {
            return false;
        }
        pending.idle += 1;
        pending = match shared.work.wait(pending) {
            Ok(pending) => pending,
            Err(_) => return false,
        };
        pending.idle -= 1;
    }
}

/// One worker task: pulls batches while there are any, parks when there
/// are none, serves each batch through its own inference session, stamps
/// and delivers the responses.
// CONTRACT: panic-free
fn worker_loop(
    table: &TtEmbeddingBag,
    cfg: &ServeConfig,
    clock: Clock,
    shared: &Shared,
    done_tx: &mpsc::Sender<ServeResponse>,
    inflight: &[AtomicU32],
    stats: &ServeStats,
) {
    let mut session = TtInferenceSession::new(table, cfg.cache_capacity);
    let mut coalescer = Coalescer::new();
    // A zero cap in a hand-built config means "no coalescing"; it must not
    // turn into empty batches.
    let max_batch = cfg.max_batch.max(1);
    let mut batch: Vec<ServeRequest> = Vec::with_capacity(max_batch);

    while next_batch(shared, max_batch, &mut batch) {
        coalescer.process_into(&mut session, &mut batch);
        let done_ns = clock.now_ns();
        stats.batches.fetch_add(1, Ordering::Relaxed);
        for req in batch.drain(..) {
            let tenant = req.tenant as usize;
            // Deliver before releasing the budget so `outstanding() == 0`
            // implies every response is already in the completion queue.
            let _ = done_tx.send(ServeResponse { req, done_ns });
            inflight[tenant].fetch_sub(1, Ordering::AcqRel);
            stats.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    // Fold this worker's cache and dedup counters into the shared totals.
    stats.lookups.fetch_add(coalescer.total_lookups(), Ordering::Relaxed);
    stats.unique_rows.fetch_add(coalescer.total_unique_rows(), Ordering::Relaxed);
    stats.hits.fetch_add(session.hits(), Ordering::Relaxed);
    stats.misses.fetch_add(session.misses(), Ordering::Relaxed);
    stats.evictions.fetch_add(session.evictions(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_core::TtConfig;
    use rand::SeedableRng;

    fn table(rows: usize) -> TtEmbeddingBag {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        TtEmbeddingBag::new(&TtConfig::new(rows, 16, 8), &mut rng)
    }

    fn req(tenant: u32, id: u64, indices: &[u32]) -> ServeRequest {
        ServeRequest { tenant, id, indices: indices.to_vec(), out: Vec::new(), submit_ns: 0 }
    }

    fn drain(handle: &ServeHandle<'_>, expect: usize) -> Vec<ServeResponse> {
        let mut got = Vec::new();
        while got.len() < expect {
            match handle.recv_response(Duration::from_secs(10)) {
                Some(r) => got.push(r),
                None => break,
            }
        }
        got
    }

    #[test]
    fn round_trips_match_direct_lookup() {
        let t = table(500);
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let tenants = [TenantConfig::default()];
        let (responses, report) = serve(&t, &cfg, &tenants, |h| {
            for i in 0..40u64 {
                let r = req(0, i, &[(i % 500) as u32, ((i * 7) % 500) as u32]);
                h.submit(r).expect("no load to shed");
            }
            drain(h, 40)
        });
        assert_eq!(responses.len(), 40);
        assert_eq!(report.completed, 40);
        assert_eq!(report.shed, 0);
        assert_eq!(report.dropped, 0);
        let mut session = TtInferenceSession::new(&t, 64);
        for r in &responses {
            let want = session.lookup(&r.req.indices, &[0, r.req.indices.len() as u32]);
            assert_eq!(r.req.out.as_slice(), want.as_slice(), "request {}", r.req.id);
        }
    }

    #[test]
    fn baseline_batch_of_one_still_serves() {
        let t = table(200);
        // A zero cap is clamped to one: no coalescing, never empty batches.
        for max_batch in [0, 1] {
            let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
            let tenants = [TenantConfig::default()];
            let (got, report) = serve(&t, &cfg, &tenants, |h| {
                for i in 0..10u64 {
                    h.submit(req(0, i, &[i as u32])).expect("under load");
                }
                drain(h, 10).len()
            });
            assert_eq!(got, 10, "max_batch {max_batch}");
            // batch=1 means one batch per request
            assert_eq!(report.batches, 10, "max_batch {max_batch}");
        }
    }

    #[test]
    fn overload_sheds_typed_and_never_stalls() {
        let t = table(200);
        let cfg = ServeConfig {
            max_batch: 1_024,
            workers: 1,
            tenant_inflight_cap: 4,
            cache_capacity: 64,
        };
        let tenants = [TenantConfig::default(), TenantConfig::default()];
        let ((sheds, admitted, t1_ok), report) = serve(&t, &cfg, &tenants, |h| {
            let (mut sheds, mut admitted, mut t1_ok) = (0u64, 0u64, false);
            for i in 0..100u64 {
                match h.submit(req(0, i, &[3])) {
                    Ok(()) => admitted += 1,
                    Err(ServeError::Overloaded { request }) => {
                        sheds += 1;
                        assert_eq!(request.indices, vec![3], "buffers must come back");
                    }
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
                if i == 50 {
                    // Fairness: tenant 1 is idle, so its budget is untouched
                    // and it must be admitted in the middle of tenant 0's
                    // flood.
                    t1_ok = h.submit(req(1, 1_000, &[7])).is_ok();
                }
            }
            (sheds, admitted, t1_ok)
        });
        // How many of the flood a worker answers in time to free budget is
        // timing; that nothing is lost or double-counted is not.
        assert_eq!(sheds + admitted, 100);
        assert!(admitted >= 4, "an empty budget of 4 admits the first 4");
        assert!(t1_ok, "hot tenant starved an idle one");
        assert_eq!(report.shed, sheds);
        assert_eq!(report.submitted, admitted + 1);
        assert_eq!(report.completed, admitted + 1, "pending work is served at shutdown");
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn idle_tier_serves_each_request_alone() {
        let t = table(200);
        let tenants = [TenantConfig::default()];
        let (_, report) = serve(&t, &ServeConfig::default(), &tenants, |h| {
            for i in 0..20u64 {
                h.submit(req(0, i, &[i as u32, 5])).expect("under load");
                assert_eq!(drain(h, 1).len(), 1);
            }
        });
        assert_eq!(report.completed, 20);
        assert_eq!(report.batches, 20, "an idle worker must not hold a request to fill a batch");
    }

    #[test]
    fn busy_tier_coalesces_a_burst() {
        let t = table(500);
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let tenants = [TenantConfig::default(); 4];
        let (responses, report) = serve(&t, &cfg, &tenants, |h| {
            for i in 0..512u64 {
                // Zipf-like: half of every request is one of 8 hot rows.
                let r = req((i % 4) as u32, i, &[(i % 8) as u32, (i * 13 % 500) as u32]);
                h.submit(r).expect("128 per tenant is inside the default budget");
            }
            drain(h, 512)
        });
        assert_eq!(report.completed, 512);
        assert_eq!(report.dropped, 0);
        assert!(report.batches < 512, "a busy worker must find batches waiting");
        assert!(report.batches >= 512u64.div_ceil(cfg.max_batch as u64));
        assert!(report.lookups > report.unique_rows, "cross-request dedup must collapse rows");
        let mut seen = vec![false; 512];
        let mut session = TtInferenceSession::new(&t, 64);
        for r in &responses {
            assert!(!std::mem::replace(&mut seen[r.req.id as usize], true), "answered twice");
            let want = session.lookup(&r.req.indices, &[0, r.req.indices.len() as u32]);
            assert_eq!(r.req.out.as_slice(), want.as_slice(), "request {}", r.req.id);
        }
        assert!(seen.iter().all(|&s| s), "every request answered");
    }

    #[test]
    fn shutdown_serves_what_is_still_pending() {
        let t = table(200);
        for workers in [1, 3] {
            let cfg = ServeConfig { workers, ..ServeConfig::default() };
            let tenants = [TenantConfig::default()];
            // The driver returns without reading a single response.
            let ((), report) = serve(&t, &cfg, &tenants, |h| {
                for i in 0..200u64 {
                    h.submit(req(0, i, &[(i % 200) as u32])).expect("inside the budget");
                }
            });
            assert_eq!(report.submitted, 200, "{workers} workers");
            assert_eq!(report.completed, 200, "{workers} workers");
            assert_eq!(report.dropped, 0, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "driver failed")]
    fn panicking_driver_tears_the_tier_down() {
        // The unwind must close admission and wake the parked worker, or
        // the scope waits for it forever and this test hangs.
        let t = table(100);
        let tenants = [TenantConfig::default()];
        serve(&t, &ServeConfig::default(), &tenants, |h| {
            h.submit(req(0, 0, &[1])).expect("under load");
            drain(h, 1);
            panic!("driver failed");
        });
    }

    #[test]
    fn unknown_tenant_is_rejected_with_buffers() {
        let t = table(100);
        let tenants = [TenantConfig::default()];
        let (rejected, _) =
            serve(&t, &ServeConfig::default(), &tenants, |h| match h.submit(req(9, 0, &[1, 2])) {
                Err(ServeError::UnknownTenant { request }) => request.indices,
                other => panic!("expected UnknownTenant, got {other:?}"),
            });
        assert_eq!(rejected, vec![1, 2]);
    }

    #[test]
    fn out_of_range_rows_are_rejected_and_the_tier_keeps_serving() {
        // 500 rows factorize to a capacity of 512: row 500 would be answered
        // with a padding row and u32::MAX would panic the worker.
        let t = table(500);
        let tenants = [TenantConfig::default()];
        let (answered, report) = serve(&t, &ServeConfig::default(), &tenants, |h| {
            for (id, bad) in [(0, 500), (1, u32::MAX)] {
                let err = h.submit(req(0, id, &[3, bad])).expect_err("out-of-range row admitted");
                assert_eq!(
                    err.to_string(),
                    format!("row {bad} out of range: the table has 500 rows")
                );
                match err {
                    ServeError::RowOutOfRange { request, index, rows } => {
                        assert_eq!((index, rows), (bad, 500));
                        assert_eq!(request.indices, vec![3, bad], "buffers must come back");
                    }
                    other => panic!("expected RowOutOfRange for {bad}, got {other:?}"),
                }
            }
            assert_eq!(h.outstanding(), 0, "a rejected request takes no budget");
            h.submit(req(0, 2, &[499])).expect("a valid request is admitted");
            drain(h, 1)
        });
        assert_eq!(answered.len(), 1);
        assert_eq!(answered[0].req.id, 2);
        let want = TtInferenceSession::new(&t, 64).lookup(&[499], &[0, 1]);
        assert_eq!(answered[0].req.out.as_slice(), want.as_slice());
        assert_eq!(report.submitted, 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn report_counts_dedup_and_cache_effect() {
        let t = table(400);
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let tenants = [TenantConfig::default()];
        let (_, report) = serve(&t, &cfg, &tenants, |h| {
            // Heavy duplication across requests: everyone asks for row 42.
            for i in 0..64u64 {
                h.submit(req(0, i, &[42, 42, (i % 4) as u32])).expect("under load");
            }
            drain(h, 64)
        });
        assert_eq!(report.completed, 64);
        assert!(report.lookups > report.unique_rows, "cross-request dedup must collapse rows");
        assert!(report.cache_hits + report.cache_misses > 0, "cache counters must be reported");
    }

    #[test]
    fn shed_rate_is_zero_without_overload() {
        let r = ServeReport { submitted: 10, ..Default::default() };
        assert_eq!(r.shed_rate(), 0.0);
        let r2 = ServeReport { submitted: 8, shed: 2, ..Default::default() };
        assert!((r2.shed_rate() - 0.2).abs() < 1e-12);
    }
}
