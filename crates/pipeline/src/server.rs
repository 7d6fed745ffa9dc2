//! The host-memory parameter server and its two queues (paper Figure 9).
//!
//! The CPU side owns the embedding tables that do not fit in device memory.
//! It pre-fetches the rows the next batches will need into the bounded
//! **pre-fetch queue** ([`PrefetchedBatch`]) and applies the gradients
//! workers push into the **gradient queue** ([`GradientPush`]). This
//! module is one server's state and intake; the threads and queues that
//! serve a run from N x K of them live in [`crate::trainer`].

use crate::device::{thread_cpu_time, CommMeter};
use crossbeam::channel::{Sender, TrySendError};
use el_data::MiniBatch;
use el_dlrm::embedding_bag::{EmbeddingBag, SparseGrad};
use el_tensor::Matrix;
use std::fmt;
use std::time::Duration;

/// Typed failures of the serving loop and the gradient-application
/// protocol. These replace the panics that used to hide in `run` and
/// `apply`: a production parameter server must degrade, not abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// `PooledEmbeddings` mode was asked to run pipelined. The pooled
    /// (reference-DLRM) path has no staleness protocol — the CPU does the
    /// full forward/backward — so any staleness the pipeline introduces is
    /// staleness it cannot provide for.
    PooledNeedsSequential,
    /// A gradient push arrived for a batch beyond the next one the server
    /// can apply; the caller must buffer and retry once the gap fills.
    GradientGap {
        /// Sequence number the push carries.
        got: u64,
        /// Sequence number the server needs next.
        expected: u64,
    },
    /// A gradient push referenced a table this server does not host.
    UnknownTable(usize),
    /// A bounded-retry send gave up: the consumer either stayed saturated
    /// through every backoff round (`disconnected == false`, a wedged or
    /// hopelessly lagging peer) or hung up (`disconnected == true`).
    /// Surfaced through `PipelineReport::failure` so a halted worker is a
    /// typed outcome, not a silent early return.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Whether the receiver had disconnected (vs. stayed full).
        disconnected: bool,
    },
    /// The model's `Hosted` tables and the server's tables are not the
    /// same set; rejected before any thread spawns.
    HostedTableMismatch {
        /// The table only one side knows.
        table: usize,
        /// `true`: the server hosts it but the model does not mark it
        /// `Hosted`; `false`: the model marks it `Hosted` but the server
        /// lacks it.
        on_server: bool,
    },
    /// The pre-fetch queue delivered a batch other than the next one the
    /// worker trains — the serving side desynchronised. Surfaced through
    /// `PipelineReport::failure`.
    PrefetchOutOfOrder {
        /// Sequence number the pre-fetched batch carries.
        got: u64,
        /// Sequence number the worker needs next.
        expected: u64,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::PooledNeedsSequential => write!(
                f,
                "the pooled-embedding (reference DLRM) mode has no staleness protocol; \
                 run it sequentially"
            ),
            ServerError::GradientGap { got, expected } => {
                write!(f, "gradient push for batch {got} arrived before batch {expected}")
            }
            ServerError::UnknownTable(t) => {
                write!(f, "gradient for unknown hosted table {t}")
            }
            ServerError::RetriesExhausted { attempts, disconnected } => {
                let why =
                    if *disconnected { "the receiver hung up" } else { "the queue stayed full" };
                write!(f, "send retries exhausted after {attempts} attempts: {why}")
            }
            ServerError::HostedTableMismatch { table, on_server: true } => {
                write!(f, "server hosts table {table} the model does not mark Hosted")
            }
            ServerError::HostedTableMismatch { table, on_server: false } => {
                write!(f, "model marks table {table} Hosted but the server lacks it")
            }
            ServerError::PrefetchOutOfOrder { got, expected } => {
                write!(f, "pre-fetch queue delivered batch {got}, the worker expected {expected}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// What [`HostServer::apply_checked`] did with a push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The push was the next in sequence and has been applied.
    Applied,
    /// The push was for an already-applied batch (a retransmission); the
    /// tables were left untouched, making re-delivery idempotent.
    Duplicate,
}

/// How the server serves hosted tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// EL-Rec style: ship deduplicated unique rows; the worker pools them
    /// and pushes aggregated per-row gradients. Compatible with pipelining
    /// through the embedding cache.
    UniqueRows,
    /// Reference-DLRM style: the CPU performs the full `EmbeddingBag`
    /// forward (pooling) and backward; pooled `batch x dim` activations and
    /// gradients cross the bus. Strictly sequential — this is the paper's
    /// DLRM (CPU+GPU) baseline.
    PooledEmbeddings,
}

/// Rows pre-fetched for one batch, stamped with the server's progress.
///
/// Carries the mini-batch itself: the server doubles as the data loader
/// (the NVTabular role in the paper's setup), so batch generation is part
/// of the host stage the pipeline overlaps with device compute.
#[derive(Clone, Debug)]
pub struct PrefetchedBatch {
    /// Sequence number of the batch these rows serve.
    pub batch_seq: u64,
    /// Number of gradient batches the server had applied when gathering —
    /// the staleness stamp the embedding cache synchronizes against.
    pub applied_through: u64,
    /// The training batch itself.
    pub batch: MiniBatch,
    /// Per hosted table: `(table id, unique sorted indices, rows)`
    /// (`UniqueRows` mode).
    pub tables: Vec<(usize, Vec<u32>, Matrix)>,
    /// Per hosted table: `(table id, pooled batch x dim embeddings)`
    /// (`PooledEmbeddings` mode).
    pub pooled: Vec<(usize, Matrix)>,
}

impl PrefetchedBatch {
    /// Bytes of embedding payload (the H2D traffic this transfer costs).
    pub fn payload_bytes(&self) -> usize {
        let unique: usize =
            self.tables.iter().map(|(_, idx, rows)| idx.len() * 4 + rows.footprint_bytes()).sum();
        let pooled: usize = self.pooled.iter().map(|(_, m)| m.footprint_bytes()).sum();
        unique + pooled
    }
}

/// One shard's answer to its share of a fanned-out gather
/// ([`HostServer::serve_rows`]).
#[derive(Clone, Debug)]
pub struct ShardRows {
    /// Sequence number of the batch being answered.
    pub seq: u64,
    /// The shard's applied watermark when it served.
    pub applied: u64,
    /// Served rows, one matrix per requested table, in request order.
    pub rows: Vec<Matrix>,
}

/// Gradients pushed back for one batch.
#[derive(Clone, Debug)]
pub struct GradientPush {
    /// Sequence number of the batch that produced these gradients.
    pub batch_seq: u64,
    /// Per hosted table: `(table id, aggregated sparse gradient)`
    /// (`UniqueRows` mode).
    pub tables: Vec<(usize, SparseGrad)>,
    /// Per hosted table: `(table id, pooled-embedding gradient)`
    /// (`PooledEmbeddings` mode; the server re-derives per-row updates).
    pub pooled: Vec<(usize, Matrix)>,
}

impl GradientPush {
    /// Bytes of gradient payload (D2H traffic).
    pub fn payload_bytes(&self) -> usize {
        let unique: usize =
            self.tables.iter().map(|(_, g)| g.indices.len() * 4 + g.values.len() * 4).sum();
        let pooled: usize = self.pooled.iter().map(|(_, m)| m.footprint_bytes()).sum();
        unique + pooled
    }
}

/// The host-side parameter server.
pub struct HostServer {
    /// Hosted tables: `(table id in the model, table)`.
    pub tables: Vec<(usize, EmbeddingBag)>,
    /// SGD learning rate applied to pushed gradients.
    pub lr: f32,
    /// Gradient batches applied so far.
    pub applied: u64,
    /// Communication accounting (what the PCIe link would carry).
    pub meter: CommMeter,
    /// Measured CPU time spent gathering and applying (the host-side cost
    /// that stays at CPU speed in the simulated-device model).
    pub cpu_time: Duration,
    /// Measured CPU time spent generating batches (the data-loader role —
    /// NVTabular in the paper's setup — reported separately because both
    /// the paper's baselines and EL-Rec use the same loader).
    pub gen_time: Duration,
    /// Serving strategy.
    pub mode: ServerMode,
}

/// Outcome of a completed serving run.
pub struct ServerReport {
    /// The serving side as one server: final (merged) table state, the
    /// slowest shard's applied watermark, meters and CPU times summed.
    pub server: HostServer,
    /// Primary promotions performed across all replica groups.
    pub failovers: u64,
    /// Wall time from the first thread spawn to the last join.
    pub wall: Duration,
}

impl HostServer {
    /// A server hosting the given tables.
    pub fn new(tables: Vec<(usize, EmbeddingBag)>, lr: f32) -> Self {
        Self {
            tables,
            lr,
            applied: 0,
            meter: CommMeter::new(),
            cpu_time: Duration::ZERO,
            gen_time: Duration::ZERO,
            mode: ServerMode::UniqueRows,
        }
    }

    /// Switches the serving strategy (builder style).
    pub fn with_mode(mut self, mode: ServerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Serves batch `seq` from every hosted table: unique rows
    /// (`UniqueRows`) or CPU-pooled embeddings (`PooledEmbeddings`).
    pub fn gather(&mut self, batch: MiniBatch, seq: u64) -> PrefetchedBatch {
        let t0 = thread_cpu_time();
        let mut tables = Vec::new();
        let mut pooled = Vec::new();
        match self.mode {
            ServerMode::UniqueRows => {
                tables = self
                    .tables
                    .iter()
                    .map(|(t, bag)| {
                        let field = &batch.fields[*t];
                        let mut unique: Vec<u32> = field.indices.clone();
                        unique.sort_unstable();
                        unique.dedup();
                        let rows = bag.gather_rows(&unique);
                        (*t, unique, rows)
                    })
                    .collect();
            }
            ServerMode::PooledEmbeddings => {
                pooled = self
                    .tables
                    .iter()
                    .map(|(t, bag)| {
                        let field = &batch.fields[*t];
                        (*t, bag.forward(&field.indices, &field.offsets))
                    })
                    .collect();
            }
        }
        let pf = PrefetchedBatch {
            batch_seq: seq,
            applied_through: self.applied,
            batch,
            tables,
            pooled,
        };
        self.meter.h2d(pf.payload_bytes());
        self.cpu_time += thread_cpu_time() - t0;
        pf
    }

    /// The shard side of a fanned-out gather
    /// ([`crate::router::ShardRouter::fan_out`]): serves each requested
    /// `(table id, local rows)` in order, stamped with this server's
    /// watermark and metered as H2D traffic. A table this server does not
    /// host is [`ServerError::UnknownTable`].
    pub fn serve_rows(
        &mut self,
        seq: u64,
        requests: &[(usize, Vec<u32>)],
    ) -> Result<ShardRows, ServerError> {
        let t0 = thread_cpu_time();
        let mut rows = Vec::with_capacity(requests.len());
        let mut bytes = 0usize;
        for (table_id, locals) in requests {
            let Some((_, bag)) = self.tables.iter().find(|(id, _)| id == table_id) else {
                return Err(ServerError::UnknownTable(*table_id));
            };
            bytes += locals.len() * (4 + bag.dim() * 4);
            rows.push(bag.gather_rows(locals));
        }
        self.meter.h2d(bytes);
        self.cpu_time += thread_cpu_time() - t0;
        Ok(ShardRows { seq, applied: self.applied, rows })
    }

    /// Applies one pushed gradient batch with SGD, tolerating the delivery
    /// faults an unreliable link can introduce:
    ///
    /// * a push for an **already-applied** batch (a retransmission) is
    ///   ignored and reported as [`ApplyOutcome::Duplicate`] — application
    ///   is idempotent per sequence number, which is what makes
    ///   at-least-once delivery safe;
    /// * a push **beyond** the next expected batch returns
    ///   [`ServerError::GradientGap`] so the caller can buffer it and
    ///   retry once the gap fills — the tables are never touched out of
    ///   order;
    /// * a push for an unknown table returns [`ServerError::UnknownTable`]
    ///   without applying anything.
    ///
    /// Delivered bytes are metered even for duplicates: they crossed the
    /// bus whether or not they changed state.
    pub fn apply_checked(&mut self, push: &GradientPush) -> Result<ApplyOutcome, ServerError> {
        let t0 = thread_cpu_time();
        self.meter.d2h(push.payload_bytes());
        if push.batch_seq < self.applied {
            self.cpu_time += thread_cpu_time() - t0;
            return Ok(ApplyOutcome::Duplicate);
        }
        if push.batch_seq > self.applied {
            self.cpu_time += thread_cpu_time() - t0;
            return Err(ServerError::GradientGap { got: push.batch_seq, expected: self.applied });
        }
        for (t, _) in &push.tables {
            if !self.tables.iter().any(|(id, _)| id == t) {
                self.cpu_time += thread_cpu_time() - t0;
                return Err(ServerError::UnknownTable(*t));
            }
        }
        for (t, grad) in &push.tables {
            let bag =
                // PANIC-OK: every table id was validated in the loop above.
                &mut self.tables.iter_mut().find(|(id, _)| id == t).expect("validated above").1;
            bag.apply_sparse_grad(grad, self.lr);
        }
        self.applied += 1;
        self.cpu_time += thread_cpu_time() - t0;
        Ok(ApplyOutcome::Applied)
    }

    /// Applies a pooled-gradient push (`PooledEmbeddings` mode): the full
    /// `EmbeddingBag` backward runs on the CPU, exactly like the reference
    /// DLRM baseline.
    pub fn apply_pooled(&mut self, push: &GradientPush, batch: &MiniBatch) {
        let t0 = thread_cpu_time();
        assert_eq!(push.batch_seq, self.applied, "gradient batches must arrive in order");
        self.meter.d2h(push.payload_bytes());
        let lr = self.lr;
        for (t, d_pooled) in &push.pooled {
            let bag = &mut self
                .tables
                .iter_mut()
                .find(|(id, _)| id == t)
                // PANIC-OK: a pooled gradient for a non-hosted table is a protocol bug.
                .unwrap_or_else(|| panic!("gradient for unknown hosted table {t}"))
                .1;
            let field = &batch.fields[*t];
            bag.backward_sgd(&field.indices, &field.offsets, d_pooled, lr);
        }
        self.applied += 1;
        self.cpu_time += thread_cpu_time() - t0;
    }
}

/// Sends `value` with bounded retry and exponential backoff, for queues
/// that may be transiently saturated (a stalled consumer). Returns the
/// value and a typed [`ServerError::RetriesExhausted`] cause on failure so
/// the caller can surface the halt through `PipelineReport` instead of
/// silently stopping:
///
/// * the receiver hung up — retrying is pointless, fail immediately
///   (`disconnected == true`);
/// * the queue stayed full through every attempt — the consumer is wedged
///   or lagging beyond the backoff budget (~1 s at 16 attempts: 100 µs
///   doubling, capped at 200 ms per sleep), and the caller should stop
///   pushing rather than block forever (`disconnected == false`).
///
/// Each sleep adds deterministic seeded jitter (up to a quarter of the
/// backoff, derived from `jitter_seed` and the attempt number through
/// `splitmix64`) so concurrent retriers decorrelate without introducing
/// any run-to-run nondeterminism: the same seed always produces the same
/// backoff schedule, which is what keeps seeded sim replays bit-for-bit.
pub fn send_with_retry<T>(
    tx: &Sender<T>,
    value: T,
    max_attempts: u32,
    jitter_seed: u64,
) -> Result<(), (T, ServerError)> {
    let mut value = value;
    let mut backoff = Duration::from_micros(100);
    let attempts = max_attempts.max(1);
    for attempt in 0..attempts {
        match tx.try_send(value) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(v)) => {
                return Err((
                    v,
                    ServerError::RetriesExhausted { attempts: attempt + 1, disconnected: true },
                ));
            }
            Err(TrySendError::Full(v)) => {
                value = v;
                if attempt + 1 < attempts {
                    let jitter_ns = crate::replica::splitmix64(jitter_seed ^ u64::from(attempt))
                        % (backoff.as_nanos() as u64 / 4 + 1);
                    std::thread::sleep(backoff + Duration::from_nanos(jitter_ns));
                    backoff = (backoff * 2).min(Duration::from_millis(200));
                }
            }
        }
    }
    Err((value, ServerError::RetriesExhausted { attempts, disconnected: false }))
}

/// Sum-pools pre-fetched unique rows into per-sample embeddings — the
/// worker-side substitute for a local `EmbeddingBag::forward` when the
/// table lives on the host.
pub fn pool_prefetched(indices: &[u32], offsets: &[u32], unique: &[u32], rows: &Matrix) -> Matrix {
    let dim = rows.cols();
    let batch = offsets.len() - 1;
    let mut out = Matrix::zeros(batch, dim);
    for s in 0..batch {
        let dst = out.row_mut(s);
        for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
            // PANIC-OK: `unique` covers every batch index by construction.
            let slot = unique.binary_search(&i).expect("index missing from prefetch");
            for (d, v) in dst.iter_mut().zip(rows.row(slot)) {
                *d += v;
            }
        }
    }
    out
}

/// Aggregates a pooled-embedding gradient into per-unique-row gradients —
/// the worker-side push payload builder.
pub fn aggregate_to_unique(
    indices: &[u32],
    offsets: &[u32],
    unique: &[u32],
    d_out: &Matrix,
) -> SparseGrad {
    let dim = d_out.cols();
    let mut values = vec![0.0f32; unique.len() * dim];
    for s in 0..d_out.rows() {
        let g = d_out.row(s);
        for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
            // PANIC-OK: `unique` covers every batch index by construction.
            let slot = unique.binary_search(&i).expect("index missing from prefetch");
            for (v, gv) in values[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                *v += gv;
            }
        }
    }
    SparseGrad { indices: unique.to_vec(), values, dim }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use el_data::{DatasetSpec, SyntheticDataset};
    use rand::SeedableRng;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(DatasetSpec::toy(2, 50, 10_000), 3)
    }

    fn server() -> HostServer {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tables = vec![
            (0usize, EmbeddingBag::new(50, 8, 0.2, &mut rng)),
            (1usize, EmbeddingBag::new(50, 8, 0.2, &mut rng)),
        ];
        HostServer::new(tables, 0.1)
    }

    #[test]
    fn gather_returns_unique_sorted_rows() {
        let mut s = server();
        let batch = dataset().batch(0, 16);
        let pf = s.gather(batch, 0);
        assert_eq!(pf.tables.len(), 2);
        for (t, unique, rows) in &pf.tables {
            assert!(unique.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
            assert_eq!(rows.rows(), unique.len());
            let bag = &s.tables.iter().find(|(id, _)| id == t).unwrap().1;
            for (r, &i) in unique.iter().enumerate() {
                assert_eq!(rows.row(r), bag.weight.row(i as usize));
            }
        }
        assert!(s.meter.h2d_bytes > 0);
    }

    #[test]
    fn apply_updates_rows_in_order() {
        let mut s = server();
        let before = s.tables[0].1.weight.row(7).to_vec();
        let push = GradientPush {
            batch_seq: 0,
            tables: vec![(0, SparseGrad { indices: vec![7], values: vec![1.0; 8], dim: 8 })],
            pooled: vec![],
        };
        assert_eq!(s.apply_checked(&push), Ok(ApplyOutcome::Applied));
        let after = s.tables[0].1.weight.row(7);
        for (b, a) in before.iter().zip(after) {
            assert!((b - 0.1 - a).abs() < 1e-6);
        }
        assert_eq!(s.applied, 1);
    }

    #[test]
    fn pool_prefetched_matches_dense_bag() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let bag = EmbeddingBag::new(20, 4, 0.3, &mut rng);
        let indices = [3u32, 7, 3, 11];
        let offsets = [0u32, 2, 4];
        let want = bag.forward(&indices, &offsets);

        let unique = vec![3u32, 7, 11];
        let rows = bag.gather_rows(&unique);
        let got = pool_prefetched(&indices, &offsets, &unique, &rows);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn aggregate_matches_sparse_grad() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bag = EmbeddingBag::new(20, 4, 0.3, &mut rng);
        let indices = [3u32, 7, 3, 11];
        let offsets = [0u32, 2, 4];
        let d_out = Matrix::uniform(2, 4, 1.0, &mut rng);
        let want = bag.sparse_grad(&indices, &offsets, &d_out);

        let unique = vec![3u32, 7, 11];
        let got = aggregate_to_unique(&indices, &offsets, &unique, &d_out);
        assert_eq!(got.indices, want.indices);
        for (a, b) in got.values.iter().zip(&want.values) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn apply_checked_dedups_and_reports_gaps() {
        let mut s = server();
        let push = GradientPush {
            batch_seq: 0,
            tables: vec![(0, SparseGrad { indices: vec![7], values: vec![1.0; 8], dim: 8 })],
            pooled: vec![],
        };
        assert_eq!(s.apply_checked(&push), Ok(ApplyOutcome::Applied));
        let after_first = s.tables[0].1.weight.row(7).to_vec();
        // retransmission of the same push: idempotent, tables untouched
        assert_eq!(s.apply_checked(&push), Ok(ApplyOutcome::Duplicate));
        assert_eq!(s.tables[0].1.weight.row(7), after_first.as_slice());
        assert_eq!(s.applied, 1);
        // a push from the future is a gap, not an application
        let future = GradientPush { batch_seq: 3, tables: vec![], pooled: vec![] };
        assert_eq!(s.apply_checked(&future), Err(ServerError::GradientGap { got: 3, expected: 1 }));
        assert_eq!(s.applied, 1);
    }

    #[test]
    fn apply_checked_rejects_unknown_tables_without_applying() {
        let mut s = server();
        let before = s.tables[0].1.weight.row(7).to_vec();
        let push = GradientPush {
            batch_seq: 0,
            tables: vec![
                (0, SparseGrad { indices: vec![7], values: vec![1.0; 8], dim: 8 }),
                (9, SparseGrad { indices: vec![1], values: vec![1.0; 8], dim: 8 }),
            ],
            pooled: vec![],
        };
        assert_eq!(s.apply_checked(&push), Err(ServerError::UnknownTable(9)));
        // validation is up-front: table 0 must not have been half-applied
        assert_eq!(s.tables[0].1.weight.row(7), before.as_slice());
        assert_eq!(s.applied, 0);
    }

    #[test]
    fn send_with_retry_recovers_from_transient_saturation() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap(); // saturate
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let first = rx.recv().unwrap();
            let second = rx.recv().unwrap();
            (first, second)
        });
        assert!(send_with_retry(&tx, 2, 16, 0xA1).is_ok(), "retry must outlast a 5 ms stall");
        assert_eq!(consumer.join().unwrap(), (1, 2));
    }

    #[test]
    fn send_with_retry_gives_up_on_wedged_and_gone_consumers() {
        // wedged: receiver alive but never consuming — bounded attempts,
        // typed exhaustion cause with the value handed back
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        assert_eq!(
            send_with_retry(&tx, 3, 2, 0xA1),
            Err((3, ServerError::RetriesExhausted { attempts: 2, disconnected: false }))
        );
        drop(rx);
        // gone: fail immediately, disconnection recorded
        assert_eq!(
            send_with_retry(&tx, 4, 1_000_000, 0xA1),
            Err((4, ServerError::RetriesExhausted { attempts: 1, disconnected: true }))
        );
    }
}
