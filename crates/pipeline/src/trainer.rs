//! The three-stage pipelined trainer (paper Figure 9 / Figure 10).
//!
//! One worker (device) trains the MLPs and TT tables; the host side
//! gathers and updates host-resident embedding tables. The three stages —
//! host gather, device compute, host update — overlap through the
//! pre-fetch and gradient queues; the embedding cache keeps pre-fetched
//! rows consistent (RAW conflict, §V-B).
//!
//! There is **one driver**, [`PipelineTrainer::try_train_replicated`],
//! and one shape of run: [`ShardLayout::place_for`] places the hosted
//! tables on `N` shards, each shard is a thread serving a `K`-member
//! [`ReplicaGroup`], one router thread ([`ServingLoop::run`]) fans every
//! gather out and every push in, and the worker trains against the two
//! queues, oblivious to the topology. The single host server of Figure 9
//! is `N = K = 1` of that shape — [`PipelineTrainer::try_train`] — not a
//! separate path: one shard owning every row (handed its tables by move),
//! a group of one holding no copy of them. The only selection left is one
//! the code observes: [`ServerMode::PooledEmbeddings`], the reference-DLRM
//! baseline of Figure 16, has no per-row partition and no staleness
//! protocol, so it trains in a plain sequential loop and is a typed error
//! under any other topology or schedule.
//!
//! Pipelining, sharding and replication are all *numerically neutral*:
//! every value the worker trains on is bit-for-bit the value the
//! sequential single-server schedule would produce (`pipeline_equivalence`
//! and the `topology_determinism` matrix assert this; see `crate::router`
//! for the min-stamp argument and `crate::replica` for lockstep).

use crate::cache::WorkerCache;
use crate::ckpt::{CkptError, CkptStore, ServerCheckpoint, Storage, TrainingCheckpoint};
use crate::device::{thread_cpu_time, CommMeter};
use crate::replica::{splitmix64, ReplicaGroup, ReplicationConfig};
use crate::router::{
    merge_tables_owned, split_tables_owned, ShardConfig, ShardLayout, ShardRequest, ShardRouter,
};
use crate::server::{
    send_with_retry, GradientPush, HostServer, PrefetchedBatch, ServerError, ServerMode,
    ServerReport, ShardRows,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use el_data::SyntheticDataset;
use el_dlrm::checkpoint::DlrmCheckpoint;
use el_dlrm::embedding_bag::EmbeddingBag;
use el_dlrm::DlrmModel;
use std::time::{Duration, Instant};

/// Pipeline run configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Samples per batch.
    pub batch_size: usize,
    /// First batch index in the dataset.
    pub first_batch: u64,
    /// Number of batches to train.
    pub num_batches: u64,
    /// Pre-fetch queue depth (the paper's queue length).
    pub prefetch_depth: usize,
    /// Overlap host and device stages; `false` reproduces the strict
    /// sequential baseline regardless of queue depth.
    pub pipelined: bool,
    /// Inert: nothing reads it. Every TT table builds its plan inside its
    /// own forward call. The field stays only because the frozen `perf/`
    /// package names it; ROADMAP item 5(e) deletes it.
    pub overlap_analysis: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            batch_size: 256,
            first_batch: 0,
            num_batches: 32,
            prefetch_depth: 4,
            pipelined: true,
            overlap_analysis: true,
        }
    }
}

/// Outcome of a pipeline training run.
pub struct PipelineReport {
    /// Batches the worker actually trained. Equal to the configured
    /// `num_batches` on a clean run; smaller when the server disappeared
    /// or the gradient queue stayed saturated beyond the retry budget and
    /// the worker degraded to an early stop.
    pub completed_batches: u64,
    /// Per-batch training losses.
    pub losses: Vec<f32>,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Training throughput in samples per second.
    pub samples_per_sec: f64,
    /// Stale pre-fetched rows the cache corrected.
    pub stale_hits: u64,
    /// Peak cache footprint across the run.
    pub cache_peak_bytes: usize,
    /// Server-side communication accounting.
    pub server_meter: CommMeter,
    /// Measured server CPU time (gather + update) — host-speed cost.
    pub server_cpu: Duration,
    /// Measured batch-generation CPU time (data-loader role).
    pub loader_cpu: Duration,
    /// Wall-clock time the worker spent inside its train steps — the
    /// device stage the simulated device model scales. Wall clock, not the
    /// worker thread's CPU time: a step runs its GEMMs and interaction
    /// bands across the rayon pool, and every thread of it is the device.
    pub worker_compute: Duration,
    /// Final worker model state.
    pub model: DlrmModel,
    /// Final host-table state.
    pub host_tables: Vec<(usize, EmbeddingBag)>,
    /// Why the worker stopped early, when it did: `None` on a clean run,
    /// the typed cause (e.g. [`ServerError::RetriesExhausted`]) when
    /// `completed_batches < num_batches`.
    pub failure: Option<ServerError>,
    /// Primary promotions performed across all replica groups (0 for the
    /// unreplicated paths).
    pub failovers: u64,
}

/// Drives one worker plus the host parameter tier.
pub struct PipelineTrainer;

impl PipelineTrainer {
    /// Trains `model` (whose [`el_dlrm::EmbeddingLayer::Hosted`] tables are
    /// owned by `server`) on `dataset` per `config` against a single
    /// unreplicated host server: [`PipelineTrainer::try_train_replicated`]
    /// at `N = K = 1`.
    // CONTRACT: panic-free
    pub fn try_train(
        model: DlrmModel,
        server: HostServer,
        dataset: &SyntheticDataset,
        config: &PipelineConfig,
    ) -> Result<PipelineReport, ServerError> {
        let (one_shard, one_replica) = (ShardConfig::default(), ReplicationConfig::default());
        Self::try_train_replicated(model, server, dataset, config, &one_shard, &one_replica)
    }

    /// Trains `model` against the parameter tier `shard_cfg` x `repl`
    /// describe: the server's hosted tables are split under a
    /// consistent-hash [`ShardLayout`] into `N` shards, each a thread with
    /// its own bounded intake queue and push-stamp domain serving a
    /// `K`-member lockstep [`ReplicaGroup`], behind one router thread (see
    /// [`ServingLoop`]). Training values are byte-identical at every
    /// `(N, K)`, pipelined or not.
    ///
    /// `repl.kill_primary_at` is the deterministic failover drill
    /// schedule: each `(shard, watermark)` kills that shard's primary
    /// right after its applied count reaches the watermark (drills that
    /// would kill the last member are skipped — the drill proves failover,
    /// not data loss). `PipelineReport::failovers` counts the promotions.
    ///
    /// A configuration that cannot be served is a typed [`ServerError`]
    /// before any thread spawns or any batch trains: model and server
    /// disagreeing on the hosted tables, or `PooledEmbeddings` mode asked
    /// for anything but the sequential single-server schedule.
    // CONTRACT: panic-free
    pub fn try_train_replicated(
        model: DlrmModel,
        server: HostServer,
        dataset: &SyntheticDataset,
        config: &PipelineConfig,
        shard_cfg: &ShardConfig,
        repl: &ReplicationConfig,
    ) -> Result<PipelineReport, ServerError> {
        let hosted = model.hosted_tables();
        if let Some((table, _)) = server.tables.iter().find(|(t, _)| !hosted.contains(t)) {
            return Err(ServerError::HostedTableMismatch { table: *table, on_server: true });
        }
        if let Some(&table) = hosted.iter().find(|t| !server.tables.iter().any(|(id, _)| id == *t))
        {
            return Err(ServerError::HostedTableMismatch { table, on_server: false });
        }

        let (worker, served) = if server.mode == ServerMode::PooledEmbeddings {
            if config.pipelined || shard_cfg.num_shards > 1 || repl.replicas > 1 {
                return Err(ServerError::PooledNeedsSequential);
            }
            train_pooled(model, server, dataset, config)
        } else {
            // The serving loop lists the tables in ascending id order, the
            // model's hosted order, and the checks above make them one set:
            // tables, caches and gradients line up. The worker predicts
            // post-update rows with the server's rate.
            let cache = WorkerCache::new(hosted.len(), server.lr);
            ServingLoop::new(server, config, shard_cfg, repl)?
                .run(dataset, |prx, gtx| run_worker(model, cache, config, prx, gtx))
        };

        let completed_batches = worker.losses.len() as u64;
        let samples = completed_batches as f64 * config.batch_size as f64;
        Ok(PipelineReport {
            completed_batches,
            losses: worker.losses,
            wall: served.wall,
            samples_per_sec: samples / served.wall.as_secs_f64(),
            stale_hits: worker.stale_hits,
            cache_peak_bytes: worker.cache_peak_bytes,
            server_meter: served.server.meter,
            server_cpu: served.server.cpu_time,
            loader_cpu: served.server.gen_time,
            worker_compute: worker.worker_compute,
            model: worker.model,
            host_tables: served.server.tables,
            failure: worker.failure,
            failovers: served.failovers,
        })
    }
}

/// The sequential reference-DLRM baseline of Figure 16
/// ([`ServerMode::PooledEmbeddings`]): the CPU runs the full
/// `EmbeddingBag` forward and backward and pooled `batch x dim`
/// activations cross the bus, strictly one batch at a time. With no
/// per-row partition and no staleness there is nothing to shard, queue or
/// overlap, so this is a plain loop on the calling thread.
fn train_pooled(
    mut model: DlrmModel,
    mut server: HostServer,
    dataset: &SyntheticDataset,
    config: &PipelineConfig,
) -> (WorkerRun, ServerReport) {
    let mut losses = Vec::with_capacity(config.num_batches as usize);
    let mut worker_compute = Duration::ZERO;
    // TIMING: end-to-end wall clock of the run, reported to the caller.
    let start = Instant::now();
    for k in 0..config.num_batches {
        let t0 = thread_cpu_time();
        let batch = dataset.batch(config.first_batch + k, config.batch_size);
        server.gen_time += thread_cpu_time() - t0;
        let pf = server.gather(batch, k);
        // TIMING: once per batch around the whole step; wall clock because
        // the step fans out over the rayon pool, whose threads this
        // thread's CPU clock does not see.
        let t0 = Instant::now();
        let out = model.train_step_hybrid(&pf.batch, &pf.pooled);
        worker_compute += t0.elapsed();
        losses.push(out.loss);
        let push = GradientPush {
            batch_seq: server.applied,
            tables: Vec::new(),
            pooled: out.hosted_grads,
        };
        server.apply_pooled(&push, &pf.batch);
    }
    let wall = start.elapsed();
    let worker = WorkerRun {
        model,
        losses,
        stale_hits: 0,
        cache_peak_bytes: 0,
        worker_compute,
        failure: None,
    };
    (worker, ServerReport { server, failovers: 0, wall })
}

/// The serving side of a pipeline run: `N` shard threads, each serving a
/// `K`-member [`ReplicaGroup`], behind one router thread that plays the
/// host role of Figure 9 — data loader, pre-fetch producer, gradient
/// consumer. Constructed separately from being run so that a mode the
/// staleness protocol cannot serve is a typed error at construction time
/// — not a panic mid-training.
pub struct ServingLoop {
    layout: ShardLayout,
    /// Per shard: its replica group and its sorted kill-drill watermarks.
    shards: Vec<(ReplicaGroup, Vec<u64>)>,
    lr: f32,
    config: PipelineConfig,
}

impl ServingLoop {
    /// Places `server`'s tables on `shard_cfg.num_shards` shards (moving
    /// them: nothing keeps the unsplit tables alive) and wraps each shard
    /// in a group of `repl.replicas` members. The tables are placed in
    /// ascending id order, so every pre-fetched batch lists them so.
    ///
    /// `PooledEmbeddings` mode runs the full embedding forward/backward on
    /// the CPU and has neither a per-row partition nor a staleness
    /// protocol, so it cannot be served from queues at all:
    /// [`ServerError::PooledNeedsSequential`].
    pub fn new(
        mut server: HostServer,
        config: &PipelineConfig,
        shard_cfg: &ShardConfig,
        repl: &ReplicationConfig,
    ) -> Result<Self, ServerError> {
        if server.mode == ServerMode::PooledEmbeddings {
            return Err(ServerError::PooledNeedsSequential);
        }
        let lr = server.lr;
        server.tables.sort_unstable_by_key(|(t, _)| *t);
        let layout = ShardLayout::place_for(shard_cfg, &server.tables);
        let shard_tables = split_tables_owned(server.tables, &layout)
            // PANIC-OK: the layout was placed for exactly these tables.
            .expect("layout was placed for exactly these tables");
        let num_shards = shard_tables.len() as u32;
        let shards = (0..num_shards)
            .zip(shard_tables)
            .map(|(s, sub)| {
                let shard = HostServer::new(sub, lr);
                let group = ReplicaGroup::new(shard, repl.replicas, s, num_shards, 0);
                let mut kills: Vec<u64> = repl
                    .kill_primary_at
                    .iter()
                    .filter(|(shard, _)| *shard == s)
                    .map(|&(_, w)| w)
                    .collect();
                kills.sort_unstable();
                (group, kills)
            })
            .collect();
        Ok(Self { layout, shards, lr, config: *config })
    }

    /// Runs the serving side to completion against `worker`, which is
    /// called on this thread with the consumer end of the pre-fetch queue
    /// and the producer end of the gradient queue: spawns one thread per
    /// shard and the router, lets the router gather/pre-fetch every
    /// scheduled batch and scatter every pushed gradient, then performs
    /// the shutdown handshake — drain the gradient queue until every push
    /// the worker delivered has reached every shard, or the worker hangs
    /// up — and joins everything. Worker disappearance at any point
    /// degrades to a clean early return, never a panic or a wedge.
    // CONTRACT: panic-free
    pub fn run<W>(
        self,
        dataset: &SyntheticDataset,
        worker: impl FnOnce(Receiver<PrefetchedBatch>, Sender<GradientPush>) -> W,
    ) -> (W, ServerReport) {
        let ServingLoop { layout, shards, lr, config } = self;
        // The two queues of Figure 9. The pre-fetch capacity is the paper's
        // queue length: 1 degenerates the pipeline to sequential execution.
        let depth = if config.pipelined { config.prefetch_depth.max(1) } else { 1 };
        let (ptx, prx) = bounded(depth);
        let (gtx, grx) = bounded(depth * 2);

        // TIMING: end-to-end wall clock of the run, reported to the caller.
        let start = Instant::now();
        let mut stx = Vec::with_capacity(shards.len());
        let mut rrx = Vec::with_capacity(shards.len());
        let mut shard_handles = Vec::with_capacity(shards.len());
        for (group, kills) in shards {
            // Intake sized so the router's one outstanding gather plus the
            // in-flight scattered pushes never wedge it; the reply queue
            // holds at most that one gather's answer.
            let (tx, rx) = bounded::<ShardMsg>(depth * 2 + 2);
            let (rtx, reply_rx) = bounded::<ShardRows>(2);
            shard_handles.push(std::thread::spawn(move || replica_serve(group, kills, rx, rtx)));
            stx.push(tx);
            rrx.push(reply_rx);
        }
        let router_handle = std::thread::spawn({
            let (layout, ds) = (layout.clone(), dataset.clone());
            move || route_serve(layout, ds, config, stx, rrx, ptx, grx)
        });

        let out = worker(prx, gtx);

        let mut server = HostServer::new(Vec::new(), lr);
        // PANIC-OK: deliberately propagates a router-thread panic to the caller.
        (server.gen_time, server.cpu_time) = router_handle.join().expect("router thread panicked");
        server.applied = u64::MAX;
        let mut failovers = 0;
        let mut shard_tables = Vec::with_capacity(shard_handles.len());
        for handle in shard_handles {
            // PANIC-OK: deliberately propagates a shard-thread panic to the caller.
            let (shard, promoted) = handle.join().expect("shard thread panicked");
            server.meter.merge(&shard.meter);
            server.cpu_time += shard.cpu_time;
            server.applied = server.applied.min(shard.applied);
            failovers += promoted;
            shard_tables.push(shard.tables);
        }
        let wall = start.elapsed();

        server.tables = merge_tables_owned(shard_tables, &layout)
            // PANIC-OK: the shards were split under this exact layout.
            .expect("shards were split under this layout");
        (out, ServerReport { server, failovers, wall })
    }
}

/// One request to a shard server thread.
enum ShardMsg {
    /// Serve this shard's share of the gather of batch `seq`.
    Gather {
        /// Batch sequence number (echoed in the reply).
        seq: u64,
        /// Per table: shard-local row indices to serve.
        locals: ShardRequest,
    },
    /// Apply this scattered gradient push.
    Push(GradientPush),
}

/// One shard thread: serve gathers from the primary's sub-tables
/// ([`HostServer::serve_rows`]) and apply scattered pushes through the
/// [`ReplicaGroup`] — the per-shard [`HostServer::apply_checked`] stamp
/// domain, appended in lockstep to every alive backup. The sorted `kills`
/// schedule executes deterministic primary-kill drills the moment the
/// applied watermark reaches each entry; a drill that would kill the last
/// alive member is skipped (the drill proves failover, not data loss).
/// Any protocol violation — an unknown table, a gap, a vanished router —
/// degrades to returning the shard's final state, never a panic: a
/// production shard must survive its peers. Returns the surviving primary
/// plus the promotions performed.
// CONTRACT: panic-free
fn replica_serve(
    mut group: ReplicaGroup,
    kills: Vec<u64>,
    rx: Receiver<ShardMsg>,
    reply: Sender<ShardRows>,
) -> (HostServer, u64) {
    let mut next_kill = 0usize;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Gather { seq, locals } => {
                let Ok(primary) = group.primary_mut() else {
                    break; // the primary role sits on a dead rank: degrade
                };
                let Ok(rows) = primary.serve_rows(seq, &locals) else {
                    break; // gather for a table this shard lacks
                };
                if reply.send(rows).is_err() {
                    break; // router gone
                }
            }
            ShardMsg::Push(push) => {
                if group.apply_checked(&push).is_err() {
                    break; // gap or unknown table from a FIFO: degrade
                }
                // Failover drill: kill the primary once its watermark
                // reaches the next scheduled point and promote the next
                // rank — the steps the simulator's failover scenarios
                // take on suspicion. Adjacent watermarks exercise
                // kill-during-promotion; lockstep replication makes the
                // promoted backup byte-identical, so training continues
                // as if nothing happened.
                while next_kill < kills.len() && group.applied() >= kills[next_kill] {
                    next_kill += 1;
                    // never drill away the last copy
                    if group.alive() > 1 && group.kill(group.primary_rank()).is_ok() {
                        group.promote();
                    }
                }
            }
        }
    }
    let failovers = group.failovers();
    match group.into_primary() {
        Ok(server) => (server, failovers),
        // PANIC-OK: the drill loop never kills the last alive member and
        // a diverged backup dies only beside a live primary, so a dead
        // group here means the group was constructed dead (zero
        // replicas), which `ReplicaGroup::new` forbids.
        Err(_) => unreachable!("replica drills never kill the last member"),
    }
}

/// The router thread: the host of Figure 9 in front of the shard
/// threads. Per batch it generates the batch (the data-loader role), fans
/// the gather out to the owning shards and stitches their replies into one
/// [`PrefetchedBatch`] ([`ShardRouter::fan_out`] / [`ShardRouter::stitch`]),
/// and forwards each worker push as per-shard sub-pushes. Returns the
/// batch-generation CPU time and the CPU time of everything else it did
/// (fan-out, stitch: host serving work the shard meters do not see).
fn route_serve(
    layout: ShardLayout,
    dataset: SyntheticDataset,
    config: PipelineConfig,
    stx: Vec<Sender<ShardMsg>>,
    rrx: Vec<Receiver<ShardRows>>,
    ptx: Sender<PrefetchedBatch>,
    grx: Receiver<GradientPush>,
) -> (Duration, Duration) {
    let PipelineConfig { first_batch: first, num_batches: count, batch_size, pipelined, .. } =
        config;
    let began = thread_cpu_time();
    let mut router = ShardRouter::new(layout);
    let mut gen_time = Duration::ZERO;
    let mut forwarded = 0u64;
    'serve: for k in 0..count {
        if pipelined {
            // opportunistically absorb and scatter any pending gradients
            while let Ok(push) = grx.try_recv() {
                if forward_push(&mut router, &stx, &push).is_err() {
                    break 'serve;
                }
                forwarded += 1;
            }
        }
        let t0 = thread_cpu_time();
        let batch = dataset.batch(first + k, batch_size);
        gen_time += thread_cpu_time() - t0;

        let Ok((pending, requests)) = router.fan_out(batch, k) else {
            break; // an index outside the placed rows: degrade
        };
        for (tx, locals) in stx.iter().zip(requests) {
            if tx.send(ShardMsg::Gather { seq: k, locals }).is_err() {
                break 'serve; // shard gone
            }
        }
        let mut replies = Vec::with_capacity(rrx.len());
        for rx in &rrx {
            let Ok(reply) = rx.recv() else {
                break 'serve; // shard died
            };
            replies.push(reply);
        }
        let Ok(pf) = router.stitch(pending, replies) else {
            break; // a shard desynchronized
        };
        if ptx.send(pf).is_err() {
            break; // worker gone
        }
        if !pipelined {
            // strict alternation: this batch's gradients before the next gather
            match grx.recv() {
                Ok(push) if forward_push(&mut router, &stx, &push).is_ok() => forwarded += 1,
                _ => break,
            }
        }
    }
    drop(ptx);
    // Shutdown handshake: scatter every push the worker delivered before
    // hanging up, so all shards drain to the same watermark.
    while forwarded < count {
        match grx.recv() {
            Ok(push) if forward_push(&mut router, &stx, &push).is_ok() => forwarded += 1,
            _ => break,
        }
    }
    (gen_time, thread_cpu_time() - began - gen_time)
}

/// Scatters one worker push and forwards the per-shard sub-pushes with
/// bounded retry. Errors mean a shard vanished or the push referenced
/// rows outside the layout — either way the serving run degrades.
fn forward_push(
    router: &mut ShardRouter,
    stx: &[Sender<ShardMsg>],
    push: &GradientPush,
) -> Result<(), ()> {
    let Ok(scattered) = router.scatter_push(push) else {
        return Err(());
    };
    for (s, (tx, p)) in stx.iter().zip(scattered).enumerate() {
        let seed = splitmix64(push.batch_seq ^ ((s as u64) << 32));
        if send_with_retry(tx, ShardMsg::Push(p), 16, seed).is_err() {
            return Err(());
        }
    }
    Ok(())
}

/// What the worker side of a pipeline run produced.
struct WorkerRun {
    /// Final worker model state.
    model: DlrmModel,
    /// Per-batch training losses (one per batch that actually trained).
    losses: Vec<f32>,
    /// Stale pre-fetched rows the caches corrected.
    stale_hits: u64,
    /// Peak cache footprint across the run.
    cache_peak_bytes: usize,
    /// Wall-clock time inside the train steps (the device stage), pool
    /// threads included.
    worker_compute: Duration,
    /// Why the worker stopped early, if it did.
    failure: Option<ServerError>,
}

/// The worker (device) side of the pipeline: consume pre-fetched
/// batches, run the [`WorkerCache`]'s stage 1, train, run its stage 3
/// (cache refresh with post-update rows) and push the gradients. The
/// worker is oblivious to how many shards and replicas assembled its
/// [`PrefetchedBatch`].
// CONTRACT: panic-free
fn run_worker(
    mut model: DlrmModel,
    mut cache: WorkerCache,
    config: &PipelineConfig,
    prx: Receiver<PrefetchedBatch>,
    gtx: Sender<GradientPush>,
) -> WorkerRun {
    let mut losses = Vec::with_capacity(config.num_batches as usize);
    let mut cache_peak = 0usize;
    let mut worker_compute = Duration::ZERO;
    let mut failure = None;

    for k in 0..config.num_batches {
        // A vanished server (its thread died or dropped the queue) is a
        // degraded early stop for the worker, not a panic: the partial
        // report still carries every batch that trained.
        let Ok(mut pf) = prx.recv() else {
            break;
        };
        if pf.batch_seq != k {
            failure = Some(ServerError::PrefetchOutOfOrder { got: pf.batch_seq, expected: k });
            break;
        }

        // Stage 1 (Figure 9): synchronize pre-fetched rows with the
        // cache, then pool them into per-sample embeddings.
        let hosted_embs = cache.pool(&mut pf);

        // Device compute: MLPs + TT tables + interaction.
        // TIMING: once per batch around the whole step; wall clock because
        // the step fans out over the rayon pool, whose threads this
        // thread's CPU clock does not see.
        let t0 = Instant::now();
        let out = model.train_step_hybrid(&pf.batch, &hosted_embs);
        worker_compute += t0.elapsed();
        losses.push(out.loss);

        // Stage 3: aggregate, refresh the cache with the post-update rows
        // and push. Bounded retry with backoff: a transiently saturated
        // gradient queue is ridden out, a wedged or vanished server ends
        // the run gracefully after the retry budget instead of blocking
        // this worker forever.
        let push = cache.gradient_push(&pf, &out.hosted_grads);
        if let Err((_, cause)) = send_with_retry(&gtx, push, 16, splitmix64(k)) {
            failure = Some(cause);
            break;
        }

        cache_peak = cache_peak.max(cache.footprint_bytes());
    }
    drop(gtx);
    WorkerRun {
        model,
        stale_hits: cache.stale_hits(),
        losses,
        cache_peak_bytes: cache_peak,
        worker_compute,
        failure,
    }
}

impl PipelineTrainer {
    /// Captures the full training state as of `next_batch` (the next
    /// dataset batch an uninterrupted run would train): worker model with
    /// optimizer accumulators, hosted tables, and the loader cursor.
    pub fn capture(
        model: &DlrmModel,
        host_tables: &[(usize, EmbeddingBag)],
        lr: f32,
        next_batch: u64,
    ) -> TrainingCheckpoint {
        TrainingCheckpoint {
            model: Some(DlrmCheckpoint::capture(model)),
            server: Some(ServerCheckpoint::of_tables(host_tables.to_vec(), lr, next_batch)),
            next_batch,
        }
    }

    /// Resumes an interrupted run from a checkpoint and trains the
    /// remaining batches of the schedule described by `config` (the
    /// *original* run's config: the checkpoint's cursor must fall inside
    /// `[first_batch, first_batch + num_batches]`).
    ///
    /// The restored trajectory is byte-identical to the uninterrupted
    /// one: the model carries its optimizer accumulators, hosted tables
    /// resume at their exact values, and the loader fast-forwards to the
    /// cursor. Queues and caches are rebuilt — they hold no state that
    /// affects training values (the embedding cache only ever *corrects
    /// toward* server truth, and a fresh segment starts from server
    /// truth). A checkpoint without a model (a parameter tier's) is
    /// [`CkptError::StateMismatch`].
    pub fn resume_from(
        ckpt: TrainingCheckpoint,
        dataset: &SyntheticDataset,
        config: &PipelineConfig,
    ) -> Result<PipelineReport, CkptError> {
        let end = config.first_batch + config.num_batches;
        if ckpt.next_batch < config.first_batch || ckpt.next_batch > end {
            return Err(CkptError::StateMismatch(format!(
                "checkpoint cursor {} outside the run schedule [{}, {end}]",
                ckpt.next_batch, config.first_batch
            )));
        }
        let model = ckpt
            .model
            .ok_or_else(|| {
                CkptError::StateMismatch("checkpoint holds no model (a parameter tier's)".into())
            })?
            .restore()?;
        let mut server = match ckpt.server {
            Some(s) => s.restore(),
            None => HostServer::new(Vec::new(), model.lr),
        };
        // The pipeline numbers pushes relative to each serving schedule,
        // so a resumed segment starts its gradient sequence at zero; the
        // checkpoint's absolute `applied` stamp is for consumers that use
        // absolute sequence numbers (the simulator).
        server.applied = 0;
        let remaining = PipelineConfig {
            first_batch: ckpt.next_batch,
            num_batches: end - ckpt.next_batch,
            ..*config
        };
        Self::try_train(model, server, dataset, &remaining)
            .map_err(|e| CkptError::StateMismatch(e.to_string()))
    }

    /// Trains the full schedule in segments of `every` batches, saving a
    /// durable checkpoint into `store` after each segment. Returns the
    /// aggregate report plus the saved checkpoint names (oldest first).
    ///
    /// Because pipelined training is bit-identical to sequential training
    /// and each segment restarts from exactly the state the previous one
    /// ended with, the final model is byte-identical to a single
    /// uninterrupted `try_train` call — checkpointing is pure durability.
    ///
    /// `every == 0` is [`CkptError::ZeroInterval`], before anything trains.
    pub fn train_with_checkpoints<S: Storage>(
        model: DlrmModel,
        server: HostServer,
        dataset: &SyntheticDataset,
        config: &PipelineConfig,
        store: &mut CkptStore<S>,
        every: u64,
    ) -> Result<(PipelineReport, Vec<String>), CkptError> {
        if every == 0 {
            return Err(CkptError::ZeroInterval);
        }
        let lr = server.lr;
        let mode = server.mode;
        let end = config.first_batch + config.num_batches;

        let mut saved = Vec::new();
        let mut cursor = config.first_batch;
        let mut next_model = model;
        let mut next_server = server;

        let mut losses = Vec::new();
        let mut wall = Duration::ZERO;
        let mut stale_hits = 0u64;
        let mut cache_peak = 0usize;
        let mut meter = CommMeter::default();
        let mut server_cpu = Duration::ZERO;
        let mut loader_cpu = Duration::ZERO;
        let mut worker_compute = Duration::ZERO;

        loop {
            let seg = every.min(end - cursor);
            let seg_cfg = PipelineConfig { first_batch: cursor, num_batches: seg, ..*config };
            let report = Self::try_train(next_model, next_server, dataset, &seg_cfg)
                .map_err(|e| CkptError::StateMismatch(e.to_string()))?;
            cursor += report.completed_batches;

            losses.extend_from_slice(&report.losses);
            wall += report.wall;
            stale_hits += report.stale_hits;
            cache_peak = cache_peak.max(report.cache_peak_bytes);
            meter.merge(&report.server_meter);
            server_cpu += report.server_cpu;
            loader_cpu += report.loader_cpu;
            worker_compute += report.worker_compute;

            let degraded = report.completed_batches < seg;
            saved.push(store.save(&Self::capture(
                &report.model,
                &report.host_tables,
                lr,
                cursor,
            ))?);
            if cursor >= end || degraded || report.completed_batches == 0 {
                let completed_batches = losses.len() as u64;
                let samples = completed_batches as f64 * config.batch_size as f64;
                let final_report = PipelineReport {
                    completed_batches,
                    losses,
                    wall,
                    samples_per_sec: samples / wall.as_secs_f64(),
                    stale_hits,
                    cache_peak_bytes: cache_peak,
                    server_meter: meter,
                    server_cpu,
                    loader_cpu,
                    worker_compute,
                    failure: report.failure,
                    failovers: report.failovers,
                    model: report.model,
                    host_tables: report.host_tables,
                };
                return Ok((final_report, saved));
            }
            next_model = report.model;
            let mut server = HostServer::new(report.host_tables, lr);
            server.mode = mode;
            next_server = server;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_data::DatasetSpec;
    use el_dlrm::DlrmConfig;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (DlrmModel, HostServer, SyntheticDataset) {
        setup_with(seed, el_dlrm::OptimizerKind::Sgd, usize::MAX)
    }

    fn setup_with(
        seed: u64,
        optimizer: el_dlrm::OptimizerKind,
        tt_threshold: usize,
    ) -> (DlrmModel, HostServer, SyntheticDataset) {
        // Table 0 has the largest cardinality so a finite `tt_threshold`
        // can make it TT while tables 1/2 stay dense (and get hosted).
        let mut spec = DatasetSpec::toy(3, 200, 1_000_000);
        spec.num_dense = 4;
        spec.table_cardinalities = vec![400, 200, 200];
        let dataset = SyntheticDataset::new(spec, 11);

        let cfg = DlrmConfig {
            num_dense: 4,
            table_cardinalities: vec![400, 200, 200],
            dim: 8,
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            tt_threshold,
            tt_rank: 8,
            lr: 0.05,
            optimizer,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut model = DlrmModel::new(&cfg, &mut rng);

        // host tables 1 and 2; table 0 stays on the worker
        let host = model.host_dense_tables(|t| t == 1 || t == 2);
        (model, HostServer::new(host, 0.05), dataset)
    }

    fn run(pipelined: bool, depth: usize, seed: u64) -> PipelineReport {
        run_topology(pipelined, depth, seed, (1, 1), vec![])
    }

    /// Trains the shared 12-batch schedule on `shards` x `replicas` with
    /// the given `(shard, watermark)` primary-kill drills.
    fn run_topology(
        pipelined: bool,
        depth: usize,
        seed: u64,
        (shards, replicas): (u32, u32),
        kills: Vec<(u32, u64)>,
    ) -> PipelineReport {
        let (model, server, dataset) = setup(seed);
        let config = PipelineConfig {
            batch_size: 64,
            first_batch: 0,
            num_batches: 12,
            prefetch_depth: depth,
            pipelined,
            ..PipelineConfig::default()
        };
        let shard_cfg =
            ShardConfig { num_shards: shards, rows_per_range: 16, placement_seed: 0xE1 };
        let repl =
            ReplicationConfig { replicas, kill_primary_at: kills, ..ReplicationConfig::default() };
        PipelineTrainer::try_train_replicated(model, server, &dataset, &config, &shard_cfg, &repl)
            .unwrap()
    }

    #[test]
    fn pooled_mode_is_a_typed_error_off_the_sequential_single_server() {
        // The reference-DLRM baseline has no staleness protocol and no
        // per-row partition: any pipelined, sharded or replicated request
        // is rejected before a thread spawns or a batch trains.
        let sequential = PipelineConfig { pipelined: false, ..PipelineConfig::default() };
        let pipelined = PipelineConfig { pipelined: true, ..sequential };
        for (config, shards, replicas) in
            [(pipelined, 1, 1), (sequential, 2, 1), (sequential, 1, 2)]
        {
            let (model, server, dataset) = setup(9);
            let server = server.with_mode(ServerMode::PooledEmbeddings);
            let shard_cfg = ShardConfig { num_shards: shards, ..ShardConfig::default() };
            let repl = ReplicationConfig { replicas, ..ReplicationConfig::default() };
            match PipelineTrainer::try_train_replicated(
                model, server, &dataset, &config, &shard_cfg, &repl,
            ) {
                Err(ServerError::PooledNeedsSequential) => {}
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("pooled mode at ({shards}, {replicas}) must be rejected"),
            }
        }
        // and the serving loop cannot serve the mode from queues at all
        let (_, server, _) = setup(9);
        let server = server.with_mode(ServerMode::PooledEmbeddings);
        let (one_shard, one_replica) = (ShardConfig::default(), ReplicationConfig::default());
        assert!(matches!(
            ServingLoop::new(server, &sequential, &one_shard, &one_replica),
            Err(ServerError::PooledNeedsSequential)
        ));
    }

    #[test]
    fn hosted_table_mismatch_is_a_typed_error_before_spawning() {
        let config = PipelineConfig::default();
        // the model marks table 2 Hosted, the server lacks it
        let (model, mut server, dataset) = setup(9);
        server.tables.retain(|(t, _)| *t != 2);
        match PipelineTrainer::try_train(model, server, &dataset, &config) {
            Err(ServerError::HostedTableMismatch { table: 2, on_server: false }) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a Hosted table without a server side must be rejected"),
        }
        // and the reverse: the server hosts table 0, which the model keeps
        let (model, mut server, dataset) = setup(9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        server.tables.push((0, EmbeddingBag::new(400, 8, 0.1, &mut rng)));
        match PipelineTrainer::try_train(model, server, &dataset, &config) {
            Err(ServerError::HostedTableMismatch { table: 0, on_server: true }) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a served table the model does not mark Hosted must be rejected"),
        }
    }

    #[test]
    fn desynchronised_prefetch_ends_the_run_with_a_typed_failure() {
        // A pre-fetch for batch 1 where batch 0 is due: the worker stops
        // with the cause in the report instead of panicking.
        let (model, mut server, dataset) = setup(9);
        let cache = WorkerCache::new(model.hosted_tables().len(), 0.05);
        let config = PipelineConfig { batch_size: 16, num_batches: 4, ..PipelineConfig::default() };
        let (ptx, prx) = bounded(2);
        let (gtx, grx) = bounded(2);
        ptx.send(server.gather(dataset.batch(1, 16), 1)).unwrap();
        let worker = run_worker(model, cache, &config, prx, gtx);
        assert!(worker.losses.is_empty(), "nothing may train on a misdelivered batch");
        assert_eq!(worker.failure, Some(ServerError::PrefetchOutOfOrder { got: 1, expected: 0 }));
        assert!(grx.recv().is_err(), "no push, and the gradient queue is hung up");
    }

    #[test]
    fn losses_are_finite_and_counted() {
        let r = run(true, 4, 1);
        assert_eq!(r.losses.len(), 12);
        assert_eq!(r.completed_batches, 12);
        assert!(r.losses.iter().all(|l| l.is_finite()));
        assert!(r.samples_per_sec > 0.0);
    }

    #[test]
    fn pipelined_equals_sequential_bitwise() {
        // The embedding cache must make pipelined training produce the
        // exact parameter trajectory of sequential training.
        let seq = run(false, 1, 2);
        let pipe = run(true, 4, 2);
        assert_same_training(&seq, &pipe);
    }

    #[test]
    fn server_table_order_does_not_move_a_byte() {
        // A server handed its tables in descending order trains the bytes
        // of the ascending one: the serving loop fixes one order.
        let (model, mut server, dataset) = setup(2);
        server.tables.reverse();
        let config =
            PipelineConfig { batch_size: 64, num_batches: 12, ..PipelineConfig::default() };
        let r = PipelineTrainer::try_train(model, server, &dataset, &config).unwrap();
        assert_same_training(&run(config.pipelined, config.prefetch_depth, 2), &r);
    }

    #[test]
    fn pipelined_run_hits_the_cache() {
        // With skewed access and queue depth > 1, some prefetched rows must
        // be stale and get corrected.
        let r = run(true, 4, 3);
        assert!(r.stale_hits > 0, "expected stale prefetches under pipelining");
        assert!(r.cache_peak_bytes > 0);
    }

    #[test]
    fn sequential_run_never_needs_the_cache() {
        let r = run(false, 1, 4);
        assert_eq!(r.stale_hits, 0, "sequential mode can never see stale rows");
    }

    fn assert_same_training(a: &PipelineReport, b: &PipelineReport) {
        assert_eq!(a.losses, b.losses, "loss trajectories diverged");
        assert_eq!(a.host_tables.len(), b.host_tables.len());
        for ((ta, wa), (tb, wb)) in a.host_tables.iter().zip(&b.host_tables) {
            assert_eq!(ta, tb);
            assert_eq!(wa.weight.as_slice(), wb.weight.as_slice(), "host table {ta} diverged");
        }
    }

    #[test]
    fn sharded_training_matches_single_server_bitwise() {
        // An N-way sharded tier trains the exact bytes of the single
        // server, pipelined or not.
        let single = run(true, 4, 6);
        let sharded = run_topology(true, 4, 6, (3, 1), vec![]);
        assert_eq!(sharded.completed_batches, 12);
        assert_same_training(&single, &sharded);
        let seq_single = run(false, 1, 6);
        let seq_sharded = run_topology(false, 1, 6, (3, 1), vec![]);
        assert_same_training(&seq_single, &seq_sharded);
        // and the sharded bus traffic sums to real bytes
        assert!(sharded.server_meter.h2d_bytes > 0);
        assert!(sharded.server_meter.d2h_bytes > 0);
    }

    #[test]
    fn replicated_training_matches_single_server_bitwise() {
        // Replication is pure redundancy: K lockstep copies per shard
        // train the exact bytes of the unreplicated single server.
        let single = run(true, 4, 8);
        let replicated = run_topology(true, 4, 8, (3, 2), vec![]);
        assert_eq!(replicated.completed_batches, 12);
        assert_eq!(replicated.failovers, 0);
        assert!(replicated.failure.is_none());
        assert_same_training(&single, &replicated);
    }

    #[test]
    fn primary_kills_mid_run_leave_trained_bytes_unchanged() {
        // Killing primaries mid-training (including two adjacent
        // watermarks on shard 0 — a kill during the window the first
        // promotion just opened) promotes byte-identical backups and the
        // merged result still matches the never-failed single server,
        // with no cold restart.
        let single = run(true, 4, 9);
        let kills = vec![(0, 3), (0, 4), (1, 6), (2, 9)];
        let replicated = run_topology(true, 4, 9, (3, 3), kills);
        assert_eq!(replicated.completed_batches, 12);
        assert_eq!(replicated.failovers, 4);
        assert!(replicated.failure.is_none());
        assert_same_training(&single, &replicated);
    }

    #[test]
    fn primary_kill_on_the_only_shard_leaves_trained_bytes_unchanged() {
        // N = 1, K = 2: the one shard owns every row (its tables arrived
        // by move) and loses its primary mid-run.
        let single = run(true, 4, 12);
        let replicated = run_topology(true, 4, 12, (1, 2), vec![(0, 5)]);
        assert_eq!(replicated.completed_batches, 12);
        assert_eq!(replicated.failovers, 1);
        assert!(replicated.failure.is_none());
        assert_same_training(&single, &replicated);
    }

    #[test]
    fn drills_never_kill_the_last_copy() {
        // More kills than spare replicas: the drill schedule is clamped
        // so the final copy survives and the run still completes — with
        // no spare at all (K = 1) every drill is skipped.
        let single = run(true, 4, 10);
        let kills = vec![(0, 2), (0, 5), (0, 8)];
        for (replicas, failovers) in [(2, 1), (1, 0)] {
            let replicated = run_topology(true, 4, 10, (2, replicas), kills.clone());
            assert_eq!(replicated.completed_batches, 12);
            assert_eq!(replicated.failovers, failovers, "one promotion per spare, no more");
            assert_same_training(&single, &replicated);
        }
    }

    #[test]
    fn server_meter_accounts_transfers() {
        let r = run(true, 2, 5);
        assert!(r.server_meter.h2d_bytes > 0);
        assert!(r.server_meter.d2h_bytes > 0);
    }

    /// Trains `total` batches uninterrupted, and the same schedule
    /// interrupted at `cut` (checkpoint through the framed byte format,
    /// then `resume_from`), asserting the two end in byte-identical
    /// state: loss trajectory, worker model (including optimizer
    /// accumulators, via the v2 checkpoint bytes) and hosted tables.
    fn assert_resume_identical(optimizer: el_dlrm::OptimizerKind, tt_threshold: usize, cut: u64) {
        let total = 12u64;
        let config = PipelineConfig {
            batch_size: 64,
            first_batch: 0,
            num_batches: total,
            prefetch_depth: 4,
            pipelined: true,
            ..PipelineConfig::default()
        };

        let (model, server, dataset) = setup_with(21, optimizer, tt_threshold);
        let oracle = PipelineTrainer::try_train(model, server, &dataset, &config).unwrap();

        let (model, server, dataset) = setup_with(21, optimizer, tt_threshold);
        let head_cfg = PipelineConfig { num_batches: cut, ..config };
        let head = PipelineTrainer::try_train(model, server, &dataset, &head_cfg).unwrap();
        assert_eq!(head.completed_batches, cut);
        let ckpt = PipelineTrainer::capture(&head.model, &head.host_tables, 0.05, cut);
        // Round-trip through the durable byte format: what resumes is
        // exactly what a post-crash recovery would decode from storage.
        let ckpt =
            crate::ckpt::TrainingCheckpoint::from_framed_bytes(&ckpt.to_framed_bytes()).unwrap();
        let tail = PipelineTrainer::resume_from(ckpt, &dataset, &config).unwrap();
        assert_eq!(tail.completed_batches, total - cut);

        let mut losses = head.losses.clone();
        losses.extend_from_slice(&tail.losses);
        assert_eq!(oracle.losses, losses, "loss trajectory diverged after resume");
        assert_eq!(
            DlrmCheckpoint::capture(&oracle.model).to_bytes(),
            DlrmCheckpoint::capture(&tail.model).to_bytes(),
            "worker model state diverged after resume"
        );
        for ((ta, a), (tb, b)) in oracle.host_tables.iter().zip(&tail.host_tables) {
            assert_eq!(ta, tb);
            assert_eq!(a.weight.as_slice(), b.weight.as_slice(), "host table {ta} diverged");
        }
    }

    #[test]
    fn resume_is_byte_identical_dense_sgd() {
        assert_resume_identical(el_dlrm::OptimizerKind::Sgd, usize::MAX, 5);
    }

    #[test]
    fn resume_is_byte_identical_tt_adagrad() {
        // TT table 0 + Adagrad exercises the v2 accumulator persistence:
        // without it the tail run would re-start accumulators and diverge.
        assert_resume_identical(el_dlrm::OptimizerKind::Adagrad { eps: 1e-8 }, 300, 7);
    }

    #[test]
    fn resume_rejects_cursor_outside_schedule() {
        let (model, _, _) = setup(3);
        let ckpt = PipelineTrainer::capture(&model, &[], 0.05, 99);
        let (_, _, dataset) = setup(3);
        let config = PipelineConfig { num_batches: 12, ..PipelineConfig::default() };
        match PipelineTrainer::resume_from(ckpt, &dataset, &config) {
            Err(CkptError::StateMismatch(_)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("cursor beyond the schedule must be rejected"),
        }
    }

    #[test]
    fn resume_rejects_a_model_less_checkpoint() {
        let (model, server, dataset) = setup(3);
        let mut ckpt = PipelineTrainer::capture(&model, &server.tables, 0.05, 0);
        ckpt.model = None;
        let config = PipelineConfig { num_batches: 4, ..PipelineConfig::default() };
        match PipelineTrainer::resume_from(ckpt, &dataset, &config) {
            Err(CkptError::StateMismatch(why)) => assert!(why.contains("no model"), "{why}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a checkpoint without a model must be rejected"),
        }
    }

    #[test]
    fn segmented_checkpointing_matches_uninterrupted_run() {
        use crate::ckpt::{CkptStore, MemStorage};
        use std::sync::Arc;

        let config = PipelineConfig {
            batch_size: 64,
            first_batch: 0,
            num_batches: 12,
            prefetch_depth: 4,
            pipelined: true,
            ..PipelineConfig::default()
        };
        let (model, server, dataset) = setup(31);
        let oracle = PipelineTrainer::try_train(model, server, &dataset, &config).unwrap();

        let (model, server, dataset) = setup(31);
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        let (report, saved) = PipelineTrainer::train_with_checkpoints(
            model, server, &dataset, &config, &mut store, 5,
        )
        .unwrap();

        assert_eq!(saved.len(), 3, "segments of 5+5+2 batches");
        assert_eq!(report.completed_batches, 12);
        assert_eq!(oracle.losses, report.losses, "checkpointing must not change training");
        assert_eq!(
            DlrmCheckpoint::capture(&oracle.model).to_bytes(),
            DlrmCheckpoint::capture(&report.model).to_bytes(),
        );
        // The store scans back the newest valid checkpoint: the final one.
        let (_, latest) = store.latest_valid().unwrap();
        assert_eq!(latest.next_batch, 12);
        // Retention kept only the newest 2 of the 3 saved.
        assert_eq!(store.names_newest_first().unwrap().len(), 2);
    }

    #[test]
    fn zero_checkpoint_interval_is_a_typed_error() {
        use crate::ckpt::{CkptStore, MemStorage};
        use std::sync::Arc;

        let (model, server, dataset) = setup(32);
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        let config = PipelineConfig { num_batches: 4, ..PipelineConfig::default() };
        match PipelineTrainer::train_with_checkpoints(
            model, server, &dataset, &config, &mut store, 0,
        ) {
            Err(CkptError::ZeroInterval) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a zero checkpoint interval must be rejected"),
        }
        assert!(store.names_newest_first().unwrap().is_empty(), "nothing may be saved");
    }
}
