//! The discrete-event pipeline simulation.
//!
//! One loop simulates every topology of the parameter tier: `N` shards
//! (`SimConfig::shard`), each a lockstep group of `K` replicas
//! (`SimConfig::replicas`). It runs the code the threaded trainer runs,
//! not a copy of it: every gather is [`ShardRouter::fan_out`], one
//! [`HostServer::serve_rows`] per primary and
//! [`ShardRouter::stitch`], every push is [`ShardRouter::scatter_push`]
//! into [`ReplicaGroup::apply_checked`], and the one virtual worker is a
//! [`WorkerCache`] whose two stages surround a pseudo-loss instead of the
//! model's step. The virtual links — prefetch delivery, one gradient link
//! and one acknowledgement link per shard, heartbeats — have seeded
//! latency jitter. The single server of the paper's Fig 9 is the
//! `N = K = 1` case, not a separate code path.
//!
//! * **Unreliable gradient links.** A [`FaultPlan`] may drop, duplicate
//!   or delay individual deliveries toward one shard, saturate one
//!   shard's intake, or partition a shard away entirely, so the worker
//!   runs an at-least-once protocol (retransmit with exponential backoff
//!   until acknowledged) and every group an idempotent intake
//!   ([`HostServer::apply_checked`]: duplicates ignored, out-of-order
//!   pushes buffered until the gap fills). Each shard is its own stamp
//!   domain; a gather's staleness stamp is the per-shard minimum.
//! * **Lockstep replication.** Every shard is the trainer's own
//!   [`ReplicaGroup`]: its [`ReplicaGroup::apply_checked`] applies each
//!   push to every alive member at the same tick, so primary and backups
//!   are byte-identical at every watermark. With `K ≥ 2` each primary
//!   beats on the jittered [`HeartbeatConfig`] schedule and the worker
//!   runs one [`FailureDetector`] per shard (both in [`crate::clock`]):
//!   on suspicion it takes the group's [`ReplicaGroup::promote`] step,
//!   which fences the old primary if it still lives, and resends what is
//!   unacknowledged. A dead backup scheduled to rejoin goes through
//!   [`ReplicaGroup::catch_up`] (snapshot plus gradient-log replay). A
//!   group of one has nobody to promote, so it arms no heartbeats and no
//!   detector.
//! * **Durability.** A session may resume from recovered tables and save
//!   model-less `TrainingCheckpoint`s of the merged tables through a
//!   [`CkptSink`];
//!   [`crate::fault::Fault::Crash`] and a failed save kill the whole
//!   process ([`crate::recovery`] drives the restart).
//!
//! The worker's gradient is a deterministic *pseudo-loss* of the pooled
//! embeddings (`d = 0.05 · pooled + bias(seq, table)`). Because it
//! depends on the embedding values the worker trains on, any staleness
//! the embedding cache fails to correct changes the pushed gradients and
//! therefore the final tables — which is exactly what the
//! schedule-independence check in [`crate::invariants`] detects.
//!
//! No real threads, no wall-clock reads: every run is a pure function of
//! `(SimConfig, FaultPlan, schedule_seed)`, so any failing seed replays
//! bit-for-bit.

use crate::clock::{EventQueue, FailureDetector, HeartbeatConfig};
use crate::fault::FaultPlan;
use crate::trace::{Trace, TraceEvent};
use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::embedding_bag::EmbeddingBag;
use el_pipeline::ckpt::{CkptError, ServerCheckpoint, TrainingCheckpoint};
use el_pipeline::replica::splitmix64;
use el_pipeline::server::{ApplyOutcome, GradientPush, HostServer, PrefetchedBatch};
use el_pipeline::{
    merge_tables, split_tables, ReplicaGroup, ShardConfig, ShardLayout, ShardRouter, WorkerCache,
};
use el_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Base latency of prefetch delivery (host → worker), in ticks.
const PREFETCH_LATENCY: u64 = 3;
/// Base latency of one training step's compute, in ticks.
const COMPUTE_LATENCY: u64 = 4;
/// Base latency of gradient-push delivery (worker → host), in ticks.
const PUSH_LATENCY: u64 = 3;
/// Base latency of acknowledgement delivery (host → worker), in ticks.
const ACK_LATENCY: u64 = 2;
/// Initial retransmission timeout; doubles per attempt.
const RETRY_TIMEOUT: u64 = 24;
/// Retransmissions before the worker gives a push up and halts.
const MAX_RETRIES: u32 = 8;
/// Exclusive upper bound of the per-message latency jitter.
const JITTER: u64 = 4;
/// Base latency of heartbeat delivery (primary → worker), in ticks.
const HEARTBEAT_LATENCY: u64 = 2;
/// Ticks between the worker's failure-detector checks of one shard.
const SUSPECT_CHECK_EVERY: u64 = 6;
/// Ticks a rejoining member waits for a promoted leader before retrying.
const REJOIN_RETRY: u64 = 8;
/// Promotions per shard before the worker declares the shard unreachable
/// and halts (a livelock fuse, far above what any bounded fault window
/// can cause: only a group with no live member blows it).
const PROMOTION_CAP: u64 = 16;
/// Gradient-log entries a group retains for catch-up. Small and not a
/// power of two, so the sweeps refresh the snapshot every few batches and
/// the log's ring wraps its allocation.
const LOG_CAPACITY: usize = 5;

/// Static configuration of one simulated run (everything except the
/// faults and the schedule seed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed of the model/data universe: synthetic dataset, initial table
    /// weights, pseudo-loss constants.
    pub model_seed: u64,
    /// Batches to train.
    pub num_batches: u64,
    /// Samples per batch.
    pub batch_size: usize,
    /// Pre-fetch queue capacity (the paper's queue length).
    pub prefetch_depth: usize,
    /// Gradient-intake buffer capacity per shard; deliveries beyond it
    /// bounce.
    pub grad_capacity: usize,
    /// Maximum tolerated staleness: the tier refuses to gather batch `k`
    /// until `k - min(applied) <= staleness_bound`, so every
    /// `PrefetchedBatch` stamp satisfies `batch_seq - applied_through <=
    /// staleness_bound`.
    pub staleness_bound: u64,
    /// Hosted embedding tables.
    pub num_tables: usize,
    /// Rows per hosted table.
    pub rows_per_table: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// SGD learning rate (worker prediction and server application).
    pub lr: f32,
    /// Safety cap on processed events; exceeding it is an error outcome.
    pub max_events: u64,
    /// The shard layout knobs (count `N`, row-range size, placement
    /// seed). One shard is the single-server tier.
    pub shard: ShardConfig,
    /// Members per replica group `K` (primary + `K - 1` backups).
    pub replicas: u32,
    /// Base ticks between primary heartbeats (`K ≥ 2` only).
    pub heartbeat_every: u64,
    /// Ticks of heartbeat silence before the worker suspects a primary.
    pub suspicion_after: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            model_seed: 11,
            num_batches: 24,
            batch_size: 16,
            prefetch_depth: 4,
            grad_capacity: 8,
            staleness_bound: 6,
            num_tables: 2,
            rows_per_table: 100,
            dim: 8,
            lr: 0.05,
            max_events: 100_000,
            shard: ShardConfig { num_shards: 1, rows_per_range: 16, placement_seed: 0xE1 },
            replicas: 1,
            heartbeat_every: 8,
            suspicion_after: 30,
        }
    }
}

impl SimConfig {
    /// This config at `shards × replicas` (builder style; both clamp to
    /// at least one).
    pub fn with_topology(mut self, shards: u32, replicas: u32) -> Self {
        self.shard.num_shards = shards.max(1);
        self.replicas = replicas.max(1);
        self
    }

    /// The placement every participant of this config derives.
    pub fn layout(&self) -> ShardLayout {
        let sizes: Vec<(usize, usize)> =
            (0..self.num_tables).map(|t| (t, self.rows_per_table)).collect();
        ShardLayout::place(&self.shard, &sizes)
    }

    /// The heartbeat silence the worker tolerates, clamped to at least
    /// [`HeartbeatConfig::min_suspicion`] so one maximally jittered gap can
    /// never trip a detector. Detector timeouts and suspect-check
    /// scheduling both read it, so they agree.
    fn suspicion(&self) -> u64 {
        self.suspicion_after.max(HeartbeatConfig::min_suspicion(self.heartbeat_every.max(1)))
    }

    /// The jittered heartbeat schedule of one shard's primary.
    fn heartbeat(&self, shard: u32, schedule_seed: u64) -> HeartbeatConfig {
        let every = self.heartbeat_every.max(1);
        HeartbeatConfig {
            every,
            suspicion_after: self.suspicion(),
            jitter: HeartbeatConfig::max_jitter(every),
            seed: splitmix64(schedule_seed ^ 0x48B8_48B8_48B8_48B8 ^ u64::from(shard)),
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every scheduled batch was gathered, trained, pushed and applied by
    /// every shard's group.
    Completed,
    /// The event queue drained with work outstanding — an actor (the
    /// worker, or every member of some group) died or gave up, and the
    /// rest of the pipeline wound down cleanly.
    Stalled,
    /// The event budget was exhausted (a livelock; always a bug).
    OutOfBudget,
    /// The whole process died — a [`crate::fault::Fault::Crash`] fired or
    /// a checkpoint save failed mid-protocol. Only what the checkpoint
    /// store made durable survives; [`crate::recovery`] drives the
    /// restart.
    Crashed,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Completed => "completed",
            Outcome::Stalled => "stalled (fatal fault)",
            Outcome::OutOfBudget => "out of event budget",
            Outcome::Crashed => "crashed (process death)",
        })
    }
}

/// Where one group member stood when the run ended. A dead member keeps
/// the state it died with, so its bytes are still checked against the
/// oracle prefix at its own watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberState {
    /// Whether the member was alive at termination.
    pub alive: bool,
    /// Gradient batches the member applied.
    pub applied: u64,
    /// FNV-1a digest of the member's sub-tables.
    pub digest: u64,
}

/// Result of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// Terminal state ([`Outcome::Completed`] iff **every** group's
    /// watermark reached the schedule).
    pub outcome: Outcome,
    /// Per-shard group watermarks at termination
    /// ([`ReplicaGroup::applied`]).
    pub applied: Vec<u64>,
    /// Per-member final state, `members[shard][rank]`.
    pub members: Vec<Vec<MemberState>>,
    /// Full protocol trace, in virtual-time order.
    pub trace: Trace,
    /// The global tables, merged from one copy of each shard's final
    /// sub-tables ([`ReplicaGroup::survivor`]).
    pub merged_tables: Vec<(usize, EmbeddingBag)>,
    /// FNV-1a digest of the merged tables (byte-identity proxy).
    pub merged_digest: u64,
    /// Promotions the worker performed per shard.
    pub promotions: Vec<u64>,
    /// Stale pre-fetched rows the worker's cache corrected.
    pub stale_hits: u64,
    /// Virtual time at termination.
    pub final_tick: u64,
    /// Events processed.
    pub events_processed: u64,
}

impl SimReport {
    /// The watermark every shard has reached — the tier's `applied`.
    pub fn min_applied(&self) -> u64 {
        self.applied.iter().copied().min().unwrap_or(0)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: shards applied {:?} in {} virtual ticks ({} events), {:?} promotions, \
             {} stale rows corrected, merged digest {:#018x}",
            self.outcome,
            self.applied,
            self.final_tick,
            self.events_processed,
            self.promotions,
            self.stale_hits,
            self.merged_digest
        )
    }
}

/// The synthetic dataset a config describes (shared with the oracle).
pub(crate) fn build_dataset(cfg: &SimConfig) -> SyntheticDataset {
    let spec = DatasetSpec::toy(cfg.num_tables, cfg.rows_per_table, 1_000_000);
    SyntheticDataset::new(spec, cfg.model_seed)
}

/// The hosted tables a config describes (shared with the oracle).
pub(crate) fn build_tables(cfg: &SimConfig) -> Vec<(usize, EmbeddingBag)> {
    let mut rng = StdRng::seed_from_u64(cfg.model_seed ^ 0x7AB1_E5EE_D000_0001);
    (0..cfg.num_tables)
        .map(|t| (t, EmbeddingBag::new(cfg.rows_per_table, cfg.dim, 0.2, &mut rng)))
        .collect()
}

/// The deterministic pseudo-loss gradient for one pooled activation: an
/// affine function of the values, so wrong (stale) inputs produce wrong
/// pushes and surface in the schedule-independence check.
fn pseudo_loss_grad(pooled: &Matrix, seq: u64, table: usize, model_seed: u64) -> Matrix {
    let h = splitmix64(model_seed ^ seq.wrapping_mul(0x9E37_79B9).wrapping_add(table as u64));
    let bias = ((h % 1024) as f32 - 512.0) / 20_480.0;
    let data = pooled.as_slice().iter().map(|v| 0.05 * v + bias).collect();
    Matrix::from_vec(pooled.rows(), pooled.cols(), data)
}

/// One worker training step over a pre-fetched batch: the real
/// [`WorkerCache`] stage 1 (cache sync, pooling) and stage 3
/// (aggregation, predicted-update cache refresh, the push) of
/// `el_pipeline::trainer`, with the pseudo-loss gradient in place of the
/// model's. Shared by the simulation and the sequential oracle (which
/// runs it with staleness zero).
pub(crate) fn worker_push(
    pf: &mut PrefetchedBatch,
    worker: &mut WorkerCache,
    model_seed: u64,
) -> GradientPush {
    let grads: Vec<(usize, Matrix)> = worker
        .pool(pf)
        .into_iter()
        .map(|(t, pooled)| (t, pseudo_loss_grad(&pooled, pf.batch_seq, t, model_seed)))
        .collect();
    worker.gradient_push(pf, &grads)
}

/// FNV-1a digest of table ids and weight bit patterns — the
/// byte-identity proxy the determinism checks compare.
pub fn digest_tables(tables: &[(usize, EmbeddingBag)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (t, bag) in tables {
        mix(*t as u64);
        for &v in bag.weight.as_slice() {
            mix(u64::from(v.to_bits()));
        }
    }
    h
}

/// Durable state a restarted session resumes from: the **global** hosted
/// tables and the applied-batch watermark of the newest valid checkpoint
/// (or the initial tables and zero for a cold restart). The session
/// splits the tables under its own layout and, because the simulator uses
/// *absolute* batch sequence numbers, sets the gather, train and apply
/// cursors all to `applied`.
#[derive(Clone, Debug)]
pub struct ResumeState {
    /// Global hosted tables as of the checkpoint.
    pub tables: Vec<(usize, EmbeddingBag)>,
    /// Gradient batches applied when the checkpoint was taken.
    pub applied: u64,
}

/// Where a running session saves checkpoints. The simulator calls
/// [`CkptSink::save`] synchronously from the apply path whenever every
/// shard stands at the same cadence watermark, handing it a parameter
/// tier's checkpoint: no model, the merged global tables as the server,
/// and `next_batch` equal to the watermark. An error means the process
/// died mid-save (the store's atomic protocol decides what survived) and
/// the run ends [`Outcome::Crashed`].
pub trait CkptSink {
    /// Persists `ckpt` durably.
    fn save(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CkptError>;
}

/// In-flight scattered push awaiting one shard's acknowledgement.
struct UnackedPush {
    push: GradientPush,
    /// Retransmission attempts fired so far.
    attempts: u32,
    /// Transmissions issued (1-based delivery counter for fault matching).
    deliveries: u32,
}

/// Events on the virtual timeline.
enum Ev {
    /// A reassembled pre-fetched batch reaches the worker.
    PrefetchArrive(Box<PrefetchedBatch>),
    /// A worker stall window ends.
    StallOver,
    /// The worker finishes computing a batch.
    ComputeDone(u64),
    /// A scattered push delivery reaches one shard's primary.
    PushArrive { shard: u32, push: Box<GradientPush> },
    /// One shard's acknowledgement reaches the worker.
    AckArrive { shard: u32, seq: u64 },
    /// The worker's retransmission timer for one shard's push fires.
    RetryFire { shard: u32, seq: u64 },
    /// One shard's primary emits its `n`-th heartbeat.
    HeartbeatFire { shard: u32, n: u64 },
    /// A heartbeat from `rank` reaches the worker.
    HeartbeatArrive { shard: u32, rank: u32 },
    /// The worker's periodic failure-detector check for one shard.
    SuspectCheck { shard: u32 },
    /// A dead member's scheduled catch-up rejoin fires.
    RejoinFire { shard: u32, rank: u32 },
}

/// The running simulation state.
struct Simulation<'a> {
    cfg: SimConfig,
    plan: FaultPlan,
    q: EventQueue<Ev>,
    rng: StdRng,
    dataset: SyntheticDataset,
    trace: Trace,
    // the host tier: one replica group per shard
    router: ShardRouter,
    groups: Vec<ReplicaGroup>,
    pending: Vec<BTreeMap<u64, GradientPush>>,
    primary_kills: Vec<Vec<u64>>, // remaining, sorted ascending
    backup_kills: Vec<Vec<(u32, u64, u64)>>, // remaining (rank, watermark, rejoin)
    next_gather: u64,
    occupancy: usize,
    // worker-side failure detection
    detectors: Vec<FailureDetector>,
    heartbeats: Vec<HeartbeatConfig>,
    // worker
    worker_alive: bool,
    stalled: bool,
    stalls_done: BTreeSet<u64>,
    inbox: BTreeMap<u64, PrefetchedBatch>,
    next_train: u64,
    computing: Option<GradientPush>,
    worker: WorkerCache,
    unacked: BTreeMap<(u32, u64), UnackedPush>,
    // durability
    ckpt: Option<(&'a mut dyn CkptSink, u64)>,
    crashed: bool,
}

/// Runs one simulation to termination.
pub fn run(cfg: &SimConfig, plan: &FaultPlan, schedule_seed: u64) -> SimReport {
    run_session(cfg, plan, schedule_seed, None, None)
}

/// Runs one *session*: [`run`] plus durability. `resume` continues from
/// recovered global tables instead of the initial ones; `ckpt` saves a
/// checkpoint of the merged tables through the sink every `every` applied
/// batches (a failed save kills the process). Either may be `None`; `run`
/// is the `(None, None)` special case.
pub fn run_session(
    cfg: &SimConfig,
    plan: &FaultPlan,
    schedule_seed: u64,
    resume: Option<ResumeState>,
    ckpt: Option<(&mut dyn CkptSink, u64)>,
) -> SimReport {
    let layout = cfg.layout();
    let mut trace = Trace::default();
    let mut start = 0u64;
    let global = match resume {
        Some(rs) => {
            start = rs.applied;
            trace.push(TraceEvent::Resumed { applied: rs.applied });
            rs.tables
        }
        None => build_tables(cfg),
    };
    let replicas = cfg.replicas.max(1);
    let subs =
        split_tables(&global, &layout).expect("the layout places exactly the config's tables");
    let num_shards = subs.len() as u32;
    let groups: Vec<ReplicaGroup> = (0..num_shards)
        .zip(subs)
        .map(|(s, sub)| {
            let mut server = HostServer::new(sub, cfg.lr);
            server.applied = start;
            ReplicaGroup::new(server, replicas, s, num_shards, LOG_CAPACITY)
        })
        .collect();
    let n = groups.len();
    let suspicion = cfg.suspicion();
    let mut sim = Simulation {
        cfg: *cfg,
        plan: plan.clone(),
        q: EventQueue::new(),
        rng: StdRng::seed_from_u64(cfg.model_seed ^ splitmix64(schedule_seed)),
        dataset: build_dataset(cfg),
        trace,
        router: ShardRouter::new(layout),
        pending: (0..n).map(|_| BTreeMap::new()).collect(),
        primary_kills: (0..n).map(|s| plan.primary_deaths(s as u32)).collect(),
        backup_kills: (0..n).map(|s| plan.backup_deaths(s as u32)).collect(),
        groups,
        next_gather: start,
        occupancy: 0,
        detectors: (0..n).map(|_| FailureDetector::new(suspicion, 0)).collect(),
        heartbeats: (0..n).map(|s| cfg.heartbeat(s as u32, schedule_seed)).collect(),
        worker_alive: true,
        stalled: false,
        stalls_done: BTreeSet::new(),
        inbox: BTreeMap::new(),
        next_train: start,
        computing: None,
        worker: WorkerCache::new(cfg.num_tables, cfg.lr),
        unacked: BTreeMap::new(),
        ckpt,
        crashed: false,
    };
    // Failure detection needs a peer to fail over to: a group of one arms
    // no heartbeats and no detector — its death is simply final.
    if replicas > 1 {
        for s in 0..n {
            let first_beat = sim.heartbeats[s].delay(0);
            sim.q.schedule(first_beat, Ev::HeartbeatFire { shard: s as u32, n: 0 });
            sim.q.schedule(suspicion, Ev::SuspectCheck { shard: s as u32 });
        }
    }
    sim.drive()
}

impl Simulation<'_> {
    fn jitter(&mut self) -> u64 {
        self.rng.gen_range(0..JITTER)
    }

    /// Whether the shard's primary role sits on an alive member.
    fn primary_alive(&self, s: usize) -> bool {
        self.groups[s].primary().is_ok()
    }

    fn min_applied(&self) -> u64 {
        self.groups.iter().map(ReplicaGroup::applied).min().unwrap_or(0)
    }

    /// True once the worker no longer needs shard `s`'s recurring
    /// timers: the group finished the schedule (or the worker is gone).
    fn shard_done(&self, s: usize) -> bool {
        !self.worker_alive || self.groups[s].applied() >= self.cfg.num_batches
    }

    /// The shards' sub-tables merged back into the global tables.
    fn merged_tables(&self) -> Vec<(usize, EmbeddingBag)> {
        let shards: Vec<_> = self.groups.iter().map(|g| g.survivor().tables.clone()).collect();
        merge_tables(&shards, self.router.layout())
            .expect("sub-tables always merge under their own layout")
    }

    fn drive(mut self) -> SimReport {
        let mut events = 0u64;
        let mut out_of_budget = false;
        self.step();
        while let Some(ev) = self.q.pop() {
            events += 1;
            if events > self.cfg.max_events {
                out_of_budget = true;
                break;
            }
            self.handle(ev);
            self.step();
        }
        let applied: Vec<u64> = self.groups.iter().map(ReplicaGroup::applied).collect();
        let outcome = if out_of_budget {
            Outcome::OutOfBudget
        } else if self.crashed {
            Outcome::Crashed
        } else if applied.iter().all(|&a| a == self.cfg.num_batches) {
            Outcome::Completed
        } else {
            Outcome::Stalled
        };
        let members = self
            .groups
            .iter()
            .map(|g| {
                (0..g.members())
                    .filter_map(|r| g.member(r))
                    .map(|(m, alive)| MemberState {
                        alive,
                        applied: m.applied,
                        digest: digest_tables(&m.tables),
                    })
                    .collect()
            })
            .collect();
        let merged_tables = self.merged_tables();
        SimReport {
            outcome,
            applied,
            members,
            merged_digest: digest_tables(&merged_tables),
            merged_tables,
            promotions: self.groups.iter().map(ReplicaGroup::failovers).collect(),
            stale_hits: self.worker.stale_hits(),
            final_tick: self.q.now(),
            events_processed: events,
            trace: self.trace,
        }
    }

    /// Runs every immediately-enabled action: scheduled deaths fire,
    /// each group drains its intake in lockstep, the router gathers, the
    /// worker starts compute. Called after each event so no wake-up can
    /// be missed — enabling conditions only change when some event fires.
    fn step(&mut self) {
        for s in 0..self.groups.len() {
            self.drain_group(s);
        }
        self.host_gather();
        self.worker_start();
    }

    /// Kills every actor at once: the process is gone. Only checkpointed
    /// (durable) state survives into a [`crate::recovery`] restart.
    fn crash_now(&mut self) {
        self.crashed = true;
        self.worker_alive = false;
        self.trace.push(TraceEvent::CrashInjected { applied: self.min_applied() });
        for group in &mut self.groups {
            for rank in 0..group.members() {
                // already-dead members stay as they are
                let _ = group.kill(rank);
            }
        }
        self.pending.iter_mut().for_each(BTreeMap::clear);
        self.inbox.clear();
        self.computing = None;
        self.unacked.clear();
    }

    /// Kills one member through [`ReplicaGroup::kill`] and records which
    /// role it died in. Returns whether it died: a rank the group lacks or
    /// a member already dead is left alone.
    fn kill(&mut self, s: usize, rank: u32) -> bool {
        let group = &mut self.groups[s];
        if group.kill(rank).is_err() {
            return false;
        }
        // the corpse keeps the state it died with
        let applied = group.member(rank).map_or(0, |(m, _)| m.applied);
        let shard = s as u32;
        self.trace.push(if rank == group.primary_rank() {
            TraceEvent::PrimaryDied { shard, rank, applied }
        } else {
            TraceEvent::BackupDied { shard, rank, applied }
        });
        true
    }

    /// Fires death schedules whose watermark the group has reached. A
    /// shard death takes every member at once. A primary kill takes
    /// whoever holds the primary role *now* — two kills at adjacent
    /// watermarks on one shard therefore kill the freshly promoted
    /// member, the kill-during-promotion case. A kill whose target is
    /// already dead waits for the next promotion to land on a live
    /// target.
    fn fire_deaths(&mut self, s: usize) {
        let watermark = self.groups[s].applied();
        if self.plan.shard_death_after(s as u32).is_some_and(|w| watermark >= w) {
            for rank in 0..self.groups[s].members() {
                self.kill(s, rank);
            }
            self.pending[s].clear(); // the intake buffer dies with it
        }
        while let Some(&w) = self.primary_kills[s].first() {
            if watermark < w || !self.primary_alive(s) {
                break;
            }
            self.primary_kills[s].remove(0);
            self.kill(s, self.groups[s].primary_rank());
            self.pending[s].clear();
        }
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.backup_kills[s])
            .into_iter()
            .partition(|&(_, w, _)| watermark >= w);
        self.backup_kills[s] = later;
        for (rank, _, rejoin) in due {
            // the drill is dropped when its target is the primary now,
            // is already dead, or is a rank the group does not have
            if rank != self.groups[s].primary_rank() && self.kill(s, rank) && rejoin > 0 {
                self.q.schedule(rejoin, Ev::RejoinFire { shard: s as u32, rank });
            }
        }
    }

    /// Applies one group's buffered pushes in order through
    /// [`ReplicaGroup::apply_checked`]: every alive member applies the
    /// same push at the same tick (lockstep), and each member lockstep
    /// promised the push to is traced as having applied it, so a member
    /// that silently fell behind shows up against its own watermark.
    /// Stops at a gap, or while the primary is dead (intake needs a live
    /// primary). Other shards are untouched: each shard's stamp domain
    /// advances independently.
    fn drain_group(&mut self, s: usize) {
        loop {
            if !self.crashed && self.plan.crash_after().is_some_and(|c| self.min_applied() >= c) {
                self.crash_now();
                return;
            }
            self.fire_deaths(s);
            if !self.primary_alive(s) {
                return;
            }
            let group = &mut self.groups[s];
            let next = group.applied();
            let Some(push) = self.pending[s].remove(&next) else { return };
            let alive: Vec<u32> = (0..group.members())
                .filter(|&r| group.member(r).is_some_and(|(_, alive)| alive))
                .collect();
            match group.apply_checked(&push) {
                Ok(ApplyOutcome::Applied) => {}
                other => unreachable!("the in-order push {next} must land, got {other:?}"),
            }
            for rank in alive {
                self.trace.push(TraceEvent::Applied { shard: s as u32, rank, seq: next });
            }
            if !self.plan.partitioned_at(s as u32, self.q.now()) {
                self.schedule_ack(s as u32, next);
            }
            self.maybe_checkpoint();
        }
    }

    fn schedule_ack(&mut self, shard: u32, seq: u64) {
        let d = ACK_LATENCY + self.jitter();
        self.q.schedule(d, Ev::AckArrive { shard, seq });
    }

    /// Saves a checkpoint of the merged tables when every shard stands at
    /// the same cadence watermark (checkpoints are whole-process: a
    /// skewed tier has no single `applied` to resume from). A sink error
    /// is a process death mid-save: whatever the store's atomic protocol
    /// made durable before the failing step is all a restart will find.
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.ckpt.as_ref().map(|(_, every)| *every) else { return };
        let applied = self.min_applied();
        if !applied.is_multiple_of(every) || self.groups.iter().any(|g| g.applied() != applied) {
            return;
        }
        let ckpt = TrainingCheckpoint {
            model: None,
            server: Some(ServerCheckpoint::of_tables(self.merged_tables(), self.cfg.lr, applied)),
            next_batch: applied,
        };
        let (sink, _) = self.ckpt.as_mut().expect("checked above");
        match sink.save(&ckpt) {
            Ok(()) => self.trace.push(TraceEvent::CheckpointSaved { applied }),
            Err(_) => {
                self.trace.push(TraceEvent::CheckpointFailed { applied });
                self.crash_now();
            }
        }
    }

    /// Gathers while every shard has a live, reachable primary,
    /// the pre-fetch queue has room, and the **stitched** staleness gate
    /// allows: batch `k` may only be gathered once `k - min(applied)` is
    /// within the configured bound, so the reassembled stamp (the
    /// per-shard minimum) always satisfies the global bound — which is
    /// what makes the bound a protocol *guarantee* rather than an
    /// accident of queue sizing.
    fn host_gather(&mut self) {
        let n = self.groups.len();
        loop {
            let now = self.q.now();
            let reachable =
                (0..n).all(|s| self.primary_alive(s) && !self.plan.partitioned_at(s as u32, now));
            if !reachable
                || self.next_gather >= self.cfg.num_batches
                || self.occupancy >= self.cfg.prefetch_depth
                || self.next_gather - self.min_applied() > self.cfg.staleness_bound
            {
                return;
            }
            let k = self.next_gather;
            // the trainer's router thread, one call at a time: fan out,
            // each primary serves its share, stitch
            let batch = self.dataset.batch(k, self.cfg.batch_size);
            let (pending, requests) = self
                .router
                .fan_out(batch, k)
                .expect("config-derived layout always routes its own batches");
            let mut replies = Vec::with_capacity(n);
            for (s, locals) in requests.iter().enumerate() {
                let reply = self.groups[s]
                    .primary_mut()
                    .expect("every primary is alive: checked above")
                    .serve_rows(k, locals)
                    .expect("every shard hosts every table");
                self.trace.push(TraceEvent::Stamped {
                    shard: s as u32,
                    seq: k,
                    applied: reply.applied,
                });
                replies.push(reply);
            }
            let pf =
                self.router.stitch(pending, replies).expect("every shard answered this gather");
            self.trace.push(TraceEvent::Gathered { seq: k, applied_through: pf.applied_through });
            let delay = PREFETCH_LATENCY + self.jitter() + self.plan.prefetch_delay(k);
            self.q.schedule(delay, Ev::PrefetchArrive(Box::new(pf)));
            self.occupancy += 1;
            self.next_gather += 1;
        }
    }

    /// Starts computing the next in-order batch if the worker is idle.
    /// The prefetch link preserves FIFO order toward the worker: batches
    /// are consumed strictly by sequence number even when jitter delivers
    /// them out of order. The sharding and replication seams are
    /// invisible to the worker.
    fn worker_start(&mut self) {
        if !self.worker_alive || self.stalled || self.computing.is_some() {
            return;
        }
        let Some(mut pf) = self.inbox.remove(&self.next_train) else { return };
        let seq = pf.batch_seq;
        if self.plan.kills_worker_at(seq) {
            self.worker_alive = false;
            self.trace.push(TraceEvent::WorkerDied { at_batch: seq });
            self.inbox.clear();
            return;
        }
        if !self.stalls_done.contains(&seq) {
            if let Some(ticks) = self.plan.stall_before(seq) {
                self.stalls_done.insert(seq);
                self.stalled = true;
                self.inbox.insert(seq, pf); // resume from here after the stall
                self.q.schedule(ticks, Ev::StallOver);
                return;
            }
        }
        self.occupancy -= 1;
        self.trace.push(TraceEvent::PrefetchSynced { seq, applied_through: pf.applied_through });
        let push = worker_push(&mut pf, &mut self.worker, self.cfg.model_seed);
        self.computing = Some(push);
        self.next_train += 1;
        let delay = COMPUTE_LATENCY + self.jitter();
        self.q.schedule(delay, Ev::ComputeDone(seq));
    }

    /// Issues one transmission of the scattered push for `(shard, seq)`
    /// (subject to the plan's per-shard drop/duplicate/delay faults;
    /// partition windows drop the delivery on arrival) and arms that
    /// link's retransmission timer.
    fn transmit(&mut self, shard: u32, seq: u64) {
        let Some(ent) = self.unacked.get_mut(&(shard, seq)) else { return };
        ent.deliveries += 1;
        let delivery = ent.deliveries;
        let attempts = ent.attempts;
        let push = ent.push.clone();
        self.trace.push(TraceEvent::PushSent { shard, seq, delivery });
        let delay_extra = self.plan.shard_delay(shard, seq);
        if !self.plan.shard_drops(shard, seq, delivery) {
            let d = PUSH_LATENCY + self.jitter() + delay_extra;
            self.q.schedule(d, Ev::PushArrive { shard, push: Box::new(push.clone()) });
        }
        if self.plan.shard_duplicates(shard, seq, delivery) {
            let d = PUSH_LATENCY + 1 + self.jitter() + delay_extra;
            self.q.schedule(d, Ev::PushArrive { shard, push: Box::new(push) });
        }
        let timeout = RETRY_TIMEOUT << attempts.min(8);
        self.q.schedule(timeout, Ev::RetryFire { shard, seq });
    }

    /// The worker's failover action: the group's
    /// [`ReplicaGroup::promote`] step (which fences the old primary if it
    /// still lives), then resend everything unacknowledged toward the
    /// shard and grant the new primary a fresh suspicion grace period.
    fn promote(&mut self, s: usize, silent_for: u64) {
        let group = &mut self.groups[s];
        let shard = s as u32;
        let rank = group.primary_rank();
        self.trace.push(TraceEvent::PrimarySuspected { shard, rank, silent_for });
        if let Some(rank) = group.promote() {
            // false suspicion: the fenced primary stays on as a backup
            self.trace.push(TraceEvent::SteppedDown { shard, rank });
        }
        let rank = group.primary_rank();
        let applied = group.member(rank).map_or(0, |(m, _)| m.applied);
        self.trace.push(TraceEvent::Promoted { shard, rank, applied });
        let now = self.q.now();
        self.detectors[s].record_heartbeat(now);
        let resend: Vec<u64> =
            self.unacked.keys().filter(|(sh, _)| *sh == shard).map(|&(_, seq)| seq).collect();
        for seq in resend {
            if let Some(ent) = self.unacked.get_mut(&(shard, seq)) {
                ent.attempts = 0;
            }
            self.transmit(shard, seq);
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::PrefetchArrive(pf) => {
                if self.worker_alive {
                    self.inbox.insert(pf.batch_seq, *pf);
                }
            }
            Ev::StallOver => {
                self.stalled = false;
            }
            Ev::ComputeDone(seq) => {
                if !self.worker_alive {
                    // a crash killed the worker mid-compute
                    return;
                }
                let push = self.computing.take().expect("ComputeDone without compute");
                debug_assert_eq!(push.batch_seq, seq);
                let scattered = self
                    .router
                    .scatter_push(&push)
                    .expect("worker pushes of a routed batch always scatter");
                for (s, shard_push) in scattered.into_iter().enumerate() {
                    self.unacked.insert(
                        (s as u32, seq),
                        UnackedPush { push: shard_push, attempts: 0, deliveries: 0 },
                    );
                    self.transmit(s as u32, seq);
                }
            }
            Ev::PushArrive { shard, push } => {
                let s = shard as usize;
                if self.plan.partitioned_at(shard, self.q.now()) {
                    return; // dropped at the partition boundary
                }
                let Ok(primary) = self.groups[s].primary() else {
                    return; // delivered to a corpse: retries re-route later
                };
                let seq = push.batch_seq;
                self.trace.push(TraceEvent::PushDelivered { shard, seq });
                if seq < primary.applied || self.pending[s].contains_key(&seq) {
                    self.trace.push(TraceEvent::DuplicateIgnored { shard, seq });
                    if seq < self.groups[s].applied() {
                        // already applied by the group: re-acknowledge so
                        // the worker stops retransmitting on this link
                        // (exactly-once is preserved because application,
                        // not delivery, is deduped)
                        self.schedule_ack(shard, seq);
                    }
                    return;
                }
                if self.plan.shard_saturated_at(shard, self.q.now())
                    || self.pending[s].len() >= self.cfg.grad_capacity
                {
                    self.trace.push(TraceEvent::PushBounced { shard, seq });
                    return;
                }
                self.pending[s].insert(seq, *push);
            }
            Ev::AckArrive { shard, seq } => {
                if self.worker_alive && self.unacked.remove(&(shard, seq)).is_some() {
                    self.trace.push(TraceEvent::Acked { shard, seq });
                }
            }
            Ev::RetryFire { shard, seq } => {
                if !self.worker_alive {
                    return;
                }
                let Some(ent) = self.unacked.get_mut(&(shard, seq)) else { return };
                ent.attempts += 1;
                if ent.attempts > MAX_RETRIES {
                    // the shard is unreachable beyond every remedy (dead,
                    // stuck saturated, out of spares): the worker cannot
                    // make exactly-once progress, so it degrades rather
                    // than livelocks
                    self.unacked.remove(&(shard, seq));
                    self.trace.push(TraceEvent::GaveUp { shard, seq });
                    self.worker_alive = false;
                } else {
                    self.transmit(shard, seq);
                }
            }
            Ev::HeartbeatFire { shard, n } => {
                let s = shard as usize;
                let now = self.q.now();
                // the primary beats; a dead one stays silent — the
                // schedule itself keeps ticking so a promoted successor
                // resumes beating on the same timeline
                if self.primary_alive(s)
                    && !self.plan.heartbeat_lost_at(shard, now)
                    && !self.plan.partitioned_at(shard, now)
                {
                    let rank = self.groups[s].primary_rank();
                    let d = HEARTBEAT_LATENCY + self.jitter();
                    self.q.schedule(d, Ev::HeartbeatArrive { shard, rank });
                }
                if !self.shard_done(s) {
                    let next = self.heartbeats[s].delay(n + 1);
                    self.q.schedule(next, Ev::HeartbeatFire { shard, n: n + 1 });
                }
            }
            Ev::HeartbeatArrive { shard, rank } => {
                let s = shard as usize;
                if self.worker_alive && rank == self.groups[s].primary_rank() {
                    // beats from a deposed rank are fenced out
                    self.detectors[s].record_heartbeat(self.q.now());
                }
            }
            Ev::SuspectCheck { shard } => {
                let s = shard as usize;
                if self.shard_done(s) {
                    return;
                }
                if self.groups[s].failovers() >= PROMOTION_CAP {
                    // every rank has been tried many times over and none
                    // answers — the whole group is gone: degrade rather
                    // than suspect forever
                    self.trace.push(TraceEvent::GaveUp { shard, seq: self.next_train });
                    self.worker_alive = false;
                    return;
                }
                if let Some(silent) = self.detectors[s].suspected(self.q.now()) {
                    self.promote(s, silent);
                }
                self.q.schedule(SUSPECT_CHECK_EVERY, Ev::SuspectCheck { shard });
            }
            Ev::RejoinFire { shard, rank } => {
                let s = shard as usize;
                if self.groups[s].member(rank).is_some_and(|(_, alive)| alive) {
                    return;
                }
                if !self.primary_alive(s) {
                    // no live primary to rejoin under yet: retry after the
                    // failover machinery has promoted one — unless the
                    // worker is done with this shard and never will
                    if !self.shard_done(s) {
                        self.q.schedule(REJOIN_RETRY, Ev::RejoinFire { shard, rank });
                    }
                    return;
                }
                // the group's snapshot plus its gradient-log replay
                let group = &mut self.groups[s];
                group.catch_up(rank).expect("a group with a live primary catches any member up");
                let applied = group.member(rank).map_or(0, |(m, _)| m.applied);
                self.trace.push(TraceEvent::CatchupInstalled { shard, rank, applied });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::oracle::sequential_prefix;

    fn at(shards: u32, replicas: u32) -> SimConfig {
        SimConfig::default().with_topology(shards, replicas)
    }

    fn final_digest(cfg: &SimConfig) -> u64 {
        *sequential_prefix(cfg).prefix_digests.last().unwrap()
    }

    #[test]
    fn worker_death_stalls_the_run_cleanly() {
        let cfg = SimConfig::default();
        let plan = FaultPlan::with(vec![Fault::WorkerDeath { at_batch: 5 }]);
        let r = run(&cfg, &plan, 3);
        assert_eq!(r.outcome, Outcome::Stalled);
        assert_eq!(r.applied, [5], "batches 0..5 trained and applied, nothing after");
        assert!(r.trace.any(|e| matches!(e, TraceEvent::WorkerDied { at_batch: 5 })));
    }

    #[test]
    fn shard_death_stops_that_shard_but_not_its_peers() {
        let cfg = at(3, 1);
        let plan = FaultPlan::with(vec![Fault::ShardDeath { shard: 1, after_applied: 5 }]);
        let r = run(&cfg, &plan, 3);
        assert_eq!(r.outcome, Outcome::Stalled);
        assert_eq!(r.applied[1], 5, "the dead shard froze at its death watermark");
        assert!(
            r.applied.iter().any(|&a| a > 5),
            "surviving shards kept applying while retries ran: {:?}",
            r.applied
        );
        assert!(r
            .trace
            .any(|e| matches!(e, TraceEvent::PrimaryDied { shard: 1, rank: 0, applied: 5 })));
        assert!(r.trace.any(|e| matches!(e, TraceEvent::GaveUp { shard: 1, .. })));
        // every shard — the dead one included — still matches its own
        // oracle prefix
        let oracle = sequential_prefix(&cfg);
        for (s, members) in r.members.iter().enumerate() {
            assert_eq!(members[0].alive, s != 1);
            assert_eq!(
                members[0].digest, oracle.per_shard[s][members[0].applied as usize],
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn a_group_with_no_live_member_stalls_the_run_instead_of_panicking() {
        // K kills of one group's primary leave nobody to promote (the
        // replicated loop used to panic merging "one survivor per shard");
        // a shard death takes the whole group at once; and the only copy
        // of an unreplicated shard dying is the same thing
        let cases = [
            (
                at(3, 3),
                (4..7).map(|w| Fault::PrimaryDeath { shard: 1, after_applied: w }).collect(),
            ),
            (at(3, 3), vec![Fault::ShardDeath { shard: 1, after_applied: 5 }]),
            (
                at(3, 3),
                vec![
                    Fault::BackupDeath { shard: 1, rank: 2, after_applied: 2, rejoin_after: 400 },
                    Fault::ShardDeath { shard: 1, after_applied: 5 },
                ],
            ),
            (at(3, 1), vec![Fault::PrimaryDeath { shard: 1, after_applied: 5 }]),
            // dead before the first gather: the worker never has a push to
            // give up on, so its promotion fuse must end the run
            (at(2, 3), vec![Fault::ShardDeath { shard: 1, after_applied: 0 }]),
        ];
        for (cfg, faults) in cases {
            let plan = FaultPlan::with(faults);
            let r = run(&cfg, &plan, 9);
            assert_eq!(r.outcome, Outcome::Stalled, "plan [{plan}]");
            assert!(r.members[1].iter().all(|m| !m.alive), "plan [{plan}]: {:?}", r.members[1]);
            assert!(r.applied[1] < cfg.num_batches);
            assert!(
                r.trace.any(|e| matches!(e, TraceEvent::GaveUp { shard: 1, .. })),
                "plan [{plan}]: the worker must notice and halt"
            );
            // the corpses keep their bytes, so the oracle check still runs
            crate::invariants::check_run(&cfg, &plan, 9, &sequential_prefix(&cfg))
                .unwrap_or_else(|v| panic!("plan [{plan}] violated: {v}"));
            // and a scenario that demands completion reports how far the
            // run got
            assert!(matches!(
                crate::invariants::incomplete(&r, &cfg),
                Some(crate::invariants::Violation::Incomplete { applied, .. })
                    if applied == r.applied[1]
            ));
        }
    }

    #[test]
    fn faults_that_need_a_peer_are_inert_without_one() {
        // a group of one exchanges no heartbeats and has no backup rank
        for cfg in [at(1, 1), at(3, 1)] {
            let plan = FaultPlan::with(vec![
                Fault::HeartbeatLoss { shard: 0, start: 0, ticks: 400 },
                Fault::BackupDeath { shard: 0, rank: 1, after_applied: 3, rejoin_after: 10 },
            ]);
            let r = run(&cfg, &plan, 5);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.promotions.iter().sum::<u64>(), 0);
            assert!(!r.trace.any(|e| matches!(
                e,
                TraceEvent::PrimarySuspected { .. } | TraceEvent::BackupDied { .. }
            )));
            assert_eq!(r.merged_digest, final_digest(&cfg));
        }
    }

    #[test]
    fn saturation_bounces_one_shard_then_recovers() {
        for cfg in [at(1, 1), at(3, 1)] {
            let plan =
                FaultPlan::with(vec![Fault::ShardSaturation { shard: 0, start: 10, ticks: 40 }]);
            let r = run(&cfg, &plan, 9);
            assert_eq!(r.outcome, Outcome::Completed, "retries must ride out the window");
            assert!(r.trace.any(|e| matches!(e, TraceEvent::PushBounced { shard: 0, .. })));
            // only the saturated shard bounces: its peers receive the same
            // batches on time (cross-shard delivery reordering)
            assert!(!r.trace.any(|e| matches!(e, TraceEvent::PushBounced { shard: 1.., .. })));
        }
    }

    #[test]
    fn dropped_duplicated_and_delayed_pushes_are_absorbed() {
        for cfg in [at(1, 1), at(3, 1), at(2, 2)] {
            let last = cfg.shard.num_shards - 1;
            let plan = FaultPlan::with(vec![
                Fault::DropShardPush { shard: 0, seq: 2, delivery: 1 },
                Fault::DuplicateShardPush { shard: last, seq: 3, delivery: 1 },
                Fault::ShardDelay { shard: last, seq: 4, ticks: 30 },
            ]);
            let r = run(&cfg, &plan, 4);
            assert_eq!(r.outcome, Outcome::Completed);
            assert!(
                r.trace.count(|e| matches!(e, TraceEvent::PushSent { shard: 0, seq: 2, .. })) >= 2,
                "the drop forced a retransmission toward shard 0"
            );
            assert!(r.trace.any(
                |e| matches!(e, TraceEvent::DuplicateIgnored { shard, seq: 3 } if *shard == last)
            ));
            assert_eq!(
                r.trace.count(
                    |e| matches!(e, TraceEvent::Applied { shard, seq: 3, .. } if *shard == last)
                ),
                cfg.replicas as usize,
                "the duplicated delivery was applied exactly once per member"
            );
            assert_eq!(r.merged_digest, final_digest(&cfg));
        }
    }

    #[test]
    fn a_tight_staleness_bound_binds_and_holds_at_every_topology() {
        for cfg in [at(1, 1), at(3, 1), at(2, 2)] {
            let cfg = SimConfig { staleness_bound: 2, ..cfg };
            let r = run(&cfg, &FaultPlan::none(), 11);
            assert_eq!(r.outcome, Outcome::Completed);
            // every stamp is the per-shard minimum and within the bound
            crate::invariants::check_trace(&r, &cfg).unwrap_or_else(|v| panic!("{v}"));
            let lag = |e: &TraceEvent| match *e {
                TraceEvent::Gathered { seq, applied_through } => seq - applied_through,
                _ => 0,
            };
            assert_eq!(r.trace.events.iter().map(lag).max(), Some(2), "the gate must bind");
        }
    }

    #[test]
    fn resumed_session_continues_from_the_watermark() {
        for (first, second) in [(at(1, 1), at(1, 1)), (at(3, 1), at(3, 1)), (at(3, 1), at(2, 2))] {
            // run the first half, resume the second from the merged tables
            let half = SimConfig { num_batches: 12, ..first };
            let a = run(&half, &FaultPlan::none(), 2);
            assert_eq!(a.outcome, Outcome::Completed);
            let resume = ResumeState { tables: a.merged_tables, applied: 12 };
            let b = run_session(&second, &FaultPlan::none(), 21, Some(resume), None);
            assert_eq!(b.outcome, Outcome::Completed);
            assert!(b.trace.any(|e| matches!(e, TraceEvent::Resumed { applied: 12 })));
            assert!(!b.trace.any(|e| matches!(e, TraceEvent::Applied { seq: ..12, .. })));
            assert_eq!(b.merged_digest, final_digest(&second));
        }
    }

    #[test]
    fn checkpoints_capture_the_merged_tables_when_every_shard_agrees() {
        struct Recorder(Vec<(u64, u64)>);
        impl CkptSink for Recorder {
            fn save(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CkptError> {
                assert!(ckpt.model.is_none(), "a parameter tier holds no model");
                let server = ckpt.server.clone().expect("the merged tables");
                assert_eq!(server.applied, ckpt.next_batch);
                self.0.push((ckpt.next_batch, digest_tables(&server.into_tables())));
                Ok(())
            }
        }
        for cfg in [at(1, 1), at(3, 1)] {
            let oracle = sequential_prefix(&cfg);
            let mut sink = Recorder(Vec::new());
            // a delayed shard skews the watermarks across a cadence point
            let plan = FaultPlan::with(vec![Fault::ShardDelay { shard: 0, seq: 7, ticks: 40 }]);
            let r = run_session(&cfg, &plan, 6, None, Some((&mut sink, 4)));
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(sink.0.last().map(|s| s.0), Some(24), "the final watermark is a cadence");
            for (applied, digest) in sink.0 {
                assert!(applied.is_multiple_of(4));
                assert_eq!(digest, oracle.prefix_digests[applied as usize], "at {applied}");
            }
        }
    }

    /// Member deaths and network faults a replicated tier must ride out
    /// with the sequential bytes in every surviving copy, each with the
    /// trace events that prove the intended path was taken.
    #[test]
    fn replication_rides_out_member_deaths_and_network_faults() {
        use TraceEvent::*;
        type Saw = fn(&TraceEvent) -> bool;
        let cases: [(SimConfig, u64, Vec<Fault>, Vec<Saw>); 7] = [
            // a dead primary is suspected by its silence and the next rank
            // promoted: it trained the exact bytes the primary would have
            (
                at(3, 3),
                3,
                vec![Fault::PrimaryDeath { shard: 1, after_applied: 5 }],
                vec![
                    |e| matches!(e, PrimaryDied { shard: 1, rank: 0, .. }),
                    |e| matches!(e, PrimarySuspected { shard: 1, rank: 0, .. }),
                    |e| matches!(e, Promoted { shard: 1, rank: 1, .. }),
                ],
            ),
            // adjacent watermarks: the second kill lands on the member the
            // first promotion just installed, burning through both spares
            (
                at(3, 3),
                9,
                vec![
                    Fault::PrimaryDeath { shard: 0, after_applied: 4 },
                    Fault::PrimaryDeath { shard: 0, after_applied: 5 },
                ],
                vec![
                    |e| matches!(e, PrimaryDied { shard: 0, rank: 0, .. }),
                    |e| matches!(e, PrimaryDied { shard: 0, rank: 1, .. }),
                    |e| matches!(e, Promoted { shard: 0, rank: 2, .. }),
                ],
            ),
            // a dead backup rejoins through the group's catch-up path
            (
                at(3, 3),
                5,
                vec![Fault::BackupDeath { shard: 2, rank: 1, after_applied: 4, rejoin_after: 20 }],
                vec![|e| matches!(e, BackupDied { shard: 2, rank: 1, .. }), |e| {
                    matches!(e, CatchupInstalled { shard: 2, rank: 1, .. })
                }],
            ),
            // the backup dies, and while it is scheduled to rejoin the
            // primary dies too: the rejoin must wait for a promoted leader
            (
                at(3, 3),
                11,
                vec![
                    Fault::BackupDeath { shard: 0, rank: 1, after_applied: 3, rejoin_after: 25 },
                    Fault::PrimaryDeath { shard: 0, after_applied: 4 },
                ],
                vec![|e| matches!(e, CatchupInstalled { shard: 0, .. })],
            ),
            // a 60-tick silent window trips the 30-tick detector; the
            // healthy-but-silent primary steps down, no split brain
            (
                at(3, 3),
                13,
                vec![Fault::HeartbeatLoss { shard: 1, start: 10, ticks: 60 }],
                vec![|e| matches!(e, PrimarySuspected { shard: 1, .. }), |e| {
                    matches!(e, SteppedDown { shard: 1, rank: 0 })
                }],
            ),
            // partitions are ridden out by retries and failover together
            (at(3, 3), 17, vec![Fault::Partition { shard: 0, start: 15, ticks: 70 }], vec![]),
            (at(1, 2), 17, vec![Fault::Partition { shard: 0, start: 15, ticks: 70 }], vec![]),
        ];
        for (cfg, seed, faults, saw) in cases {
            let plan = FaultPlan::with(faults);
            let r = run(&cfg, &plan, seed);
            assert_eq!(r.outcome, Outcome::Completed, "plan [{plan}] must be ridden out");
            assert_eq!(r.merged_digest, final_digest(&cfg), "plan [{plan}]");
            for (i, saw) in saw.into_iter().enumerate() {
                assert!(r.trace.any(saw), "plan [{plan}]: expected event {i} never happened");
            }
            for members in &r.members {
                let alive: Vec<_> = members.iter().filter(|m| m.alive).collect();
                assert!(alive.iter().all(|m| *m == alive[0]), "plan [{plan}]: {members:?}");
            }
        }
    }

    #[test]
    fn digest_distinguishes_different_tables() {
        let cfg = SimConfig::default();
        let a = run(&cfg, &FaultPlan::none(), 1);
        let shorter = SimConfig { num_batches: 12, ..cfg };
        let b = run(&shorter, &FaultPlan::none(), 1);
        assert_ne!(a.merged_digest, b.merged_digest);
    }
}
