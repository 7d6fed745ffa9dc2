//! # el-pipeline — the TT-based pipeline training system (paper §V)
//!
//! EL-Rec's system layer: a parameter-server architecture where MLPs and
//! TT tables are replicated on workers while overflow embedding tables stay
//! in host memory, served through a **pre-fetch queue** and a **gradient
//! queue** so CPU-side gathering/updating overlaps GPU-side training.
//!
//! * [`device`] — what a run measures for the device model: per-thread
//!   CPU time and the metered bus traffic ([`CommMeter`]); the V100/T4
//!   model that turns them into device time is `el_frameworks::device`,
//! * [`cache`] — the embedding cache that resolves the read-after-write
//!   conflict of pipelined training (paper §V-B, Figure 10), implemented
//!   with version watermarks (provably equivalent to the paper's
//!   life-cycle counters), and [`WorkerCache`], the worker's stage 1 and
//!   stage 3 around it,
//! * [`server`] — the host-memory parameter server and the messages of
//!   its two queues,
//! * [`router`] / [`replica`] — the topology: consistent-hash placement
//!   of hosted tables on N shards, K lockstep replicas per shard,
//! * [`trainer`] — the three-stage pipelined trainer (Figure 9): one
//!   driver over N shards x K replicas, of which the single host server
//!   is `N = K = 1` and the sequential baseline is queue depth 1.
//! * [`ckpt`] — the one durable checkpoint format (model, hosted tables
//!   and loader cursor in one framed, checksummed file) and the one
//!   atomic write that saves it.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod ckpt;
pub mod device;
pub mod replica;
pub mod router;
pub mod server;
pub mod trainer;

pub use cache::{EmbeddingCache, WorkerCache};
pub use ckpt::{CkptError, CkptStore, FsStorage, MemStorage, Storage, TrainingCheckpoint};
pub use device::CommMeter;
pub use replica::{ReplicaError, ReplicaGroup, ReplicationConfig};
pub use router::{
    merge_tables, split_tables, PendingGather, RouterError, RowRoute, ShardConfig, ShardLayout,
    ShardRequest, ShardRouter, ShardScatter, TableOwnership,
};
pub use trainer::{PipelineConfig, PipelineReport, PipelineTrainer};
