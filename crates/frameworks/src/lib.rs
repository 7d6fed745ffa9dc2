//! # el-frameworks — baseline DLRM training frameworks
//!
//! Faithful *strategy-level* emulations of every framework the paper
//! compares against, re-implemented on the shared substrate so the only
//! differences are the design decisions the paper credits or blames:
//!
//! | Framework | Strategy (paper §VI-A) | Emulation |
//! |---|---|---|
//! | DLRM \[23\] | embeddings in host memory, synchronous PS | [`endtoend`] with every large table `Hosted`, strict alternation |
//! | FAE \[24\]  | hot embeddings on device; cold batches pay the host | profiling pass -> hot set; cold batches pay gather/update + bus bytes |
//! | TT-Rec \[20\] | TT compression, unoptimized kernels | Eff-TT tables with `TtOptions::tt_rec_baseline()` |
//! | EL-Rec | Eff-TT + index reordering (+ pipeline for overflow) | the real thing |
//! | HugeCTR \[18\] | row-wise model-parallel sharding | [`large_table`] comm/compute model on real kernels |
//! | TorchRec \[40\] | column-wise sharding ("4D parallelism") | [`large_table`] |
//!
//! End-to-end comparisons report **measured** compute time, split into
//! kernel classes, plus **metered** communication, and [`device`] turns
//! both into device time. It is the one device-time model: every figure
//! charges GEMM, TT-chain, gather and host work at that class's scale (see
//! DESIGN.md §2.1 and its substitution table).

#![forbid(unsafe_code)]

pub mod device;
pub mod endtoend;
pub mod large_table;

pub use device::{DeviceSpec, DeviceWork};
pub use endtoend::{run_framework, FrameworkKind, FrameworkReport, FrameworkRun, RunParams};
pub use large_table::{large_table_throughput, LargeTableParams, ShardingStrategy};
