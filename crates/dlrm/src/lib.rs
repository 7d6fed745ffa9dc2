//! # el-dlrm — the DLRM model substrate
//!
//! A from-scratch implementation of Facebook's DLRM architecture (paper
//! Figure 2) on top of `el-tensor`:
//!
//! * [`linear`]/[`mlp`] — dense layers and the bottom/top MLPs,
//! * [`embedding_bag`] — the uncompressed `nn.EmbeddingBag` baseline with
//!   sparse gradients (what the paper's DLRM/FAE baselines train),
//! * [`interaction`] — the pairwise dot-product feature interaction,
//! * [`loss`] — binary cross-entropy with logits,
//! * [`metrics`] — accuracy / AUC / log-loss for Table IV,
//! * [`optim`] — Adagrad (dense and sparse) alongside the default SGD,
//! * [`quantized`] — int8 / bf16 embedding tables (the compression family
//!   the paper contrasts TT against),
//! * [`model`] — the assembled model, able to host any mix of dense and
//!   Eff-TT embedding tables (the drop-in-replacement property of the
//!   Eff-TT API).

#![forbid(unsafe_code)]

mod band;
pub mod checkpoint;
pub mod embedding_bag;
pub mod interaction;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod optim;
pub use el_core::quantized;

pub use checkpoint::DlrmCheckpoint;
pub use embedding_bag::EmbeddingBag;
pub use linear::Linear;
pub use mlp::Mlp;
pub use model::{DlrmConfig, DlrmModel, EmbeddingLayer};
pub use optim::{Adagrad, OptimizerKind};
