//! # el-core — the Eff-TT table
//!
//! The primary contribution of *EL-Rec* (SC 2022): a tensor-train
//! compressed embedding table whose kernels are designed around the
//! computation patterns of DLRM embedding primitives.
//!
//! * [`TtEmbeddingBag`] is the drop-in replacement for
//!   `nn.EmbeddingBag(mode="sum")`: CSR `(indices, offsets)` in, pooled
//!   embeddings out, with TT cores as the only trainable state.
//! * Forward uses **two-level intermediate-result reuse** (paper §III-A):
//!   a [`plan::LookupPlan`] deduplicates shared index prefixes (Algorithm
//!   1's pointer preparation) and one batched GEMM per chain level fills
//!   the reuse buffer.
//! * Backward uses **in-advance gradient aggregation** and the **fused
//!   TT-core update** (paper §III-B), cutting chain-rule work from
//!   per-lookup to per-unique-index and eliminating the gradient
//!   round-trip through memory.
//! * Every optimization is individually switchable through [`TtOptions`],
//!   which is how the Figure 14/17/18 ablation benches disable one
//!   technique at a time; `TtOptions::tt_rec_baseline()` reproduces the
//!   TT-Rec comparison point.
//!
//! ```
//! use el_core::{TtConfig, TtEmbeddingBag, TtWorkspace};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // a 1M-row, dim-64 table compressed to three rank-32 TT cores
//! let mut table = TtEmbeddingBag::new(&TtConfig::new(1_000_000, 64, 32), &mut rng);
//! let mut ws = TtWorkspace::new();
//!
//! // one batch: two samples, multi-hot indices in CSR form
//! let indices = [12u32, 999_999, 12, 7];
//! let offsets = [0u32, 2, 4];
//! let pooled = table.forward(&indices, &offsets, &mut ws);
//! assert_eq!((pooled.rows(), pooled.cols()), (2, 64));
//!
//! // gradient step (here: gradient = output, i.e. shrink the embeddings)
//! table.backward_sgd(&pooled, &mut ws, 0.01);
//! ```

#![forbid(unsafe_code)]

pub mod backward;
pub mod bag;
pub mod config;
pub mod forward;
pub mod inference;
pub mod plan;
pub mod quantized;
pub mod timing;

pub use bag::{ReuseStats, TtEmbeddingBag, TtWorkspace};
pub use config::{BackwardStrategy, ForwardStrategy, TtConfig, TtOptions};
pub use inference::TtInferenceSession;
pub use plan::{Csr, Level, LookupPlan, PAR_BUILD_CUTOFF};
pub use quantized::{Bf16EmbeddingBag, QuantizedEmbeddingBag};
pub use timing::StageTimers;

#[cfg(test)]
mod proptests;
