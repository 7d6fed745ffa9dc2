//! # el-tensor
//!
//! Dense linear-algebra substrate for the EL-Rec reproduction.
//!
//! The EL-Rec paper implements its Eff-TT embedding kernels in CUDA on top of
//! cuBLAS; the hot primitive is `cublasGemmBatchedEx` — *many small GEMMs of
//! identical shape launched as one kernel*. This crate provides the CPU
//! equivalent of that substrate:
//!
//! * [`Matrix`] — a row-major owned `f32` matrix with the view/slicing
//!   operations the TT kernels need,
//! * [`gemm`] — sequential and rayon-parallel GEMM entry points that
//!   dispatch between a small-shape axpy loop and the packed kernel,
//! * [`micro`] — the register-blocked packed (BLIS-style) GEMM
//!   micro-kernel behind the large-shape paths,
//! * [`batched`] — a batched-GEMM engine executing a *pointer list* of
//!   equally-shaped small GEMMs over a thread pool (the
//!   `cublasGemmBatchedEx` stand-in that EL-Rec's Algorithm 1 prepares
//!   arguments for),
//! * [`small`] — the shape-resolved kernel table for the Eff-TT chain's
//!   small products, bit-identical to the generic loops it replaces,
//! * [`svd`] — one-sided Jacobi SVD, accurate for the small/skinny matrices
//!   that arise during TT-SVD,
//! * [`tt`] — TT-SVD decomposition of a dense matrix reshaped as a
//!   `d`-dimensional tensor, plus exact reconstruction,
//! * [`shape`] — factorization helpers that split embedding-table dimensions
//!   `M`/`N` into balanced TT factors.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod batched;
pub mod gemm;
pub mod matrix;
pub mod micro;
pub mod shape;
pub mod shard;
pub mod small;
pub mod svd;
pub mod tt;

pub use batched::{batched_gemm, GemmBatch, GemmTask};
pub use matrix::Matrix;
pub use shape::{balanced_factorization, factorize};
pub use svd::Svd;
pub use tt::{TtCores, TtDecomposition};
