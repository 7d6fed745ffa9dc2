//! # el-reorder — locality-based index reordering (paper §IV)
//!
//! The performance of the Eff-TT table depends on how often indices inside
//! a batch share TT-index prefixes. Raw categorical IDs carry no locality,
//! so EL-Rec reorders them offline with an index bijection built from:
//!
//! * **global information** — the frequency ordering of the whole training
//!   log: the top `hot_ratio` fraction of indices ("hot embeddings") is
//!   pinned, in frequency order, to the front of the new index space;
//! * **local information** — a co-occurrence **index graph** over the
//!   remaining indices (paper Algorithm 2: vertices are indices, edges
//!   connect indices appearing in the same batch), partitioned with
//!   modularity-based **community detection** ([`louvain()`]); each community
//!   receives a contiguous index range.
//!
//! The result is an [`bijection::IndexBijection`] applied to every batch
//! before lookup (`SparseField::remap`). Because embedding rows are
//! randomly initialized, relabeling rows before training is free — no data
//! movement, no accuracy impact.
//!
//! The bijection is a pure function of `(cardinality, batches, config)`:
//! the same in every process and at every pool size. Every choice the fit
//! makes is ordered — stable sorts by count, a seeded edge sampler, and a
//! Louvain that scores candidate communities in first-touch (adjacency)
//! order, where a tie keeps the earlier candidate ([`louvain()`]). No step
//! iterates a hash map, whose order std seeds per process.

#![forbid(unsafe_code)]

pub mod bijection;
pub mod graph;
pub mod louvain;
pub mod metrics;

pub use bijection::{IndexBijection, ReorderConfig, Reorderer};
pub use graph::IndexGraph;
pub use louvain::{louvain, modularity, Partition};
