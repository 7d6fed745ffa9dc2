//! # el-serve
//!
//! Online serving tier over the frozen-table inference path: turns a
//! concurrent stream of small per-user requests into batched, deduplicated
//! TT lookups.
//!
//! EL-Rec's Algorithm 1 dedups shared TT index prefixes *within* one
//! training batch. At serving time the same redundancy exists *across*
//! concurrent requests — power-law traffic means many in-flight requests
//! touch the same hot rows — so coalescing requests into one batch lets a
//! single [`el_core::plan::LookupPlan`] contract each duplicate row (and
//! each shared prefix) once, amortizing the chain work exactly the way the
//! paper amortizes it per batch. The pieces:
//!
//! * [`batch::Coalescer`] — merges queued requests into one CSR batch,
//!   serves it through [`el_core::TtInferenceSession::lookup_into`], and
//!   scatters rows back per request from recycled buffers (zero-alloc in
//!   steady state; proven by the `// CONTRACT: zero-alloc` analyzer).
//! * [`server`] — admission control (requests are checked against the
//!   table's rows, then against bounded per-tenant in-flight budgets, with
//!   typed [`server::ServeError`] rejections, never a stall), one pending
//!   queue, and workers on the shared rayon pool that pull up to
//!   `max_batch` requests from it whenever they are free: work-conserving
//!   batching, where batch size follows load and an idle tier answers a
//!   lone request at once.
//!
//! The benchmark package (`perf/`) drives this tier open loop in its
//! `serve_low` and `serve_high` workloads.

#![forbid(unsafe_code)]

pub mod batch;
pub mod config;
pub mod server;
pub mod timing;

pub use batch::{Coalescer, ServeRequest, ServeResponse};
pub use config::ServeConfig;
pub use server::{serve, ServeError, ServeHandle, ServeReport, TenantConfig};
