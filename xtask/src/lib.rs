//! Repo automation library (`cargo xtask …`).
//!
//! Split out of the binary so integration tests (and the fixture-driven
//! analyzer tests in particular) can call the analysis engine as a
//! library instead of shelling out.
//!
//! * [`analyze`] — the token-level workspace analyzer behind
//!   `cargo xtask analyze` and `cargo xtask lint` (lexer, item parser,
//!   call graph, contract checks, source conventions).
//! * [`hash`] — the FNV-1a vendor manifest and its drift check.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod hash;
