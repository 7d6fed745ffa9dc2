//! Analyzer fixture pipeline crate: the panic-free contract root lives
//! here so violations seeded into `fxcore` are reported with a
//! cross-crate call chain.

#![forbid(unsafe_code)]

use fxcore::step;

// CONTRACT: panic-free
pub fn drive(xs: &[f32]) -> f32 {
    step(xs)
}
