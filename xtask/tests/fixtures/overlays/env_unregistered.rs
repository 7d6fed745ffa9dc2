//! Seeded violation: an `EL_*` environment read with no row in
//! `docs/env-vars.md`.

#![forbid(unsafe_code)]

/// Reused scratch buffers so the hot path allocates nothing.
#[derive(Default)]
pub struct Scratch {
    pub acc: Vec<f32>,
}

// CONTRACT: zero-alloc
pub fn hot(s: &mut Scratch, xs: &[f32]) -> f32 {
    mid(s, xs)
}

fn mid(s: &mut Scratch, xs: &[f32]) -> f32 {
    deep(s, xs)
}

fn deep(s: &mut Scratch, xs: &[f32]) -> f32 {
    s.acc.clear();
    s.acc.extend_from_slice(xs);
    s.acc.iter().sum()
}

/// One pipeline step; must stay panic-free (see `fxpipe::drive`).
pub fn step(xs: &[f32]) -> f32 {
    let mut t = 0.0;
    for x in xs {
        t += x;
    }
    t
}

/// Reads the registered fixture mode knob.
pub fn mode() -> Option<String> {
    std::env::var("EL_FIXTURE_MODE").ok()
}

/// Reads a knob that nobody registered (the seeded violation).
pub fn secret_knob() -> Option<String> {
    std::env::var("EL_FIXTURE_UNREGISTERED").ok()
}
