//! Seeded violation: an unjustified `unwrap()` reachable from the
//! `// CONTRACT: panic-free` pipeline root in the sibling crate
//! (`fxpipe::drive -> step -> unwrap`).

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

/// One pipeline step; panics on an empty batch (the seeded bug).
pub fn step(xs: &[f32]) -> f32 {
    let mut t = *xs.first().unwrap();
    for x in &xs[1..] {
        t += x;
    }
    t
}

/// Reads the registered fixture mode knob.
pub fn mode() -> Option<String> {
    std::env::var("EL_FIXTURE_MODE").ok()
}
