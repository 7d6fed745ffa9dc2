//! Seeded violation: an allocating call two hops below the
//! `// CONTRACT: zero-alloc` root (`hot -> mid -> deep -> with_capacity`).

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
    let mut v: Vec<f32> = Vec::with_capacity(xs.len());
    v.extend_from_slice(xs);
    s.acc.clear();
    s.acc.extend_from_slice(&v);
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
