//! Analyzer fixture crate: hot-path contracts the engine must prove
//! clean in the pristine tree. The overlay files under
//! `xtask/tests/fixtures/overlays/` each replace this file with a copy
//! seeded with exactly one violation.

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

/// One table's lookup plan: the distinct rows of a batch.
#[derive(Default)]
pub struct Plan {
    pub rows: Vec<u32>,
}

/// One table of the embedding stage's fork; runs as a pool task.
// CONTRACT: non-blocking
pub fn table_forward(plan: &mut Plan, indices: &[u32]) -> usize {
    analyze(plan, indices);
    plan.rows.len()
}

fn analyze(plan: &mut Plan, indices: &[u32]) {
    plan.rows.clear();
    plan.rows.extend_from_slice(indices);
    plan.rows.sort_unstable();
    plan.rows.dedup();
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
