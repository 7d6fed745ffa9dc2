//! Seeded violation: a blocking plan hand-off inside the table fork.
//! The forward claims a plan another thread builds, and waits on a
//! `Condvar` until it is ready (`table_forward -> analyze ->
//! Prefetcher::take -> wait`). When that build runs on the same pool, a
//! pool of waiting tables has no thread left to build it.

#![forbid(unsafe_code)]

use std::sync::{Condvar, Mutex, PoisonError};

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

/// Plans built ahead of their batch, handed over one at a time.
#[derive(Default)]
pub struct Prefetcher {
    ready: Mutex<Option<Vec<u32>>>,
    built: Condvar,
}

impl Prefetcher {
    /// Claims the plan built for `indices`, waiting until it is ready;
    /// `false` when it was built for another batch.
    pub fn take(&self, plan: &mut Plan, indices: &[u32]) -> bool {
        let mut slot = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        while slot.is_none() {
            slot = self.built.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        let rows = slot.take().unwrap_or_default();
        let hit = rows.len() == indices.len();
        plan.rows = rows;
        hit
    }
}

/// One table of the embedding stage's fork; runs as a pool task.
// CONTRACT: non-blocking
pub fn table_forward(pf: Option<&Prefetcher>, plan: &mut Plan, indices: &[u32]) -> usize {
    analyze(pf, plan, indices);
    plan.rows.len()
}

fn analyze(pf: Option<&Prefetcher>, plan: &mut Plan, indices: &[u32]) {
    let prefetched = match pf {
        Some(pf) => pf.take(plan, indices),
        None => false,
    };
    if prefetched {
        return;
    }
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
