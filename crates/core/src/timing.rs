//! Consolidated stage timing for the training hot path.
//!
//! EL-Rec's §V argument is about *where* a train step spends its time —
//! batch analysis (pointer preparation) versus the forward GEMM chain
//! versus backward — so [`TtWorkspace`](crate::TtWorkspace) carries a
//! [`StageTimers`] record updated by the kernels through this module.
//!
//! All `Instant::now()` calls of the library hot loops live here (enforced
//! by `cargo xtask lint`'s `instant-now` rule). Every probe reads the
//! clock.

use std::time::Instant;

/// An in-flight stage measurement; resolves into a counter on
/// [`StageProbe::accumulate`].
#[must_use]
pub struct StageProbe(Instant);

/// Starts a stage probe.
pub fn probe() -> StageProbe {
    StageProbe(Instant::now())
}

impl StageProbe {
    /// Adds the elapsed nanoseconds since the probe started to `counter`.
    pub fn accumulate(self, counter: &mut u64) {
        *counter += self.0.elapsed().as_nanos() as u64;
    }
}

/// Cumulative per-stage wall time of one workspace, in nanoseconds.
///
/// `analysis_ns` counts pointer preparation: the plan build of each
/// forward, which runs inline in the table's own forward call.
///
/// Each record is one table's own wall time. A DLRM step runs its tables
/// side by side across the pool, so records merged over tables add up
/// overlapping per-table wall times: the sum is not a share of the step
/// and can exceed the stage's wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimers {
    /// Batch analysis: the forward's plan build.
    pub analysis_ns: u64,
    /// Forward chain GEMMs + pooling.
    pub forward_ns: u64,
    /// Backward aggregation, chain and core-gradient passes.
    pub backward_ns: u64,
    /// Forward passes measured.
    pub batches: u64,
}

impl StageTimers {
    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = StageTimers::default();
    }

    /// Sum of all stage counters.
    pub fn total_ns(&self) -> u64 {
        self.analysis_ns + self.forward_ns + self.backward_ns
    }

    /// Accumulates another record into this one.
    pub fn merge(&mut self, other: &StageTimers) {
        self.analysis_ns += other.analysis_ns;
        self.forward_ns += other.forward_ns;
        self.backward_ns += other.backward_ns;
        self.batches += other.batches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_accumulate_elapsed_time() {
        let mut ns = 0u64;
        let p = probe();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        p.accumulate(&mut ns);
        assert!(ns > 0);
        let first = ns;
        probe().accumulate(&mut ns);
        assert!(ns >= first);
    }

    #[test]
    fn timers_merge_and_reset() {
        let mut a = StageTimers { analysis_ns: 1, forward_ns: 2, backward_ns: 3, batches: 1 };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_ns(), 12);
        assert_eq!(a.batches, 2);
        a.reset();
        assert_eq!(a, StageTimers::default());
    }
}
