//! What a run measures of its would-be device: per-thread CPU time and the
//! bytes that would cross PCIe/NVLink. The GPU model that turns both into
//! device time lives with the figures that use it (`el_frameworks::device`).

use std::time::Duration;

/// Per-thread CPU time via `CLOCK_THREAD_CPUTIME_ID`.
///
/// Stage accounting must survive single-core interleaving: wall-clock
/// deltas on a preempted thread include the *other* thread's work, while
/// thread CPU time counts only cycles this thread actually burned.
pub fn thread_cpu_time() -> Duration {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Accumulates the communication a training run *would* perform.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommMeter {
    /// Host-to-device bytes (parameter pulls, input upload).
    pub h2d_bytes: u64,
    /// Device-to-host bytes (gradient pushes).
    pub d2h_bytes: u64,
    /// Device-to-device bytes (model-parallel exchange, all-reduce).
    pub p2p_bytes: u64,
    /// Kernel launches (the overhead fused updates eliminate).
    pub kernel_launches: u64,
}

impl CommMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a host-to-device transfer.
    pub fn h2d(&mut self, bytes: usize) {
        self.h2d_bytes += bytes as u64;
    }

    /// Records a device-to-host transfer.
    pub fn d2h(&mut self, bytes: usize) {
        self.d2h_bytes += bytes as u64;
    }

    /// Records a device-to-device transfer.
    pub fn p2p(&mut self, bytes: usize) {
        self.p2p_bytes += bytes as u64;
    }

    /// Records kernel launches.
    pub fn launches(&mut self, n: usize) {
        self.kernel_launches += n as u64;
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &CommMeter) {
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.p2p_bytes += other.p2p_bytes;
        self.kernel_launches += other.kernel_launches;
    }

    /// Total bytes moved across any link.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes + self.p2p_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_merges() {
        let mut a = CommMeter::new();
        a.h2d(100);
        a.d2h(50);
        a.launches(3);
        let mut b = CommMeter::new();
        b.p2p(200);
        b.merge(&a);
        assert_eq!(b.total_bytes(), 350);
        assert_eq!(b.kernel_launches, 3);
    }
}
