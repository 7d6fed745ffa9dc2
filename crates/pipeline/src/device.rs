//! Simulated training devices.
//!
//! The paper evaluates on AWS p3.8xlarge (4x V100, PCIe 3.0) and
//! g4dn.12xlarge (4x T4). This machine has no GPU, so — per the
//! substitution rule in DESIGN.md — framework comparisons run their math on
//! the CPU and account *communication* with an analytical model: every
//! byte that would cross PCIe/NVLink is metered, and simulated transfer
//! time is added to measured compute time. Work-reduction ratios
//! (compression, reuse, aggregation) are hardware-independent, so the
//! *shape* of the end-to-end comparisons survives the substitution.

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

/// Static description of one accelerator.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Marketing name for report output.
    pub name: &'static str,
    /// High-bandwidth-memory capacity in bytes (what embedding placement
    /// decisions are made against).
    pub hbm_bytes: usize,
    /// Host-device bandwidth in bytes/second (PCIe).
    pub pcie_bps: f64,
    /// Device-device bandwidth in bytes/second (NVLink or PCIe P2P).
    pub p2p_bps: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub kernel_launch_s: f64,
    /// Aggregate speedup of this device over the measuring CPU core for a
    /// whole mixed training step (used where per-kernel-class splits are
    /// unavailable). Measured *device-side* compute is divided by this
    /// factor; *host-side* work (parameter-server gather/update) stays at
    /// CPU speed. Calibration: a V100 sustains ~10 TFLOP/s on DLRM-sized
    /// GEMMs versus ~10 GFLOP/s for one Xeon core (~1000x), and ~100x on
    /// memory-bound gathers; the aggregate sits between the two. Absolute
    /// values are knobs — comparisons derive their shape from the
    /// CPU/device/bus split, which the model preserves.
    pub compute_scale: f64,
    /// Speedup for GEMM-class device kernels (TT chains, MLPs,
    /// interaction): GPUs run dense math near peak, so this exceeds
    /// `compute_scale`.
    pub gemm_scale: f64,
    /// Speedup for memory-bound gather/scatter kernels (dense embedding
    /// lookup/update): bounded by HBM vs host-cache bandwidth, well below
    /// `gemm_scale`.
    pub gather_scale: f64,
    /// Parallel speedup of the *host* CPU over the measuring single core
    /// (the paper's parameter server runs on a full multi-core Xeon).
    pub host_scale: f64,
    /// Speedup for TT-chain kernels (many small batched GEMMs): lower GPU
    /// efficiency than large MLP GEMMs. Calibrated so the simulated
    /// TT-vs-dense lookup ratio reproduces the published GPU measurements
    /// (TT-Rec's lookup is ~2.3x a dense `EmbeddingBag` lookup).
    pub tt_scale: f64,
}

impl DeviceSpec {
    /// Tesla V100 16 GB (AWS p3.8xlarge): PCIe 3.0 x16, NVLink pairs.
    pub fn v100() -> Self {
        Self {
            name: "V100-16GB",
            hbm_bytes: 16 * (1 << 30),
            pcie_bps: 12.0e9,
            p2p_bps: 150.0e9,
            kernel_launch_s: 5.0e-6,
            compute_scale: 200.0,
            gemm_scale: 1000.0,
            gather_scale: 100.0,
            host_scale: 16.0,
            tt_scale: 450.0,
        }
    }

    /// Tesla T4 16 GB (AWS g4dn.12xlarge): PCIe 3.0 x8, no NVLink.
    pub fn t4() -> Self {
        Self {
            name: "T4-16GB",
            hbm_bytes: 16 * (1 << 30),
            pcie_bps: 6.0e9,
            p2p_bps: 6.0e9,
            kernel_launch_s: 5.0e-6,
            compute_scale: 80.0,
            gemm_scale: 400.0,
            gather_scale: 60.0,
            host_scale: 16.0,
            tt_scale: 180.0,
        }
    }

    /// A deliberately small device for tests (forces host placement).
    pub fn tiny(hbm_bytes: usize) -> Self {
        Self {
            name: "tiny",
            hbm_bytes,
            pcie_bps: 1.0e9,
            p2p_bps: 2.0e9,
            kernel_launch_s: 1.0e-5,
            compute_scale: 1.0,
            gemm_scale: 1.0,
            gather_scale: 1.0,
            host_scale: 1.0,
            tt_scale: 1.0,
        }
    }

    /// Whether a parameter set of `bytes` fits in HBM alongside a working
    /// margin (activations, optimizer state); the margin matches the ~20%
    /// reserve real frameworks keep.
    pub fn fits(&self, bytes: usize) -> bool {
        (bytes as f64) <= self.hbm_bytes as f64 * 0.8
    }
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

    /// Simulated wall time of the metered communication on `device`.
    pub fn simulated_time(&self, device: &DeviceSpec) -> Duration {
        let s = (self.h2d_bytes + self.d2h_bytes) as f64 / device.pcie_bps
            + self.p2p_bytes as f64 / device.p2p_bps
            + self.kernel_launches as f64 * device.kernel_launch_s;
        Duration::from_secs_f64(s)
    }

    /// Total bytes moved across any link.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes + self.p2p_bytes
    }
}

/// Bytes one worker moves for a ring all-reduce of `elements` f32 values
/// across `workers` participants (2·(W-1)/W·payload) — the gradient
/// exchange of the data-parallel configuration in the paper's Figs 12/13.
pub fn ring_allreduce_bytes(elements: usize, workers: usize) -> u64 {
    if workers <= 1 {
        return 0;
    }
    let payload = (elements * std::mem::size_of::<f32>()) as f64;
    (2.0 * (workers as f64 - 1.0) / workers as f64 * payload) as u64
}

/// Combines the three cost components — device compute (scaled by the
/// device's speedup), host compute (CPU speed, unscaled) and metered bus
/// traffic — into the simulated end-to-end time the framework benches
/// report.
pub fn simulated_total(
    device_compute: Duration,
    host_compute: Duration,
    meter: &CommMeter,
    device: &DeviceSpec,
) -> Duration {
    Duration::from_secs_f64(device_compute.as_secs_f64() / device.compute_scale)
        + Duration::from_secs_f64(host_compute.as_secs_f64() / device.host_scale)
        + meter.simulated_time(device)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_outranks_t4_on_bandwidth() {
        let v = DeviceSpec::v100();
        let t = DeviceSpec::t4();
        assert!(v.pcie_bps > t.pcie_bps);
        assert!(v.p2p_bps > t.p2p_bps);
    }

    #[test]
    fn fits_keeps_a_margin() {
        let d = DeviceSpec::tiny(1000);
        assert!(d.fits(800));
        assert!(!d.fits(801));
    }

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

    #[test]
    fn simulated_time_follows_bandwidth() {
        let mut m = CommMeter::new();
        m.h2d(12_000_000_000); // 12 GB over 12 GB/s = 1 s on V100
        let t = m.simulated_time(&DeviceSpec::v100());
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        // the same transfer takes twice as long over the T4's x8 link
        let t4 = m.simulated_time(&DeviceSpec::t4());
        assert!((t4.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ring_volume_formula() {
        assert_eq!(ring_allreduce_bytes(1000, 1), 0);
        let b4 = ring_allreduce_bytes(1000, 4);
        assert_eq!(b4, (2.0f64 * 3.0 / 4.0 * 4000.0) as u64);
    }

    #[test]
    fn kernel_launch_overhead_counts() {
        let mut m = CommMeter::new();
        m.launches(1_000_000);
        let t = m.simulated_time(&DeviceSpec::v100());
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
    }
}
