//! Simulated training devices: how measured CPU time becomes GPU time.
//!
//! The paper evaluates on AWS p3.8xlarge (4x V100, PCIe 3.0) and
//! g4dn.12xlarge (4x T4). This machine has no GPU, so — per the
//! substitution rule in DESIGN.md — framework comparisons run their math on
//! the CPU, split the measured time into kernel classes ([`DeviceWork`])
//! and divide each class by that class's speedup on the device
//! ([`DeviceSpec`]). Every byte that would cross PCIe/NVLink is metered and
//! converted to time with the device's bandwidths. Every figure goes
//! through [`DeviceSpec::time`] (or its two halves), so every figure
//! charges a kernel class at the same scale.

use el_data::MiniBatch;
use el_dlrm::{DlrmModel, EmbeddingLayer};
use el_pipeline::CommMeter;
use std::time::{Duration, Instant};

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
    /// Speedup for GEMM-class device kernels (MLPs, interaction): GPUs run
    /// large dense math near peak. A V100 sustains ~10 TFLOP/s on
    /// DLRM-sized GEMMs versus ~10 GFLOP/s for one Xeon core.
    pub gemm_scale: f64,
    /// Speedup for TT-chain kernels (many small batched GEMMs): lower GPU
    /// efficiency than large MLP GEMMs. Calibrated so the simulated
    /// TT-vs-dense lookup ratio reproduces the published GPU measurements
    /// (TT-Rec's lookup is ~2.3x a dense `EmbeddingBag` lookup).
    pub tt_scale: f64,
    /// Speedup for memory-bound gather/scatter kernels (dense embedding
    /// lookup/update): bounded by HBM vs host-cache bandwidth, well below
    /// `gemm_scale`.
    pub gather_scale: f64,
    /// Parallel speedup of the *host* CPU over the measuring single core
    /// (the paper's parameter server runs on a full multi-core Xeon).
    pub host_scale: f64,
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
            gemm_scale: 1000.0,
            tt_scale: 450.0,
            gather_scale: 100.0,
            host_scale: 16.0,
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
            gemm_scale: 400.0,
            tt_scale: 180.0,
            gather_scale: 60.0,
            host_scale: 16.0,
        }
    }

    /// Whether a parameter set of `bytes` fits in HBM alongside a working
    /// margin (activations, optimizer state); the margin matches the ~20%
    /// reserve real frameworks keep.
    pub fn fits(&self, bytes: usize) -> bool {
        (bytes as f64) <= self.hbm_bytes as f64 * 0.8
    }

    /// Seconds the device spends on `work`'s three device classes, each
    /// divided by its own speedup.
    pub fn device_secs(&self, work: &DeviceWork) -> f64 {
        work.gemm.as_secs_f64() / self.gemm_scale
            + work.tt.as_secs_f64() / self.tt_scale
            + work.gather.as_secs_f64() / self.gather_scale
    }

    /// Seconds the host side spends on `work`: host compute on the
    /// multi-core parameter server, plus the metered bus traffic.
    pub fn host_secs(&self, work: &DeviceWork) -> f64 {
        let bus = &work.bus;
        work.host.as_secs_f64() / self.host_scale
            + (bus.h2d_bytes + bus.d2h_bytes) as f64 / self.pcie_bps
            + bus.p2p_bytes as f64 / self.p2p_bps
    }

    /// Simulated end-to-end seconds of `work` done over `batches` batches.
    /// Sequential runs pay the host and the device one after the other;
    /// pipelined runs hide the shorter side behind the longer one, except
    /// for one batch of pipeline fill.
    pub fn time(&self, work: &DeviceWork, batches: u64, pipelined: bool) -> f64 {
        let (device, host) = (self.device_secs(work), self.host_secs(work));
        if pipelined {
            device.max(host) + device.min(host) / batches as f64
        } else {
            device + host
        }
    }
}

/// Measured work of one run, split into the kernel classes the device
/// model scales differently.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceWork {
    /// GEMM-class device compute: MLPs, interaction, and whatever else of
    /// the device wall is neither a TT chain nor a gather.
    pub gemm: Duration,
    /// TT-chain device compute (Eff-TT or TT-Rec lookups and updates).
    pub tt: Duration,
    /// Memory-bound device compute: dense embedding gathers and updates.
    pub gather: Duration,
    /// Host compute: parameter-server gathers and updates.
    pub host: Duration,
    /// Bus traffic the strategy generates.
    pub bus: CommMeter,
}

impl DeviceWork {
    /// Splits `device_wall`, the measured device compute of `batches`
    /// batches, into kernel classes. Each `Dense` and `Tt` table's forward
    /// is timed on `probe`, doubled for the backward and extrapolated to
    /// `batches`. TT time is clamped to the measured wall, gather time to
    /// what remains, and GEMM takes the rest, so the three classes always
    /// sum to `device_wall`. `Hosted` tables run on the host and are not
    /// probed.
    pub fn split(
        model: &mut DlrmModel,
        probe: &MiniBatch,
        device_wall: Duration,
        batches: u64,
    ) -> Self {
        let (mut tt, mut gather) = (Duration::ZERO, Duration::ZERO);
        for (table, field) in model.tables.iter_mut().zip(&probe.fields) {
            // TIMING: the kernel-class probe the whole device model rests on.
            let t0 = Instant::now();
            match table {
                EmbeddingLayer::Dense(bag) => {
                    std::hint::black_box(bag.forward(&field.indices, &field.offsets));
                    gather += t0.elapsed();
                }
                EmbeddingLayer::Tt(bag, ws) => {
                    std::hint::black_box(bag.forward(&field.indices, &field.offsets, ws));
                    tt += t0.elapsed();
                }
                EmbeddingLayer::Hosted { .. } => {}
            }
        }
        let per_run = |probed: Duration| probed.mul_f64(2.0 * batches as f64);
        let tt = per_run(tt).min(device_wall);
        let gather = per_run(gather).min(device_wall - tt);
        Self { gemm: device_wall - tt - gather, tt, gather, ..Self::default() }
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

#[cfg(test)]
mod tests {
    use super::*;
    use el_data::{DatasetSpec, SyntheticDataset};
    use el_dlrm::DlrmConfig;
    use rand::SeedableRng;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn v100_outranks_t4_on_bandwidth() {
        let v = DeviceSpec::v100();
        let t = DeviceSpec::t4();
        assert!(v.pcie_bps > t.pcie_bps);
        assert!(v.p2p_bps > t.p2p_bps);
    }

    #[test]
    fn fits_keeps_a_margin() {
        // 80 % of 16 GiB is 13 743 895 347.2 bytes
        let d = DeviceSpec::v100();
        assert!(d.fits(13_743_895_347));
        assert!(!d.fits(13_743_895_348));
    }

    #[test]
    fn each_class_divides_by_its_own_scale() {
        let d = DeviceSpec::v100();
        let one = |w: DeviceWork| (d.device_secs(&w), d.host_secs(&w));
        let base = DeviceWork::default();
        assert_eq!(one(DeviceWork { gemm: secs(1.0), ..base }), (1.0 / d.gemm_scale, 0.0));
        assert_eq!(one(DeviceWork { tt: secs(1.0), ..base }), (1.0 / d.tt_scale, 0.0));
        assert_eq!(one(DeviceWork { gather: secs(1.0), ..base }), (1.0 / d.gather_scale, 0.0));
        assert_eq!(one(DeviceWork { host: secs(1.0), ..base }), (0.0, 1.0 / d.host_scale));
    }

    #[test]
    fn pipelining_hides_the_shorter_side() {
        let d = DeviceSpec::v100();
        // 2 s of device time against 1 s of host time
        let w = DeviceWork {
            gemm: secs(2.0 * d.gemm_scale),
            host: secs(d.host_scale),
            ..DeviceWork::default()
        };
        assert!(close(d.time(&w, 8, false), 3.0));
        assert!(close(d.time(&w, 8, true), 2.0 + 1.0 / 8.0));
        // the same rule when the host is the longer side
        let w = DeviceWork { host: secs(4.0 * d.host_scale), ..w };
        assert!(close(d.time(&w, 4, true), 4.0 + 2.0 / 4.0));
    }

    #[test]
    fn bus_time_follows_bandwidth() {
        let mut w = DeviceWork::default();
        w.bus.h2d(12_000_000_000); // 12 GB over 12 GB/s = 1 s on V100
        assert!(close(DeviceSpec::v100().host_secs(&w), 1.0));
        // the same transfer takes twice as long over the T4's x8 link
        assert!(close(DeviceSpec::t4().host_secs(&w), 2.0));
    }

    #[test]
    fn ring_volume_formula() {
        assert_eq!(ring_allreduce_bytes(1000, 1), 0);
        let b4 = ring_allreduce_bytes(1000, 4);
        assert_eq!(b4, (2.0f64 * 3.0 / 4.0 * 4000.0) as u64);
    }

    fn model_and_probe(tt_threshold: usize) -> (DlrmModel, MiniBatch) {
        let ds = SyntheticDataset::new(DatasetSpec::toy(3, 2000, 1_000_000), 42);
        let cfg = DlrmConfig::for_spec(ds.spec(), 8, tt_threshold, 4);
        let model = DlrmModel::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(1));
        (model, ds.batch(0, 64))
    }

    #[test]
    fn split_conserves_the_measured_wall() {
        let (mut model, probe) = model_and_probe(1000);
        for wall in [Duration::ZERO, Duration::from_nanos(1), secs(0.5), secs(1e3)] {
            let w = DeviceWork::split(&mut model, &probe, wall, 6);
            assert_eq!(w.gemm + w.tt + w.gather, wall);
            assert_eq!((w.host, w.bus.total_bytes()), (Duration::ZERO, 0));
        }
    }

    #[test]
    fn a_model_without_tt_tables_has_no_tt_time() {
        let (mut model, probe) = model_and_probe(usize::MAX);
        let w = DeviceWork::split(&mut model, &probe, secs(1e3), 6);
        assert_eq!(w.tt, Duration::ZERO);
    }
}
