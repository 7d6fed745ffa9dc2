//! Trained-bytes oracle for a whole DLRM train step.
//!
//! A model mixing dense tables with order-3, dim-32 Eff-TT tables trains
//! through `DlrmModel::train_step` on multi-hot Zipf batches (bags of 0 to
//! 4 lookups), once under SGD and once under Adagrad. The FNV-1a hash of
//! every step's loss bits, every final parameter (MLP weights and biases,
//! dense tables, TT cores) and one `predict` output must equal one
//! constant, in this process and in children pinned to 1 and 4 pool
//! threads. The embedding stage runs its tables across the pool and the
//! dense half bands its work by the pool size, so any schedule-dependent
//! byte in the step fails here.
//!
//! The MLPs run the packed GEMM, whose micro-kernel tier (`EL_KERNEL`)
//! decides whether a multiply-add rounds once or twice: the fused tiers
//! share one constant, the portable tier has its own.

use common::XorShift;
use el_data::{MiniBatch, SparseField};
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer, OptimizerKind};
use el_pipeline::ckpt::Fnv1a;
use rand::SeedableRng;
use std::time::Duration;

mod common;

/// Tables of at least `TT_THRESHOLD` rows are TT-compressed: three TT and
/// four dense tables, interleaved so every pool part gets both kinds.
const CARDINALITIES: [usize; 7] = [4096, 60, 1500, 300, 7, 2048, 900];
const TT_THRESHOLD: usize = 1000;
const DIM: usize = 32;
const NUM_DENSE: usize = 4;
const SAMPLES: usize = 256;
const MAX_BAG: usize = 4;
const STEPS: u64 = 5;
const ZIPF_EXPONENT: f64 = 1.1;

/// The hash every run must reproduce under a fused multiply-add tier
/// (`avx2`) ...
const REFERENCE_FUSED: u64 = 0x7de8_39b2_d474_f93d;
/// ... and under the `portable` tier.
const REFERENCE_PORTABLE: u64 = 0xee9a_72e5_b4d3_3a43;

/// One Zipf(1.1) sampler per table; popularity rank `r` maps to row `r *
/// 2654435761 mod rows`, so the hot rows spread over the table.
struct Zipf {
    rows: usize,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(rows: usize) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=rows)
            .map(|r| {
                acc += (r as f64).powf(-ZIPF_EXPONENT);
                acc
            })
            .collect();
        Self { rows, cdf }
    }

    fn draw(&self, rng: &mut XorShift) -> u32 {
        let target = rng.unit() * self.cdf[self.rows - 1];
        let rank = self.cdf.partition_point(|&c| c < target).min(self.rows - 1);
        (rank as u64 * 2_654_435_761 % self.rows as u64) as u32
    }
}

fn batch(rng: &mut XorShift, zipfs: &[Zipf]) -> MiniBatch {
    let dense = (0..SAMPLES * NUM_DENSE).map(|_| rng.unit() as f32).collect();
    let fields = zipfs
        .iter()
        .map(|zipf| {
            let mut field = SparseField::with_capacity(SAMPLES, SAMPLES * MAX_BAG);
            let mut bag = Vec::with_capacity(MAX_BAG);
            for _ in 0..SAMPLES {
                bag.clear();
                let len = (rng.unit() * (MAX_BAG + 1) as f64) as usize;
                bag.extend((0..len).map(|_| zipf.draw(rng)));
                field.push_sample(&bag);
            }
            field
        })
        .collect();
    let labels = (0..SAMPLES).map(|_| if rng.unit() < 0.3 { 1.0 } else { 0.0 }).collect();
    MiniBatch { dense, num_dense: NUM_DENSE, fields, labels }
}

fn update(h: &mut Fnv1a, values: &[f32]) {
    for v in values {
        assert!(v.is_finite(), "training diverged");
        h.update(&v.to_le_bytes());
    }
}

fn trained_hash() -> u64 {
    let zipfs: Vec<Zipf> = CARDINALITIES.iter().map(|&rows| Zipf::new(rows)).collect();
    let mut rng = XorShift(0x00D1_5EED_B17E);
    let batches: Vec<MiniBatch> = (0..STEPS).map(|_| batch(&mut rng, &zipfs)).collect();
    let held_out = batch(&mut rng, &zipfs);

    let mut h = Fnv1a::new();
    for optimizer in [OptimizerKind::Sgd, OptimizerKind::Adagrad { eps: 1e-8 }] {
        let config = DlrmConfig {
            num_dense: NUM_DENSE,
            table_cardinalities: CARDINALITIES.to_vec(),
            dim: DIM,
            bottom_hidden: vec![32, 16],
            top_hidden: vec![32],
            tt_threshold: TT_THRESHOLD,
            tt_rank: 16,
            lr: 0.05,
            optimizer,
        };
        let mut model = DlrmModel::new(&config, &mut rand::rngs::StdRng::seed_from_u64(7));
        for b in &batches {
            let loss = model.train_step(b);
            h.update(&loss.to_bits().to_le_bytes());
        }
        for layer in model.bottom.layers.iter().chain(&model.top.layers) {
            update(&mut h, layer.weight.as_slice());
            update(&mut h, &layer.bias);
        }
        for table in &model.tables {
            match table {
                EmbeddingLayer::Dense(bag) => update(&mut h, bag.weight.as_slice()),
                EmbeddingLayer::Tt(bag, _) => {
                    for core in &bag.cores().cores {
                        update(&mut h, core);
                    }
                }
                _ => unreachable!("the model builds dense and TT tables only"),
            }
        }
        update(&mut h, &model.predict(&held_out));
    }
    h.finish()
}

#[test]
fn dlrm_training_bytes_match_reference() {
    let hash = trained_hash();
    let kernel = el_tensor::micro::active_kernel();
    let reference = if kernel == "portable" { REFERENCE_PORTABLE } else { REFERENCE_FUSED };
    assert_eq!(hash, reference, "DLRM training bytes moved under {kernel}: {hash:#018x}");
}

/// Re-runs the reference test with the pool pinned to 1 and 4 threads.
#[test]
fn dlrm_training_bytes_are_pool_size_invariant() {
    common::rerun_pinned("dlrm_training_bytes_match_reference", &[1, 4], Duration::from_secs(600));
}
