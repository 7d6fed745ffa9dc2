//! Trained-bytes oracle for the Eff-TT kernels.
//!
//! Order-3, dim-32 `TtEmbeddingBag`s at ranks 8, 16 and 32 — the shapes
//! every TT workload builds — train on Zipf-skewed batches with a fixed
//! synthetic output gradient, through `forward` + `backward_sgd` only (no
//! MLP, so nothing here depends on the packed-GEMM tier). The FNV-1a hash
//! of every pooled output and every final core must equal one constant
//! under the default options, `parallel_analysis: false` (the sequential
//! plan builder) and `fused_update: false`, in this process and in children
//! pinned to 1 and 4 pool threads. Any kernel change that moves a bit of a
//! TT chain fails here.

use common::XorShift;
use el_core::{TtConfig, TtEmbeddingBag, TtOptions, TtWorkspace};
use el_pipeline::ckpt::Fnv1a;
use el_tensor::Matrix;
use rand::SeedableRng;
use std::time::Duration;

mod common;

const ROWS: usize = 4096;
const DIM: usize = 32;
const RANKS: [usize; 3] = [8, 16, 32];
const STEPS: u64 = 6;
const SAMPLES: usize = 256;
const LOOKUPS_PER_SAMPLE: usize = 4;
const ZIPF_EXPONENT: f64 = 1.1;
const LR: f32 = 0.05;

/// The hash every run must reproduce.
const REFERENCE: u64 = 0x5938_b30c_adfa_4c83;

/// CSR batches of Zipf(1.1) rows; popularity rank `r` maps to row `r *
/// 2654435761 mod ROWS`, so the hot rows spread over every core digit.
fn batches() -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut cdf: Vec<f64> = (1..=ROWS).map(|r| (r as f64).powf(-ZIPF_EXPONENT)).collect();
    let mut acc = 0.0;
    for w in cdf.iter_mut() {
        acc += *w;
        *w = acc;
    }
    let mut rng = XorShift(0x005E_ED0F_7E11);
    (0..STEPS)
        .map(|_| {
            let indices: Vec<u32> = (0..SAMPLES * LOOKUPS_PER_SAMPLE)
                .map(|_| {
                    let target = rng.unit() * acc;
                    let rank = cdf.partition_point(|&c| c < target).min(ROWS - 1);
                    (rank as u64 * 2_654_435_761 % ROWS as u64) as u32
                })
                .collect();
            let offsets = (0..=SAMPLES).map(|s| (s * LOOKUPS_PER_SAMPLE) as u32).collect();
            (indices, offsets)
        })
        .collect()
}

/// The fixed synthetic gradient of the pooled outputs.
fn d_out(step: u64) -> Matrix {
    Matrix::from_fn(SAMPLES, DIM, |s, j| {
        ((s * 7 + j * 13 + step as usize * 5) % 23) as f32 / 23.0 - 0.5
    })
}

fn update(h: &mut Fnv1a, values: &[f32]) {
    for v in values {
        assert!(v.is_finite(), "training diverged");
        h.update(&v.to_le_bytes());
    }
}

fn trained_hash() -> u64 {
    let batches = batches();
    let option_sets = [
        TtOptions::default(),
        TtOptions { parallel_analysis: false, ..TtOptions::default() },
        TtOptions { fused_update: false, ..TtOptions::default() },
    ];
    let mut h = Fnv1a::new();
    for options in option_sets {
        for rank in RANKS {
            let mut rng = rand::rngs::StdRng::seed_from_u64(rank as u64);
            let mut bag = TtEmbeddingBag::new(&TtConfig::new(ROWS, DIM, rank), &mut rng)
                .with_options(options.clone());
            let mut ws = TtWorkspace::new();
            for (step, (indices, offsets)) in batches.iter().enumerate() {
                let out = bag.forward(indices, offsets, &mut ws);
                update(&mut h, out.as_slice());
                bag.backward_sgd(&d_out(step as u64), &mut ws, LR);
            }
            for core in &bag.cores().cores {
                update(&mut h, core);
            }
        }
    }
    h.finish()
}

#[test]
fn tt_training_bytes_match_reference() {
    let hash = trained_hash();
    assert_eq!(hash, REFERENCE, "TT training bytes moved: {hash:#018x}");
}

/// Re-runs the reference test with the pool pinned to 1 and 4 threads.
#[test]
fn tt_training_bytes_are_pool_size_invariant() {
    common::rerun_pinned("tt_training_bytes_match_reference", &[1, 4], Duration::from_secs(600));
}
