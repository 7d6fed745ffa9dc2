//! Cross-crate equivalence: the Eff-TT table against the dense
//! `EmbeddingBag` reference, through the TT-SVD bridge.
//!
//! A dense table is decomposed with TT-SVD at full rank, wrapped in an
//! Eff-TT bag, and must then produce the same pooled embeddings as the
//! dense bag on arbitrary batches — the strongest statement that the
//! compressed representation and its optimized kernels compute the same
//! function.

use el_rec::core::{BackwardStrategy, ForwardStrategy, TtEmbeddingBag, TtOptions, TtWorkspace};
use el_rec::dlrm::EmbeddingBag;
use el_rec::tensor::shape::{balanced_factorization, factorize};
use el_rec::tensor::tt::TtCores;
use proptest::prelude::*;
use rand::SeedableRng;

fn build_pair(rows: usize, dim: usize, seed: u64) -> (EmbeddingBag, TtEmbeddingBag) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dense = EmbeddingBag::new(rows, dim, 0.5, &mut rng);
    let row_dims = balanced_factorization(rows, 3);
    let col_dims = factorize(dim, 3);
    // Full-rank TT-SVD: exact representation.
    let cores = TtCores::from_dense(&dense.weight, row_dims, col_dims, 512);
    let tt = TtEmbeddingBag::from_cores(cores, rows);
    (dense, tt)
}

#[test]
fn tt_svd_bridge_preserves_pooled_lookups() {
    let (dense, tt) = build_pair(48, 8, 1);
    let mut ws = TtWorkspace::new();
    let indices = [0u32, 47, 13, 13, 7, 22];
    let offsets = [0u32, 3, 3, 6];
    let want = dense.forward(&indices, &offsets);
    let got = tt.forward(&indices, &offsets, &mut ws);
    assert!(got.max_abs_diff(&want) < 1e-3, "TT-SVD bridge mismatch: {}", got.max_abs_diff(&want));
}

#[test]
fn all_kernel_variants_agree_on_the_bridge() {
    let (dense, tt) = build_pair(36, 8, 2);
    let indices = [1u32, 35, 1, 20, 20, 20];
    let offsets = [0u32, 2, 6];
    let want = dense.forward(&indices, &offsets);
    for forward in [ForwardStrategy::Naive, ForwardStrategy::Reuse] {
        let mut tt = TtEmbeddingBag::from_cores(tt.cores().clone(), 36)
            .with_options(TtOptions { forward, ..TtOptions::default() });
        let mut ws = TtWorkspace::new();
        let got = tt.forward(&indices, &offsets, &mut ws);
        assert!(got.max_abs_diff(&want) < 1e-3, "{forward:?} diverged");
        let _ = &mut tt;
    }
}

#[test]
fn gradient_updates_match_between_strategy_pairs() {
    // Same initial cores, same batches, different kernel strategies:
    // parameters must evolve identically (within float tolerance).
    let (_, reference) = build_pair(30, 8, 3);
    let indices: Vec<u32> = (0..40).map(|i| (i * 7) % 30).collect();
    let offsets: Vec<u32> = (0..=8).map(|s| s * 5).collect();

    let run = |options: TtOptions| {
        let mut tt =
            TtEmbeddingBag::from_cores(reference.cores().clone(), 30).with_options(options);
        let mut ws = TtWorkspace::new();
        for _ in 0..5 {
            let out = tt.forward(&indices, &offsets, &mut ws);
            tt.backward_sgd(&out, &mut ws, 0.02);
        }
        tt.cores().cores.clone()
    };

    let eff = run(TtOptions::default());
    let ttrec = run(TtOptions::tt_rec_baseline());
    let mixed = run(TtOptions {
        forward: ForwardStrategy::Reuse,
        backward: BackwardStrategy::PerLookup,
        fused_update: false,
        parallel_analysis: true,
    });
    for (a, b) in eff.iter().zip(&ttrec) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-3, "Eff-TT vs TT-Rec drifted: {x} vs {y}");
        }
    }
    for (a, b) in eff.iter().zip(&mixed) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-3, "mixed strategy drifted: {x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes, random batches: TT(full-rank SVD of dense) == dense.
    #[test]
    fn prop_bridge_equivalence(
        rows in 8usize..60,
        seed in 0u64..1000,
        lookups in proptest::collection::vec(0usize..1_000_000, 1..24),
    ) {
        let (dense, tt) = build_pair(rows, 8, seed);
        let indices: Vec<u32> = lookups.iter().map(|&l| (l % rows) as u32).collect();
        // split into two samples at an arbitrary point
        let cut = (seed as usize) % (indices.len() + 1);
        let offsets = vec![0u32, cut as u32, indices.len() as u32];
        let mut ws = TtWorkspace::new();
        let want = dense.forward(&indices, &offsets);
        let got = tt.forward(&indices, &offsets, &mut ws);
        prop_assert!(got.max_abs_diff(&want) < 5e-3,
            "mismatch {} at rows={rows}", got.max_abs_diff(&want));
    }
}
