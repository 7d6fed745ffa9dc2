//! Property-based tests over the Eff-TT kernels: random table shapes,
//! random batches, every strategy combination — all must compute the same
//! function, and the plan invariants must hold for inputs the hand-written
//! tests never imagined.

#![cfg(test)]

use crate::bag::{TtEmbeddingBag, TtWorkspace};
use crate::config::{BackwardStrategy, ForwardStrategy, TtConfig, TtOptions};
use crate::plan::LookupPlan;
use el_tensor::Matrix;
use proptest::prelude::*;
use rand::SeedableRng;

/// A random small table configuration: order 2..=4, rows 6..=200, dim in
/// {4, 8, 16}.
fn arb_config() -> impl Strategy<Value = TtConfig> {
    (2usize..=4, 6usize..=200, prop_oneof![Just(4usize), Just(8), Just(16)], 2usize..=6)
        .prop_map(|(order, rows, dim, rank)| TtConfig::with_order(rows, dim, rank, order))
}

/// A random CSR batch over `rows` indices.
fn arb_batch(rows: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    proptest::collection::vec(0..rows as u32, 0..40).prop_flat_map(|indices| {
        let len = indices.len() as u32;
        proptest::collection::vec(0..=len, 0..6).prop_map(move |mut cuts| {
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            cuts.dedup();
            // offsets must start at 0 and end at len; interior cuts arbitrary
            (indices.clone(), cuts)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reuse and naive forward agree bit-for-bit on arbitrary shapes.
    #[test]
    fn forward_strategies_agree((config, seed) in arb_config().prop_flat_map(|c| {
        (Just(c), 0u64..1000)
    }), batch_seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reuse = TtEmbeddingBag::new(&config, &mut rng);
        let naive = TtEmbeddingBag::from_cores(reuse.cores().clone(), config.num_rows)
            .with_options(TtOptions { forward: ForwardStrategy::Naive, ..TtOptions::default() });

        let mut brng = rand::rngs::StdRng::seed_from_u64(batch_seed);
        use rand::Rng;
        let n = brng.gen_range(1..30usize);
        let indices: Vec<u32> =
            (0..n).map(|_| brng.gen_range(0..config.num_rows as u32)).collect();
        let cut = brng.gen_range(0..=n) as u32;
        let offsets = vec![0u32, cut, n as u32];

        let mut ws = TtWorkspace::new();
        let a = reuse.forward(&indices, &offsets, &mut ws);
        let b = naive.forward(&indices, &offsets, &mut ws);
        prop_assert!(a.max_abs_diff(&b) < 1e-4, "strategies diverged by {}", a.max_abs_diff(&b));
    }

    /// Forward output equals per-row reconstruction + pooling (the oracle).
    #[test]
    fn forward_matches_reconstruction_oracle(
        rows in 6usize..120,
        seed in 0u64..500,
        lookups in proptest::collection::vec(0usize..1_000_000, 1..20),
    ) {
        let config = TtConfig::new(rows, 8, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bag = TtEmbeddingBag::new(&config, &mut rng);
        let indices: Vec<u32> = lookups.iter().map(|&l| (l % rows) as u32).collect();
        let offsets = vec![0u32, indices.len() as u32];

        let mut ws = TtWorkspace::new();
        let got = bag.forward(&indices, &offsets, &mut ws);

        let mut want = vec![0.0f32; 8];
        let mut row = vec![0.0f32; 8];
        for &i in &indices {
            bag.reconstruct_row(i as usize, &mut row);
            for (w, r) in want.iter_mut().zip(&row) {
                *w += r;
            }
        }
        for (g, w) in got.row(0).iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    /// An inference session answers like the training forward, within
    /// 1e-5 of the output magnitude, on arbitrary shapes and batches.
    #[test]
    fn inference_session_matches_training_forward(
        (config, seed) in arb_config().prop_flat_map(|c| (Just(c), 0u64..1000)),
        (indices, offsets) in arb_batch(1_000_000),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = TtEmbeddingBag::new(&config, &mut rng);
        let indices: Vec<u32> =
            indices.iter().map(|&i| i % config.num_rows as u32).collect();

        let mut ws = TtWorkspace::new();
        let want = table.forward(&indices, &offsets, &mut ws);
        let scale = want.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        let mut session = crate::inference::TtInferenceSession::new(&table, 32);
        let got = session.lookup(&indices, &offsets);
        prop_assert!(
            got.max_abs_diff(&want) < 1e-5 * scale,
            "session diverged by {} (scale {scale})", got.max_abs_diff(&want)
        );
    }

    /// Aggregated and per-lookup backward produce matching gradients on
    /// arbitrary batches.
    #[test]
    fn backward_strategies_agree(
        rows in 6usize..80,
        seed in 0u64..300,
        lookups in proptest::collection::vec(0usize..1_000_000, 1..24),
    ) {
        let config = TtConfig::new(rows, 8, 3);
        let indices: Vec<u32> = lookups.iter().map(|&l| (l % rows) as u32).collect();
        let cut = (seed as usize) % (indices.len() + 1);
        let offsets = vec![0u32, cut as u32, indices.len() as u32];
        let mut grng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let d_out = Matrix::uniform(2, 8, 1.0, &mut grng);

        let grads_for = |backward: BackwardStrategy| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut bag = TtEmbeddingBag::new(&config, &mut rng).with_options(TtOptions {
                backward,
                fused_update: false,
                ..TtOptions::default()
            });
            let mut ws = TtWorkspace::new();
            let _ = bag.forward(&indices, &offsets, &mut ws);
            bag.backward_grads(&d_out, &mut ws);
            ws.grads().to_vec()
        };
        let agg = grads_for(BackwardStrategy::Aggregated);
        let per = grads_for(BackwardStrategy::PerLookup);
        for (a, p) in agg.iter().zip(&per) {
            for (x, y) in a.iter().zip(p) {
                prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
        }
    }

    /// The parallel plan builder is bit-identical to the sequential one on
    /// arbitrary shapes and index streams, for both dedup settings. Goes
    /// through `par_build_impl` so the size cutoff cannot mask divergence,
    /// and recycles one plan/scratch pair across cases so dirty-state reuse
    /// is part of the property.
    #[test]
    fn parallel_plan_build_is_bit_identical(
        (indices, offsets) in arb_batch(4000),
        dims in prop_oneof![
            Just(vec![8usize, 8, 8]),
            Just(vec![4usize, 8, 16]),
            Just(vec![16usize, 16]),
            Just(vec![4usize, 4, 4, 4]),
        ],
        dedup in proptest::bool::ANY,
    ) {
        let capacity: usize = dims.iter().product();
        let indices: Vec<u32> = indices.iter().map(|&i| i % capacity as u32).collect();

        let want = LookupPlan::build(&indices, &offsets, &dims, dedup);
        let mut got = LookupPlan::default();
        let mut scratch = crate::plan::PlanScratch::default();
        got.par_build_impl(&indices, &offsets, &dims, dedup, &mut scratch);
        crate::plan::assert_plans_identical(&want, &got);

        // and again into the now-dirty plan with the opposite dedup setting
        let want2 = LookupPlan::build(&indices, &offsets, &dims, !dedup);
        got.par_build_impl(&indices, &offsets, &dims, !dedup, &mut scratch);
        crate::plan::assert_plans_identical(&want2, &got);
    }

    /// Plan invariants hold for arbitrary batches: every lookup maps to a
    /// slot holding its value; parents chain consistently; digit groups
    /// partition each level.
    #[test]
    fn plan_invariants(
        (indices, offsets) in arb_batch(500),
        dedup in proptest::bool::ANY,
    ) {
        let dims = vec![8usize, 8, 8];
        let plan = LookupPlan::build(&indices, &offsets, &dims, dedup);
        let d = dims.len();
        prop_assert_eq!(plan.levels.len(), d);

        // lookups map to slots holding their value
        let last = &plan.levels[d - 1];
        for (j, &idx) in indices.iter().enumerate() {
            prop_assert_eq!(last.values[plan.lookup_slot[j] as usize], idx as u64);
        }
        // parent chaining: value/dims == parent value
        for t in (1..d).rev() {
            let lvl = &plan.levels[t];
            let prev = &plan.levels[t - 1];
            for (slot, &v) in lvl.values.iter().enumerate() {
                let parent = lvl.parent[slot] as usize;
                prop_assert_eq!(prev.values[parent], v / dims[t] as u64);
                prop_assert_eq!(u64::from(lvl.digit[slot]), v % dims[t] as u64);
            }
        }
        // digit groups partition
        for lvl in &plan.levels {
            let total: usize =
                (0..lvl.digit_groups.num_groups()).map(|g| lvl.digit_groups.group(g).len()).sum();
            prop_assert_eq!(total, lvl.len());
        }
        // dedup => strictly sorted values at every level
        if dedup {
            for lvl in &plan.levels {
                prop_assert!(lvl.values.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
