//! Property-based equivalence tests for every GEMM entry point against the
//! `gemm_ref` oracle: arbitrary shapes straddling the packed-kernel
//! cutoffs, degenerate dimensions (0 and 1), every transpose combination,
//! arbitrary alpha/beta, and batched launches with shared-A runs.

use el_tensor::batched::{batched_gemm, batched_gemm_seq, GemmBatch};
use el_tensor::gemm::{add_a_bt, add_at_b, gemm, gemm_nn, gemm_ref, Trans};
use el_tensor::micro::{self, gemm_packed, Kernel, Layout, MR, NR};
use proptest::prelude::*;

/// Deterministic pseudo-random fill so failures reproduce exactly.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Max |x| of the reference result, for relative tolerances.
fn tol(c: &[f32], k: usize) -> f32 {
    let scale = c.iter().fold(0.0f32, |m, &x| m.max(x.abs())).max(1.0);
    // f32 accumulation error grows with the reduction depth.
    scale * 1e-5 * (k.max(1) as f32).sqrt()
}

/// Shapes that probe tile remainders (around MR/NR), degenerate dims, and
/// both sides of the packed cutoffs.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..=8,
        Just(MR - 1),
        Just(MR),
        Just(MR + 1),
        Just(NR - 1),
        Just(NR),
        Just(NR + 1),
        17usize..=64,
        Just(96usize),
        Just(130usize),
    ]
}

fn arb_trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `gemm` agrees with `gemm_ref` for every transpose combination and
    /// arbitrary alpha/beta on shapes below and above the packed cutoffs.
    #[test]
    fn gemm_matches_reference(
        (m, n, k) in (arb_dim(), arb_dim(), arb_dim()),
        (ta, tb) in (arb_trans(), arb_trans()),
        alpha in prop_oneof![Just(0.0f32), Just(1.0), Just(-0.5), Just(2.25)],
        beta in prop_oneof![Just(0.0f32), Just(1.0), Just(-1.5)],
        seed in 0u64..1000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xB0B, k * n);
        let c0 = fill(seed ^ 0xC0C, m * n);

        let mut want = c0.clone();
        gemm_ref(m, n, k, alpha, &a, ta, &b, tb, beta, &mut want);
        let mut got = c0.clone();
        gemm(m, n, k, alpha, &a, ta, &b, tb, beta, &mut got);

        let t = tol(&want, k);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= t, "{g} vs {w} (tol {t})");
        }
    }

    /// `gemm_packed` with explicit strided layouts matches the reference
    /// for all four layout combinations.
    #[test]
    fn packed_layouts_match_reference(
        (m, n, k) in (arb_dim(), arb_dim(), arb_dim()),
        (ta, tb) in (proptest::bool::ANY, proptest::bool::ANY),
        beta in prop_oneof![Just(0.0f32), Just(1.0)],
        seed in 0u64..1000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xE5E, k * n);
        let c0 = fill(seed ^ 0xF5F, m * n);

        let la = if ta { Layout::transposed(m) } else { Layout::row_major(k) };
        let lb = if tb { Layout::transposed(k) } else { Layout::row_major(n) };
        let mut want = c0.clone();
        gemm_ref(
            m, n, k, 1.0,
            &a, if ta { Trans::Yes } else { Trans::No },
            &b, if tb { Trans::Yes } else { Trans::No },
            beta, &mut want,
        );
        let mut got = c0.clone();
        gemm_packed(m, n, k, 1.0, &a, la, &b, lb, beta, &mut got);

        let t = tol(&want, k);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= t, "{g} vs {w} (tol {t})");
        }
    }

    /// The axpy path and the packed path compute the same NN product.
    #[test]
    fn nn_entry_points_agree(
        (m, n, k) in (arb_dim(), arb_dim(), arb_dim()),
        seed in 0u64..1000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABC, k * n);

        let mut want = vec![0.0f32; m * n];
        gemm_ref(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut want);

        let t = tol(&want, k);
        let mut nn = vec![0.0f32; m * n];
        gemm_nn(m, n, k, 1.0, &a, &b, 0.0, &mut nn);
        for i in 0..want.len() {
            prop_assert!((nn[i] - want[i]).abs() <= t);
        }
    }

    /// The gradient accumulators match reference accumulation.
    #[test]
    fn gradient_accumulators_match_reference(
        (p, m, n) in (arb_dim(), arb_dim(), arb_dim()),
        seed in 0u64..1000,
    ) {
        let a = fill(seed, p * m);
        let b = fill(seed ^ 0x123, p * n);
        let c0 = fill(seed ^ 0x456, m * n);

        // add_at_b: C += A^T B with A (p x m), B (p x n)
        let mut want = c0.clone();
        gemm_ref(m, n, p, 1.0, &a, Trans::Yes, &b, Trans::No, 1.0, &mut want);
        let mut got = c0.clone();
        add_at_b(p, m, n, &a, &b, &mut got);
        let t = tol(&want, p);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= t, "add_at_b: {g} vs {w}");
        }

        // add_a_bt: C += A B^T with A (m x p), B (n x p)
        let a2 = fill(seed ^ 0x789, m * p);
        let b2 = fill(seed ^ 0xDEF, n * p);
        let mut want2 = c0.clone();
        gemm_ref(m, n, p, 1.0, &a2, Trans::No, &b2, Trans::Yes, 1.0, &mut want2);
        let mut got2 = c0.clone();
        add_a_bt(m, n, p, &a2, &b2, &mut got2);
        for (g, w) in got2.iter().zip(&want2) {
            prop_assert!((g - w).abs() <= t, "add_a_bt: {g} vs {w}");
        }
    }

    /// Batched launches with runs of tasks sharing one A block (the
    /// shared-A packing fast path) match the sequential oracle.
    #[test]
    fn batched_shared_a_matches_sequential(
        (m, n, k) in (
            prop_oneof![Just(1usize), Just(4), Just(32)],
            prop_oneof![Just(16usize), Just(64), Just(128)],
            prop_oneof![Just(8usize), Just(32), Just(64)],
        ),
        run_lens in proptest::collection::vec(1usize..6, 1..8),
        seed in 0u64..1000,
    ) {
        let num_a = run_lens.len();
        let tasks: usize = run_lens.iter().sum();
        let a_arena = fill(seed, num_a * m * k);
        let b_arena = fill(seed ^ 0x333, tasks * k * n);

        let mut batch = GemmBatch::new(m, n, k);
        let mut slot = 0usize;
        for (ai, &len) in run_lens.iter().enumerate() {
            for _ in 0..len {
                batch.push(ai * m * k, slot * k * n, slot * m * n);
                slot += 1;
            }
        }

        let mut want = vec![0.0f32; tasks * m * n];
        batched_gemm_seq(&batch, &a_arena, &b_arena, &mut want);
        let mut got = vec![0.0f32; tasks * m * n];
        batched_gemm(&batch, &a_arena, &b_arena, &mut got);

        let t = tol(&want, k);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= t, "{g} vs {w}");
        }
    }

    /// Every supported micro-kernel variant agrees with the portable
    /// reference within a per-accumulation-step f32 ulp bound, on tail
    /// shapes that exercise partial MR x NR tiles and depth remainders.
    /// Runs the portable baseline first so the property also holds under
    /// `EL_KERNEL=portable` / Miri (where only Portable is exercised).
    #[test]
    fn kernel_variants_agree_with_portable(
        m in arb_dim(),
        n in arb_dim(),
        k in arb_dim(),
        seed in 0u64..1000,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xABCD, k * n);

        micro::set_kernel(Some(Kernel::Portable));
        let mut want = vec![0.0f32; m * n];
        gemm_packed(m, n, k, 1.0, &a, Layout::row_major(k), &b, Layout::row_major(n), 0.0, &mut want);

        for kernel in Kernel::ALL {
            if !kernel.supported() {
                continue;
            }
            micro::set_kernel(Some(kernel));
            let mut got = vec![0.0f32; m * n];
            gemm_packed(m, n, k, 1.0, &a, Layout::row_major(k), &b, Layout::row_major(n), 0.0, &mut got);
            micro::set_kernel(None);
            // One f32 rounding step per accumulation: |err| <= eps * (k+1)
            // * (sum |a_ip * b_pj| + 1), the same bound the unit suite
            // enforces per kernel.
            for i in 0..m {
                for j in 0..n {
                    let mut mag = 1.0f32;
                    for p in 0..k {
                        mag += (a[i * k + p] * b[p * n + j]).abs();
                    }
                    let bound = f32::EPSILON * (k as f32 + 1.0) * mag;
                    let diff = (got[i * n + j] - want[i * n + j]).abs();
                    prop_assert!(
                        diff <= bound,
                        "{}: c[{i},{j}] diverged by {diff} (bound {bound})",
                        kernel.name()
                    );
                }
            }
        }
        micro::set_kernel(None);
    }
}
