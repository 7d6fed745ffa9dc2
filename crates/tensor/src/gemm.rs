//! GEMM kernels.
//!
//! The Eff-TT forward/backward passes are sequences of small dense
//! matrix products, while the DLRM MLPs run a few large ones. The entry
//! points:
//!
//! * [`gemm_ref`] — textbook triple loop, the correctness oracle;
//! * [`gemm_nn`] — shape-dispatching sequential kernel: small products run
//!   the L1-friendly axpy loop ([`gemm_nn_axpy`]), large ones the packed
//!   register-blocked micro-kernel in [`crate::micro`];
//! * [`gemm`] — adds transpose flags; transposed operands are absorbed by
//!   the packing strides, never materialized;
//! * [`add_at_b`] / [`par_add_at_b`] — `C += Aᵀ·B`, the second banded
//!   across the pool (the MLP weight gradient).
//!
//! The MLPs band their forward and input-gradient products themselves,
//! one fork per direction over batch rows (`el_dlrm::mlp`); this module's
//! kernels are what each band calls.
//!
//! All kernels compute `C = alpha * op(A) * op(B) + beta * C` on row-major
//! slices, mirroring the BLAS `sgemm` contract closely enough that the
//! higher layers read like their CUDA counterparts. In particular `beta ==
//! 0` overwrites `C` (NaN-safe) and zero operand entries still propagate
//! NaN/Inf from the other operand — no value-dependent shortcuts.

use crate::matrix::Matrix;
use crate::micro::{self, Layout};
use rayon::prelude::*;

/// Transpose flag for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Reference GEMM: `C = alpha * op(A) * op(B) + beta * C`.
///
/// `a` is `m x k` after `ta`, `b` is `k x n` after `tb`, `c` is `m x n`.
/// Used as the oracle in tests and for tiny transposed shapes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ref(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(c.len(), m * n, "C must be m x n");
    match ta {
        Trans::No => assert_eq!(a.len(), m * k, "A must be m x k"),
        Trans::Yes => assert_eq!(a.len(), k * m, "A^T source must be k x m"),
    }
    match tb {
        Trans::No => assert_eq!(b.len(), k * n, "B must be k x n"),
        Trans::Yes => assert_eq!(b.len(), n * k, "B^T source must be n x k"),
    }
    let at = |i: usize, p: usize| match ta {
        Trans::No => a[i * k + p],
        Trans::Yes => a[p * m + i],
    };
    let bt = |p: usize, j: usize| match tb {
        Trans::No => b[p * n + j],
        Trans::Yes => b[j * k + p],
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += at(i, p) * bt(p, j);
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Panel width of the axpy kernel. 64 f32 = one cache line quadruple;
/// benchmarked as a good fit for the `n2*R2`-sized panels of TT slices.
const NB: usize = 64;
/// Depth blocking factor (along `k`) of the axpy kernel.
const KB: usize = 128;

/// `m*n*k` at which transposed operands switch from the reference loop to
/// the packed kernel. Much lower than [`micro::PACK_CUTOFF`]: the strided
/// reads of the reference loop are already painful at modest sizes, and
/// packing absorbs the transpose for free. Public so that callers that
/// band a product by rows can keep every band on the whole product's side.
pub const TRANS_PACK_CUTOFF: usize = 1 << 12;

/// Sequential GEMM on row-major, non-transposed operands:
/// `C = alpha * A * B + beta * C`.
///
/// Dispatches on problem volume: at or above [`micro::PACK_CUTOFF`] the
/// packed register-blocked kernel wins; below it the operands fit in L1
/// and [`gemm_nn_axpy`] avoids the packing latency (the TT-slice products
/// of the Eff-TT chain all land here).
// BLAS-style signature: callers read it like `sgemm`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    if m * n * k >= micro::PACK_CUTOFF {
        micro::gemm_packed(
            m,
            n,
            k,
            alpha,
            a,
            Layout::row_major(k),
            b,
            Layout::row_major(n),
            beta,
            c,
        );
    } else {
        gemm_nn_axpy(m, n, k, alpha, a, b, beta, c);
    }
}

/// Blocked axpy GEMM — the small-shape kernel (and the packed kernel's
/// benchmark baseline).
///
/// The loop order (i, p-block, j-block) streams rows of `B` from L1/L2 and
/// keeps a row of `C` hot, which is the standard layout-friendly ordering
/// for row-major data.
// BLAS-style signature: callers read it like `sgemm`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_axpy(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);

    if beta != 1.0 {
        if beta == 0.0 {
            c.fill(0.0);
        } else {
            for x in c.iter_mut() {
                *x *= beta;
            }
        }
    }

    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut p0 = 0;
        while p0 < k {
            let pb = KB.min(k - p0);
            let mut j0 = 0;
            while j0 < n {
                let jb = NB.min(n - j0);
                for (pp, &av) in a_row[p0..p0 + pb].iter().enumerate() {
                    let scaled = alpha * av;
                    let b_row = &b[(p0 + pp) * n + j0..(p0 + pp) * n + j0 + jb];
                    let c_blk = &mut c_row[j0..j0 + jb];
                    for (cv, &bv) in c_blk.iter_mut().zip(b_row) {
                        *cv += scaled * bv;
                    }
                }
                j0 += jb;
            }
            p0 += pb;
        }
    }
}

/// General GEMM with transpose flags.
///
/// The `Trans::No/No` case dispatches to [`gemm_nn`]. Transposed operands
/// are consumed in place: above `TRANS_PACK_CUTOFF` the packed kernel
/// absorbs the transpose into its packing strides, below it the reference
/// loop reads through the strides directly — neither path allocates.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    beta: f32,
    c: &mut [f32],
) {
    if ta == Trans::No && tb == Trans::No {
        return gemm_nn(m, n, k, alpha, a, b, beta, c);
    }
    match ta {
        Trans::No => assert_eq!(a.len(), m * k, "A must be m x k"),
        Trans::Yes => assert_eq!(a.len(), k * m, "A^T source must be k x m"),
    }
    match tb {
        Trans::No => assert_eq!(b.len(), k * n, "B must be k x n"),
        Trans::Yes => assert_eq!(b.len(), n * k, "B^T source must be n x k"),
    }
    if m * n * k >= TRANS_PACK_CUTOFF {
        let la = match ta {
            Trans::No => Layout::row_major(k),
            Trans::Yes => Layout::transposed(m),
        };
        let lb = match tb {
            Trans::No => Layout::row_major(n),
            Trans::Yes => Layout::transposed(k),
        };
        micro::gemm_packed(m, n, k, alpha, a, la, b, lb, beta, c);
    } else {
        gemm_ref(m, n, k, alpha, a, ta, b, tb, beta, c);
    }
}

/// Accumulates `C += A^T * B` without materializing the transpose.
///
/// `a` is `p x m` (so `A^T` is `m x p`), `b` is `p x n`, `c` is `m x n`.
/// Large products run the packed kernel (the transpose folds into the A
/// packing); small ones use a rank-1-update loop that streams rows of `a`
/// and `b`. This is the workhorse of the TT core-gradient pass where `A^T`
/// products dominate.
pub fn add_at_b(p: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), p * m);
    assert_eq!(b.len(), p * n);
    assert_eq!(c.len(), m * n);
    if p * m * n >= micro::PACK_CUTOFF {
        return micro::gemm_packed(
            m,
            n,
            p,
            1.0,
            a,
            Layout::transposed(m),
            b,
            Layout::row_major(n),
            1.0,
            c,
        );
    }
    for row in 0..p {
        let a_row = &a[row * m..(row + 1) * m];
        let b_row = &b[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// Row-parallel [`add_at_b`]: `C += A^T * B`, bit-identical to one
/// [`add_at_b`] call at every pool size.
///
/// The rows of `C` split into at most one band per pool thread, each band
/// carrying at least `PAR_BAND_FLOPS` multiply-adds, so smaller products
/// stay on one thread: a band would save less than the packed panel it
/// makes another thread keep. Used by the MLP weight gradient
/// (`dW += dy^T x`).
pub fn par_add_at_b(p: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let bands = (p * m * n / PAR_BAND_FLOPS).clamp(1, rayon::current_num_threads());
    add_at_b_bands(bands, p, m, n, a, b, c);
}

/// Work floor per band of [`par_add_at_b`] (multiply-adds).
const PAR_BAND_FLOPS: usize = 1 << 22;

/// [`add_at_b`] with the rows of `C` split into up to `bands` bands
/// across the pool.
///
/// At or above `PACK_CUTOFF` each band runs the packed kernel on its own
/// rows of `C`. That kernel computes an element of `C` from its row of `A^T`
/// and its column of `B` alone, with depth blocks that depend only on `p`,
/// so a band edge decides which thread computes an element, never how.
/// Below the cutoff the product stays on [`add_at_b`]'s rank-1 loop,
/// unbanded: banding must never move a product from one kernel's
/// arithmetic to the other's.
fn add_at_b_bands(bands: usize, p: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if bands <= 1 || p * m * n < micro::PACK_CUTOFF {
        return add_at_b(p, m, n, a, b, c);
    }
    assert_eq!(a.len(), p * m);
    assert_eq!(b.len(), p * n);
    assert_eq!(c.len(), m * n);
    let rows = m.div_ceil(bands).next_multiple_of(micro::MR);
    c.par_chunks_mut(rows * n).enumerate().for_each(|(band, c_band)| {
        // Rows r0.. of A^T are columns r0.. of `a`: the same transposed
        // layout, offset by r0.
        let r0 = band * rows;
        let (a_band, la, lb) = (&a[r0..], Layout::transposed(m), Layout::row_major(n));
        micro::gemm_packed(c_band.len() / n, n, p, 1.0, a_band, la, b, lb, 1.0, c_band);
    });
}

/// Accumulates `C += A * B^T` without materializing the transpose.
///
/// `a` is `m x k`, `b` is `n x k` (so `B^T` is `k x n`), `c` is `m x n`.
/// Large products run the packed kernel (the transpose folds into the B
/// packing); small ones compute entries of `C` as dot products of rows of
/// `a` and `b`, so both operands stream contiguously. Used by the backward
/// chain pass (`dP_{t-1} += dP_t * G_t^T`).
pub fn add_a_bt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    if m * n * k >= micro::PACK_CUTOFF {
        return micro::gemm_packed(
            m,
            n,
            k,
            1.0,
            a,
            Layout::row_major(k),
            b,
            Layout::transposed(k),
            1.0,
            c,
        );
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *cv += acc;
        }
    }
}

/// Matrix-level convenience wrapper: returns `A * B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_nn(a.rows(), b.cols(), a.cols(), 1.0, a.as_slice(), b.as_slice(), 0.0, c.as_mut_slice());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn blocked_matches_reference_on_odd_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // spans both sides of the packing cutoff (64^3 is above it)
        for &(m, n, k) in
            &[(1, 1, 1), (3, 5, 7), (17, 13, 9), (64, 64, 64), (65, 63, 130), (2, 200, 2)]
        {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c_ref = rand_vec(m * n, &mut rng);
            let mut c_blk = c_ref.clone();
            gemm_ref(m, n, k, 0.7, &a, Trans::No, &b, Trans::No, 0.3, &mut c_ref);
            gemm_nn(m, n, k, 0.7, &a, &b, 0.3, &mut c_blk);
            assert_close(&c_ref, &c_blk, 1e-5);
        }
    }

    #[test]
    fn axpy_matches_reference_on_odd_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (17, 13, 9), (64, 64, 64), (65, 63, 130)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c_ref = rand_vec(m * n, &mut rng);
            let mut c_axp = c_ref.clone();
            gemm_ref(m, n, k, 0.7, &a, Trans::No, &b, Trans::No, 0.3, &mut c_ref);
            gemm_nn_axpy(m, n, k, 0.7, &a, &b, 0.3, &mut c_axp);
            assert_close(&c_ref, &c_axp, 1e-5);
        }
    }

    #[test]
    fn transposed_variants_match_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // small shape exercises the strided reference path, large the
        // packed path
        for &(m, n, k) in &[(11, 7, 5), (40, 30, 20)] {
            for &(ta, tb) in
                &[(Trans::Yes, Trans::No), (Trans::No, Trans::Yes), (Trans::Yes, Trans::Yes)]
            {
                let a = rand_vec(m * k, &mut rng);
                let b = rand_vec(k * n, &mut rng);
                let mut c_ref = vec![0.0; m * n];
                let mut c_fast = vec![0.0; m * n];
                gemm_ref(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c_ref);
                gemm(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c_fast);
                assert_close(&c_ref, &c_fast, 1e-5);
            }
        }
    }

    #[test]
    fn banded_add_at_b_equals_one_unbanded_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // (p, m, n): two products under PACK_CUTOFF (the rank-1 loop), two
        // over it, one with m not a multiple of MR.
        for &(p, m, n) in &[(7, 5, 9), (40, 30, 20), (300, 64, 40), (200, 37, 50)] {
            let a = rand_vec(p * m, &mut rng);
            let b = rand_vec(p * n, &mut rng);
            let c0 = rand_vec(m * n, &mut rng);
            let mut want = c0.clone();
            if p * m * n >= micro::PACK_CUTOFF {
                let (la, lb) = (Layout::transposed(m), Layout::row_major(n));
                micro::gemm_packed(m, n, p, 1.0, &a, la, &b, lb, 1.0, &mut want);
            } else {
                add_at_b(p, m, n, &a, &b, &mut want);
            }
            for bands in [1, 2, 3, 7] {
                let mut got = c0.clone();
                add_at_b_bands(bands, p, m, n, &a, &b, &mut got);
                let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "({p}, {m}, {n}) at {bands} bands");
            }
            let mut got = c0.clone();
            par_add_at_b(p, m, n, &a, &b, &mut got);
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_poison() {
        // BLAS semantics: beta == 0 must overwrite C even if it holds NaN.
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![f32::NAN; 4];
        gemm_nn(2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn zero_operand_entries_propagate_nan_and_inf() {
        // Regression: the axpy kernel used to skip rank-1 updates whose A
        // entry scaled to zero, silently suppressing NaN/Inf from B.
        // IEEE-754: 0 * NaN = NaN and 0 * Inf = NaN, and BLAS performs the
        // multiplication.
        let a = vec![0.0f32];
        let b = vec![f32::NAN];
        let mut c = vec![1.0f32];
        gemm_nn_axpy(1, 1, 1, 1.0, &a, &b, 1.0, &mut c);
        assert!(c[0].is_nan(), "0 * NaN must poison C, got {}", c[0]);

        let b = vec![f32::INFINITY];
        let mut c = vec![1.0f32];
        gemm_nn_axpy(1, 1, 1, 1.0, &a, &b, 1.0, &mut c);
        assert!(c[0].is_nan(), "0 * Inf must poison C, got {}", c[0]);

        // same contract for the fused accumulators
        let mut c = vec![1.0f32];
        add_at_b(1, 1, 1, &a, &b, &mut c);
        assert!(c[0].is_nan(), "add_at_b must not skip zero A entries");
    }

    #[test]
    fn add_at_b_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // small -> rank-1 loop; large -> packed kernel
        for &(p, m, n) in &[(7, 5, 9), (64, 48, 64)] {
            let a = rand_vec(p * m, &mut rng);
            let b = rand_vec(p * n, &mut rng);
            let mut c_fast = rand_vec(m * n, &mut rng);
            let mut c_ref = c_fast.clone();
            add_at_b(p, m, n, &a, &b, &mut c_fast);
            gemm_ref(m, n, p, 1.0, &a, Trans::Yes, &b, Trans::No, 1.0, &mut c_ref);
            assert_close(&c_ref, &c_fast, 1e-4);
        }
    }

    #[test]
    fn add_a_bt_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // small -> dot loop; large -> packed kernel
        for &(m, n, k) in &[(6, 8, 5), (48, 64, 64)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut c_fast = rand_vec(m * n, &mut rng);
            let mut c_ref = c_fast.clone();
            add_a_bt(m, n, k, &a, &b, &mut c_fast);
            gemm_ref(m, n, k, 1.0, &a, Trans::No, &b, Trans::Yes, 1.0, &mut c_ref);
            assert_close(&c_ref, &c_fast, 1e-4);
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Matrix::uniform(6, 6, 1.0, &mut rng);
        let i = Matrix::identity(6);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}
