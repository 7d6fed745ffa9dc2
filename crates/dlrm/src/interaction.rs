//! Pairwise dot-product feature interaction (paper Figure 2).
//!
//! DLRM concatenates the bottom-MLP output with all embedding vectors into
//! `F` features of dimension `d` per sample, computes the dot products of
//! every unordered feature pair, and concatenates those `F*(F-1)/2` scalars
//! with the bottom-MLP output as the top-MLP input.
//!
//! The forward is a **lane kernel** (DESIGN.md §2.2, "dense half"): a block
//! of `LANES` samples is transposed feature-major into a per-thread scratch
//! of `F · d` lanes, so every arithmetic step works on one `[f32; LANES]`
//! vector holding the same element of eight samples. The backward runs per
//! sample on the features in place: the pair gradients of the sample's
//! `d_out` row are the strict upper triangle of an `F × F` matrix `G`, a
//! per-thread scratch holds `G + Gᵀ` (zero diagonal), and feature `f`'s
//! gradient is row `f` of `(G + Gᵀ)·Z`, one register chunk of elements at
//! a time. Both do exactly the scalar code's operations in the scalar
//! code's order — a dot product is `acc = 0.0`, then `acc += a * b` for `k`
//! in `0..d`; a feature gradient adds `gp * v` over its partners in
//! ascending order, skipping `gp == 0.0` — as separate multiplies and adds
//! (Rust never contracts them into FMAs), so the results are bit-identical
//! to the per-sample loops the tests keep as references.
//! A batch of at least `2 × MIN_BAND` samples is split into bands across
//! the rayon pool, one band per thread, each writing its own rows of the
//! outputs; a band edge only decides which thread computes a sample, never
//! how.

use crate::band::{fit, fork_bands};
use el_tensor::Matrix;
use rayon::prelude::*;
use std::cell::RefCell;

/// Samples per lane block of the forward: one vector lane per sample.
const LANES: usize = 8;
/// Samples per band below which a batch is not split further: a band must
/// outweigh the fork/join that sends it to another thread.
const MIN_BAND: usize = 64;

/// One element `k` of some feature across a lane block.
type Lane = [f32; LANES];

/// Per-thread scratch of the band kernels, grow-only: the forward's `F · d`
/// feature lanes and the backward's `F × F` matrix `G + Gᵀ` — tens of kB,
/// whatever the batch.
#[derive(Default)]
struct Scratch {
    z: Vec<Lane>,
    g: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Grows `v` to at least `len` entries and returns its first `len`.
fn prefix<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// Rows per band for a batch: the batch split into at most one band per
/// pool thread and at most one per [`MIN_BAND`] samples, each band a whole
/// number of lane blocks (only the last band has a short block).
fn band_rows(batch: usize) -> usize {
    let bands = rayon::current_num_threads().min(batch / MIN_BAND).max(1);
    batch.div_ceil(bands).next_multiple_of(LANES).max(LANES)
}

/// Transposes samples `s .. s + n` of every feature into feature-major
/// lanes, `z[f * d + k][l] = features[f][s + l][k]`; lanes `n..` repeat
/// sample `s + n - 1` (a block's spare lanes compute values that are never
/// written out).
fn gather_lanes(features: &[&Matrix], s: usize, n: usize, z: &mut [Lane]) {
    for (f, feat) in features.iter().enumerate() {
        let d = feat.cols();
        let rows: [&[f32]; LANES] = std::array::from_fn(|l| feat.row(s + l.min(n - 1)));
        for (k, lane) in z[f * d..(f + 1) * d].iter_mut().enumerate() {
            *lane = std::array::from_fn(|l| rows[l][k]);
        }
    }
}

/// Dot products of feature `zi` with the `J` consecutive features in `zj`,
/// lane by lane, each in the scalar order `0.0 + a0*b0 + a1*b1 + …`.
fn dot_lanes<const J: usize>(zi: &[Lane], zj: &[Lane]) -> [Lane; J] {
    let d = zi.len();
    let zj: [&[Lane]; J] = std::array::from_fn(|jj| &zj[jj * d..][..d]);
    let mut acc = [[0.0f32; LANES]; J];
    for (k, a) in zi.iter().enumerate() {
        for (acc_j, zj) in acc.iter_mut().zip(&zj) {
            let b = &zj[k];
            for l in 0..LANES {
                acc_j[l] += a[l] * b[l];
            }
        }
    }
    acc
}

/// Adds `g[q] * z_q[k0 .. k0 + K]` into `dst[k0 .. k0 + K]` for every
/// partner `q` in ascending order, where `z_q` is `features[q]`'s row `s`
/// (at `row0 = s · d`), skipping a zero `g[q]` as the scalar loop's
/// `continue` does (so a `±0`, infinite or NaN partner never reaches the
/// sum). The `K` accumulators stay in registers across all partners and
/// are stored once.
#[inline(always)]
fn accumulate_chunk<const K: usize>(
    g: &[f32],
    features: &[&Matrix],
    row0: usize,
    k0: usize,
    dst: &mut [f32],
) {
    let dst = &mut dst[k0..k0 + K];
    let mut acc = [0.0f32; K];
    acc.copy_from_slice(dst);
    let at = row0 + k0;
    for (&gq, feat) in g.iter().zip(features) {
        if gq == 0.0 {
            continue;
        }
        let v = &feat.as_slice()[at..at + K];
        for k in 0..K {
            acc[k] += gq * v[k];
        }
    }
    dst.copy_from_slice(&acc);
}

/// Row `f` of `(G + Gᵀ)·Z` for sample `s` added into `dst`, with `g` that
/// row of `G + Gᵀ`: register chunks of 32, then 16, 8 and 4 elements, then
/// single elements, so every width `d` runs mostly in wide chunks.
fn gradient_row(g: &[f32], features: &[&Matrix], s: usize, dst: &mut [f32]) {
    let d = dst.len();
    let row0 = s * d;
    let mut k0 = 0;
    while k0 + 32 <= d {
        accumulate_chunk::<32>(g, features, row0, k0, dst);
        k0 += 32;
    }
    if k0 + 16 <= d {
        accumulate_chunk::<16>(g, features, row0, k0, dst);
        k0 += 16;
    }
    if k0 + 8 <= d {
        accumulate_chunk::<8>(g, features, row0, k0, dst);
        k0 += 8;
    }
    if k0 + 4 <= d {
        accumulate_chunk::<4>(g, features, row0, k0, dst);
        k0 += 4;
    }
    for k0 in k0..d {
        accumulate_chunk::<1>(g, features, row0, k0, dst);
    }
}

/// The interaction layer; stateless, shapes fixed at construction.
#[derive(Clone, Copy, Debug)]
pub struct Interaction {
    /// Number of interacting features per sample (1 + number of tables).
    pub num_features: usize,
    /// Feature dimension.
    pub dim: usize,
}

impl Interaction {
    /// An interaction over `num_features` features of width `dim`.
    pub fn new(num_features: usize, dim: usize) -> Self {
        assert!(num_features >= 2, "interaction needs at least two features");
        assert!(dim >= 1, "interaction features need at least one element");
        Self { num_features, dim }
    }

    /// Number of feature pairs.
    pub fn num_pairs(&self) -> usize {
        self.num_features * (self.num_features - 1) / 2
    }

    /// Output width: bottom-MLP passthrough + pair dot products.
    pub fn out_dim(&self) -> usize {
        self.dim + self.num_pairs()
    }

    /// Forward: `features[f]` is a `batch x dim` matrix (feature 0 is the
    /// bottom-MLP output, which is also passed through).
    pub fn forward(&self, features: &[&Matrix]) -> Matrix {
        let mut out = Matrix::zeros(self.check_features(features), self.out_dim());
        self.forward_into(features, &mut out);
        out
    }

    /// [`Interaction::forward`] into `out`, reshaped to `batch x out_dim`
    /// and reusing its allocation.
    pub fn forward_into(&self, features: &[&Matrix], out: &mut Matrix) {
        let batch = self.check_features(features);
        fit(out, batch, self.out_dim());
        let rows = band_rows(batch);
        out.as_mut_slice()
            .par_chunks_mut(rows * self.out_dim())
            .enumerate()
            .for_each(|(b, band)| self.forward_band(features, b * rows, band));
    }

    /// Backward: splits `d_out` into per-feature gradients.
    pub fn backward(&self, features: &[&Matrix], d_out: &Matrix) -> Vec<Matrix> {
        let batch = self.check_features(features);
        let mut grads: Vec<Matrix> =
            features.iter().map(|_| Matrix::zeros(batch, self.dim)).collect();
        self.backward_into(features, d_out, &mut grads);
        grads
    }

    /// [`Interaction::backward`] into `grads`, resized to one `batch x dim`
    /// matrix per feature and reusing their allocations.
    pub fn backward_into(&self, features: &[&Matrix], d_out: &Matrix, grads: &mut Vec<Matrix>) {
        let batch = self.check_features(features);
        assert_eq!(d_out.rows(), batch);
        assert_eq!(d_out.cols(), self.out_dim());

        let (nf, d) = (self.num_features, self.dim);
        grads.resize_with(nf, || Matrix::zeros(0, 0));
        for g in grads.iter_mut() {
            fit(g, batch, d);
        }
        fork_bands(grads.iter_mut(), band_rows(batch), |s0, band| {
            self.backward_band(features, d_out, s0, band)
        });
    }

    /// Checks the feature shapes and returns the batch size.
    fn check_features(&self, features: &[&Matrix]) -> usize {
        assert_eq!(features.len(), self.num_features);
        let batch = features[0].rows();
        for f in features {
            assert_eq!(f.rows(), batch, "feature batch mismatch");
            assert_eq!(f.cols(), self.dim, "feature dim mismatch");
        }
        batch
    }

    /// Forward over the output rows `out` (samples from `s0` on).
    // CONTRACT: zero-alloc
    fn forward_band(&self, features: &[&Matrix], s0: usize, out: &mut [f32]) {
        let (nf, d, od) = (self.num_features, self.dim, self.out_dim());
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let z = prefix(&mut scratch.z, nf * d);
            for (blk, out_blk) in out.chunks_mut(LANES * od).enumerate() {
                let s = s0 + blk * LANES;
                let n = out_blk.len() / od;
                gather_lanes(features, s, n, z);
                for (l, dst) in out_blk.chunks_exact_mut(od).enumerate() {
                    dst[..d].copy_from_slice(features[0].row(s + l));
                }
                let mut p = d;
                let mut emit = |acc: &[Lane]| {
                    for (l, dst) in out_blk.chunks_exact_mut(od).enumerate() {
                        for (o, a) in dst[p..p + acc.len()].iter_mut().zip(acc) {
                            *o = a[l];
                        }
                    }
                    p += acc.len();
                };
                for i in 0..nf {
                    let zi = &z[i * d..(i + 1) * d];
                    let mut j = i + 1;
                    while j + 4 <= nf {
                        emit(&dot_lanes::<4>(zi, &z[j * d..]));
                        j += 4;
                    }
                    for j in j..nf {
                        emit(&dot_lanes::<1>(zi, &z[j * d..]));
                    }
                }
            }
        });
    }

    /// Backward for the band of samples from `s0` on; `out[f]` holds the
    /// band's rows of feature `f`'s gradient.
    // CONTRACT: zero-alloc
    fn backward_band(
        &self,
        features: &[&Matrix],
        d_out: &Matrix,
        s0: usize,
        out: &mut [&mut [f32]],
    ) {
        let (nf, d) = (self.num_features, self.dim);
        let band = out[0].len() / d;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let g = prefix(&mut scratch.g, nf * nf);
            for i in 0..band {
                let s = s0 + i;
                let row = d_out.row(s);
                // `G + Gᵀ` of the sample: pair (a, b)'s gradient at [a][b]
                // and [b][a]; the zero diagonal takes the partner skip.
                let mut pairs = row[d..].iter();
                for a in 0..nf {
                    g[a * nf + a] = 0.0;
                    for (b, &gp) in (a + 1..nf).zip(&mut pairs) {
                        g[a * nf + b] = gp;
                        g[b * nf + a] = gp;
                    }
                }
                for (f, dst) in out.iter_mut().enumerate() {
                    let dst = &mut dst[i * d..(i + 1) * d];
                    // Feature 0 starts from its passthrough gradient.
                    if f == 0 {
                        dst.copy_from_slice(&row[..d]);
                    } else {
                        dst.fill(0.0);
                    }
                    gradient_row(&g[f * nf..(f + 1) * nf], features, s, dst);
                }
            }
        });
    }
}

/// Today's per-sample scalar forward, kept as the bit-identity oracle.
#[cfg(test)]
fn forward_reference(inter: &Interaction, features: &[&Matrix]) -> Matrix {
    let batch = features[0].rows();
    let mut out = Matrix::zeros(batch, inter.out_dim());
    for s in 0..batch {
        let dst = out.row_mut(s);
        dst[..inter.dim].copy_from_slice(features[0].row(s));
        let mut p = inter.dim;
        for i in 0..inter.num_features {
            let fi = features[i].row(s);
            for fj in &features[i + 1..] {
                let mut acc = 0.0f32;
                for (a, b) in fi.iter().zip(fj.row(s)) {
                    acc += a * b;
                }
                dst[p] = acc;
                p += 1;
            }
        }
    }
    out
}

/// Today's per-sample scalar backward, kept as the bit-identity oracle.
#[cfg(test)]
fn backward_reference(inter: &Interaction, features: &[&Matrix], d_out: &Matrix) -> Vec<Matrix> {
    let batch = features[0].rows();
    let mut grads: Vec<Matrix> =
        (0..inter.num_features).map(|_| Matrix::zeros(batch, inter.dim)).collect();
    for s in 0..batch {
        let g = d_out.row(s);
        grads[0].row_mut(s).copy_from_slice(&g[..inter.dim]);
        let mut p = inter.dim;
        for i in 0..inter.num_features {
            for j in (i + 1)..inter.num_features {
                let gp = g[p];
                p += 1;
                if gp == 0.0 {
                    continue;
                }
                // d(f_i . f_j)/df_i = f_j and vice versa
                let fj = features[j].row(s).to_vec();
                let fi = features[i].row(s).to_vec();
                for (dst, v) in grads[i].row_mut(s).iter_mut().zip(&fj) {
                    *dst += gp * v;
                }
                for (dst, v) in grads[j].row_mut(s).iter_mut().zip(&fi) {
                    *dst += gp * v;
                }
            }
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn output_layout_is_passthrough_then_pairs() {
        let inter = Interaction::new(3, 2);
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let c = Matrix::from_vec(1, 2, vec![5.0, 6.0]);
        let out = inter.forward(&[&a, &b, &c]);
        assert_eq!(out.cols(), 2 + 3);
        // passthrough
        assert_eq!(&out.row(0)[..2], &[1.0, 2.0]);
        // pairs in (0,1), (0,2), (1,2) order
        assert_eq!(out.row(0)[2], 1.0 * 3.0 + 2.0 * 4.0);
        assert_eq!(out.row(0)[3], 1.0 * 5.0 + 2.0 * 6.0);
        assert_eq!(out.row(0)[4], 3.0 * 5.0 + 4.0 * 6.0);
    }

    #[test]
    fn gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let inter = Interaction::new(3, 4);
        let feats: Vec<Matrix> = (0..3).map(|_| Matrix::uniform(2, 4, 1.0, &mut rng)).collect();
        let refs: Vec<&Matrix> = feats.iter().collect();
        let gsel = Matrix::uniform(2, inter.out_dim(), 1.0, &mut rng);

        let grads = inter.backward(&refs, &gsel);

        let loss = |feats: &[Matrix]| -> f32 {
            let refs: Vec<&Matrix> = feats.iter().collect();
            inter.forward(&refs).as_slice().iter().zip(gsel.as_slice()).map(|(y, g)| y * g).sum()
        };
        let eps = 1e-3;
        for f in 0..3 {
            for &(s, c) in &[(0usize, 0usize), (1, 3)] {
                let mut pert = feats.clone();
                let orig = pert[f].get(s, c);
                pert[f].set(s, c, orig + eps);
                let up = loss(&pert);
                pert[f].set(s, c, orig - eps);
                let down = loss(&pert);
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads[f].get(s, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "feature {f} ({s},{c}): {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn pair_count_formula() {
        assert_eq!(Interaction::new(27, 16).num_pairs(), 27 * 26 / 2);
        assert_eq!(Interaction::new(2, 16).num_pairs(), 1);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn dim_mismatch_panics() {
        let inter = Interaction::new(2, 4);
        let a = Matrix::zeros(1, 4);
        let b = Matrix::zeros(1, 3);
        let _ = inter.forward(&[&a, &b]);
    }

    /// A value drawn from the kinds the skip and the kernels must carry
    /// through unchanged: ±0, subnormals, and (when `specials`) NaN and ±∞.
    /// The NaN is the platform's default NaN, the one `∞ − ∞` and `0 · ∞`
    /// produce, so every NaN in a run has the same bits and their order of
    /// meeting cannot matter.
    fn draw(rng: &mut impl Rng, specials: bool) -> f32 {
        let nan = std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY);
        match rng.gen_range(0..if specials { 12 } else { 8 }) {
            0 => 0.0,
            1 => -0.0,
            2 => 3.0e-39,
            3 => -1.0e-40,
            8 => nan,
            9 => f32::INFINITY,
            10 => f32::NEG_INFINITY,
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        /// The kernels equal the scalar loops bit for bit in both
        /// directions, across feature counts and widths that leave every
        /// pair-block and element-chunk tail, and batches that leave every
        /// lane-block tail and split into bands. Half the cases put NaN and
        /// ±∞ into the features too, where a gradient that does not skip a
        /// zero pair gradient turns `0 · ∞` into NaN; the other half keep
        /// the features finite, where the sums' order shows.
        #[test]
        fn kernels_are_bit_identical_to_the_scalar_loops(
            nf in 2usize..=30,
            d in 1usize..=40,
            batch in prop_oneof![1usize..=70, 120usize..=260],
            feature_specials in bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let inter = Interaction::new(nf, d);
            let feats: Vec<Matrix> = (0..nf)
                .map(|_| Matrix::from_fn(batch, d, |_, _| draw(&mut rng, feature_specials)))
                .collect();
            let refs: Vec<&Matrix> = feats.iter().collect();
            let d_out = Matrix::from_fn(batch, inter.out_dim(), |_, _| draw(&mut rng, true));

            prop_assert!(same_bits(&inter.forward(&refs), &forward_reference(&inter, &refs)));
            let got = inter.backward(&refs, &d_out);
            let want = backward_reference(&inter, &refs, &d_out);
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(same_bits(g, w), "feature {f} gradient differs");
            }
        }
    }

    #[test]
    fn bands_are_whole_lane_blocks_one_per_thread_at_most() {
        for batch in [0usize, 1, 7, 8, 63, 64, 127, 128, 129, 1027, 2048] {
            let rows = band_rows(batch);
            let bands = batch.div_ceil(rows);
            assert_eq!(rows % LANES, 0);
            assert!(bands <= rayon::current_num_threads());
            assert!(bands <= 1 || batch >= bands * MIN_BAND, "batch {batch}: {bands} bands");
        }
    }
}
