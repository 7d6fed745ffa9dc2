//! Tensor-train representation of a 2-D embedding table.
//!
//! Paper §II-B: an `M x N` table with `M = m_1*...*m_d`, `N = n_1*...*n_d`
//! is reshaped into a `d`-dimensional tensor with modes `(m_k n_k)` and
//! decomposed into cores `G_k` of shape `(R_{k-1}, m_k*n_k, R_k)`,
//! `R_0 = R_d = 1`. Row `i` of the table is recovered by multiplying one
//! slice per core (paper Eq. 2).
//!
//! # Core memory layout
//!
//! Core `k` is stored as `m_k` contiguous blocks; block `t` is the row-major
//! `(R_{k-1}, n_k * R_k)` matrix `G_k[:, (t, :), :]`. This is the layout the
//! Eff-TT kernels in `el-core` rely on: looking up TT index `t` yields one
//! contiguous operand for the batched GEMM, exactly like the device pointers
//! TT-Rec/EL-Rec pass to `cublasGemmBatchedEx`.

// Mixed-radix digit loops index several parallel arrays by position; the
// index form mirrors the paper's Eq. 2/3 notation.
#![allow(clippy::needless_range_loop)]

use crate::gemm::gemm_nn;
use crate::matrix::Matrix;
use crate::shape::tt_indices;
use crate::svd::Svd;
use rand::Rng;
use rand_like_normal::normal_f32;

/// TT cores of one embedding table.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TtCores {
    /// Row-dimension factors `m_k` (their product is the padded row capacity).
    pub row_dims: Vec<usize>,
    /// Column-dimension factors `n_k` (their product is the embedding dim).
    pub col_dims: Vec<usize>,
    /// TT ranks `R_0..R_d`, with `R_0 = R_d = 1`.
    pub ranks: Vec<usize>,
    /// `cores[k]` laid out as `[m_k][R_{k-1}][n_k][R_k]` (see module docs).
    pub cores: Vec<Vec<f32>>,
}

impl TtCores {
    /// Number of TT cores (`d`).
    pub fn order(&self) -> usize {
        self.row_dims.len()
    }

    /// Padded row capacity `prod m_k`.
    pub fn row_capacity(&self) -> usize {
        self.row_dims.iter().product()
    }

    /// Embedding dimension `prod n_k`.
    pub fn embedding_dim(&self) -> usize {
        self.col_dims.iter().product()
    }

    /// Size in elements of one slice of core `k`.
    #[inline]
    pub fn slice_len(&self, k: usize) -> usize {
        self.ranks[k] * self.col_dims[k] * self.ranks[k + 1]
    }

    /// The contiguous `(R_{k-1}, n_k*R_k)` slice of core `k` at TT index `t`.
    #[inline]
    pub fn slice(&self, k: usize, t: usize) -> &[f32] {
        let len = self.slice_len(k);
        &self.cores[k][t * len..(t + 1) * len]
    }

    /// Randomly initialized cores.
    ///
    /// Entries are drawn i.i.d. Gaussian with a per-core standard deviation
    /// chosen so a reconstructed embedding entry has standard deviation
    /// `target_std`: an entry is a sum over `P = prod R_k` rank paths of
    /// products of `d` core entries, so `sigma^(2d) * P = target_std^2`.
    pub fn random(
        row_dims: Vec<usize>,
        col_dims: Vec<usize>,
        ranks: Vec<usize>,
        target_std: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let d = row_dims.len();
        assert_eq!(col_dims.len(), d, "row and column factor counts must match");
        assert_eq!(ranks.len(), d + 1, "need d+1 ranks");
        assert_eq!(ranks[0], 1, "R_0 must be 1");
        assert_eq!(ranks[d], 1, "R_d must be 1");

        let path_count: f64 = ranks.iter().map(|&r| r as f64).product();
        let sigma = ((target_std as f64).powi(2) / path_count).powf(1.0 / (2.0 * d as f64)) as f32;

        let cores = (0..d)
            .map(|k| {
                let len = row_dims[k] * ranks[k] * col_dims[k] * ranks[k + 1];
                (0..len).map(|_| normal_f32(rng) * sigma).collect()
            })
            .collect();
        Self { row_dims, col_dims, ranks, cores }
    }

    /// TT-SVD decomposition of a dense table.
    ///
    /// Rows beyond `table.rows()` (padding up to `prod row_dims`) are treated
    /// as zero. Ranks are capped at `max_rank` and at the exact ranks of the
    /// unfoldings, so low-rank tables are represented exactly.
    pub fn from_dense(
        table: &Matrix,
        row_dims: Vec<usize>,
        col_dims: Vec<usize>,
        max_rank: usize,
    ) -> Self {
        let d = row_dims.len();
        assert_eq!(col_dims.len(), d);
        let capacity: usize = row_dims.iter().product();
        let n: usize = col_dims.iter().product();
        assert!(capacity >= table.rows(), "row factors must cover the table");
        assert_eq!(n, table.cols(), "column factors must multiply to the embedding dim");

        // Build the reshaped tensor as a row-major buffer over modes
        // s_k = m_k * n_k with combined mode index u_k = i_k * n_k + j_k.
        let modes: Vec<usize> = row_dims.iter().zip(&col_dims).map(|(m, nn)| m * nn).collect();
        let total: usize = modes.iter().product();
        let mut tensor = vec![0.0f32; total];
        let mut row_digits = vec![0usize; d];
        let mut col_digits = vec![0usize; d];
        for i in 0..table.rows() {
            tt_indices(i, &row_dims, &mut row_digits);
            for j in 0..n {
                tt_indices(j, &col_dims, &mut col_digits);
                let mut off = 0usize;
                for k in 0..d {
                    off = off * modes[k] + row_digits[k] * col_dims[k] + col_digits[k];
                }
                tensor[off] = table.get(i, j);
            }
        }

        // Sequential TT-SVD over the unfoldings.
        let mut cores_raw: Vec<(usize, usize, usize, Vec<f32>)> = Vec::with_capacity(d);
        let mut rank_prev = 1usize;
        let mut rest: usize = total;
        let mut work = tensor;
        for (k, &mode) in modes.iter().enumerate().take(d - 1) {
            rest /= mode;
            let rows = rank_prev * mode;
            let unfolding = Matrix::from_vec(rows, rest, work);
            let svd = Svd::compute(&unfolding);
            // Drop numerically-zero components before applying the cap: they
            // carry no signal and would bloat the cores.
            let tol = svd.s.first().copied().unwrap_or(0.0) * 1e-6;
            let effective = svd.s.iter().take_while(|&&s| s > tol).count().max(1);
            let r = max_rank.min(effective);
            let svd = svd.truncate(r);
            // Core k (raw TT layout): (rank_prev, mode, r).
            cores_raw.push((rank_prev, mode, r, svd.u.into_vec()));
            // Carry diag(s) * Vt forward.
            let mut carry = svd.vt.into_vec();
            for (row, &s) in svd.s.iter().enumerate() {
                for v in &mut carry[row * rest..(row + 1) * rest] {
                    *v *= s;
                }
            }
            let _ = k;
            rank_prev = r;
            work = carry;
        }
        // Last core: whatever is left, shape (rank_prev, mode_d, 1).
        cores_raw.push((rank_prev, modes[d - 1], 1, work));

        // Permute raw (R_{k-1}, m_k*n_k, R_k) into the canonical
        // [m_k][R_{k-1}][n_k][R_k] layout.
        let mut ranks = Vec::with_capacity(d + 1);
        ranks.push(1);
        let mut cores = Vec::with_capacity(d);
        for (k, (rl, mode, rr, raw)) in cores_raw.into_iter().enumerate() {
            let (mk, nk) = (row_dims[k], col_dims[k]);
            assert_eq!(mode, mk * nk);
            let mut canon = vec![0.0f32; rl * mode * rr];
            for r_left in 0..rl {
                for ik in 0..mk {
                    for jk in 0..nk {
                        for r_right in 0..rr {
                            let src = (r_left * mode + ik * nk + jk) * rr + r_right;
                            let dst = ((ik * rl + r_left) * nk + jk) * rr + r_right;
                            canon[dst] = raw[src];
                        }
                    }
                }
            }
            ranks.push(rr);
            cores.push(canon);
        }
        Self { row_dims, col_dims, ranks, cores }
    }

    /// Reconstructs row `index` of the represented table into `out`
    /// (length = embedding dim) via the prefix-product chain of Eq. 2.
    pub fn reconstruct_row(&self, index: usize, out: &mut [f32]) {
        let d = self.order();
        assert!(index < self.row_capacity(), "row index out of capacity");
        assert_eq!(out.len(), self.embedding_dim());

        let mut digits = vec![0usize; d];
        tt_indices(index, &self.row_dims, &mut digits);

        // cur: (p, R_k) with p = prod_{l<k} n_l, starting from core 0 whose
        // slice is (1, n_0 * R_1) == (n_0, R_1) after the free reshape.
        let mut cur: Vec<f32> = self.slice(0, digits[0]).to_vec();
        let mut p = self.col_dims[0];
        for k in 1..d {
            let r_in = self.ranks[k];
            let cols_out = self.col_dims[k] * self.ranks[k + 1];
            let mut next = vec![0.0f32; p * cols_out];
            gemm_nn(p, cols_out, r_in, 1.0, &cur, self.slice(k, digits[k]), 0.0, &mut next);
            // row-major (p, n_k*R_{k+1}) reshapes to (p*n_k, R_{k+1}) for free
            p *= self.col_dims[k];
            cur = next;
        }
        debug_assert_eq!(cur.len(), out.len());
        out.copy_from_slice(&cur);
    }

    /// Materializes the full (padded) table — the test oracle. Quadratic in
    /// footprint; only call on small shapes.
    pub fn reconstruct(&self) -> Matrix {
        let rows = self.row_capacity();
        let n = self.embedding_dim();
        let mut out = Matrix::zeros(rows, n);
        for i in 0..rows {
            self.reconstruct_row(i, out.row_mut(i));
        }
        out
    }

    /// Total parameter count across cores.
    pub fn param_count(&self) -> usize {
        self.cores.iter().map(|c| c.len()).sum()
    }

    /// Core memory footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Compression ratio versus the dense `rows x N` table the cores stand
    /// in for.
    pub fn compression_ratio(&self, dense_rows: usize) -> f64 {
        let dense = dense_rows * self.embedding_dim();
        dense as f64 / self.param_count() as f64
    }
}

/// Convenience bundle returned by [`decompose`] containing the cores and the
/// achieved reconstruction error.
#[derive(Clone, Debug)]
pub struct TtDecomposition {
    /// The fitted cores.
    pub cores: TtCores,
    /// `max |dense - reconstruction|` over the non-padded rows.
    pub max_error: f32,
}

/// Decomposes `table` with balanced 3-way factorizations and reports the
/// reconstruction error (used by the compression-sweep example).
pub fn decompose(table: &Matrix, d: usize, max_rank: usize) -> TtDecomposition {
    let row_dims = crate::shape::balanced_factorization(table.rows(), d);
    let col_dims = crate::shape::factorize(table.cols(), d);
    let cores = TtCores::from_dense(table, row_dims, col_dims, max_rank);
    let mut row = vec![0.0f32; table.cols()];
    let mut max_error = 0.0f32;
    for i in 0..table.rows() {
        cores.reconstruct_row(i, &mut row);
        for (a, b) in row.iter().zip(table.row(i)) {
            max_error = max_error.max((a - b).abs());
        }
    }
    TtDecomposition { cores, max_error }
}

/// Minimal Box–Muller normal sampler so the crate only depends on `rand`'s
/// uniform source (keeps `rand_distr` optional at this layer).
mod rand_like_normal {
    use rand::Rng;

    pub fn normal_f32(rng: &mut impl Rng) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_cores_have_declared_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tt = TtCores::random(vec![4, 5, 6], vec![2, 4, 4], vec![1, 8, 8, 1], 0.1, &mut rng);
        assert_eq!(tt.order(), 3);
        assert_eq!(tt.row_capacity(), 120);
        assert_eq!(tt.embedding_dim(), 32);
        assert_eq!(tt.cores[0].len(), 4 * 2 * 8);
        assert_eq!(tt.cores[1].len(), 5 * 8 * 4 * 8);
        assert_eq!(tt.cores[2].len(), (6 * 8 * 4));
    }

    #[test]
    fn random_init_hits_target_std() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let target = 0.1f32;
        let tt =
            TtCores::random(vec![8, 8, 8], vec![4, 4, 4], vec![1, 16, 16, 1], target, &mut rng);
        let dense = tt.reconstruct();
        let var: f64 = dense.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
            / dense.len() as f64;
        let std = var.sqrt() as f32;
        assert!(
            (std / target) > 0.5 && (std / target) < 2.0,
            "reconstructed std {std} too far from target {target}"
        );
    }

    #[test]
    fn tt_svd_reconstructs_small_table_exactly_with_full_rank() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = Matrix::uniform(12, 8, 1.0, &mut rng);
        // full-rank caps: rank can grow to min of unfolding dims
        let dec = decompose(&table, 3, 64);
        assert!(dec.max_error < 1e-3, "max error {}", dec.max_error);
    }

    #[test]
    fn tt_svd_with_padding_zeroes_padded_rows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let table = Matrix::uniform(10, 8, 1.0, &mut rng); // capacity 2*2*3=12 > 10
        let cores = TtCores::from_dense(&table, vec![2, 2, 3], vec![2, 2, 2], 64);
        let rec = cores.reconstruct();
        for i in 10..12 {
            for j in 0..8 {
                assert!(rec.get(i, j).abs() < 1e-3, "padded row leaked: {}", rec.get(i, j));
            }
        }
    }

    #[test]
    fn low_rank_table_compresses_exactly_at_low_rank() {
        // Build a table that is exactly TT-rank (2,2): reconstruct from tiny
        // random cores, then re-decompose with the same rank cap.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let src = TtCores::random(vec![3, 3, 3], vec![2, 2, 2], vec![1, 2, 2, 1], 0.5, &mut rng);
        let dense = src.reconstruct();
        let cores = TtCores::from_dense(&dense, vec![3, 3, 3], vec![2, 2, 2], 2);
        let err = cores.reconstruct().max_abs_diff(&dense);
        assert!(err < 1e-3, "rank-2 table should be exact at rank 2, err {err}");
    }

    #[test]
    fn reconstruct_row_matches_full_reconstruction() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let tt = TtCores::random(vec![3, 4, 5], vec![2, 2, 4], vec![1, 6, 6, 1], 0.2, &mut rng);
        let dense = tt.reconstruct();
        let mut row = vec![0.0f32; tt.embedding_dim()];
        for i in [0usize, 7, 33, 59] {
            tt.reconstruct_row(i, &mut row);
            assert_eq!(&row[..], dense.row(i));
        }
    }

    #[test]
    fn order_two_tables_work() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let table = Matrix::uniform(6, 4, 1.0, &mut rng);
        let cores = TtCores::from_dense(&table, vec![2, 3], vec![2, 2], 16);
        let err = cores.reconstruct().submatrix(0, 0, 6, 4).max_abs_diff(&table);
        assert!(err < 1e-3);
    }

    #[test]
    fn footprint_is_much_smaller_than_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // 1M-row table at dim 64, rank 16
        let tt =
            TtCores::random(vec![100, 100, 100], vec![4, 4, 4], vec![1, 16, 16, 1], 0.1, &mut rng);
        let dense_bytes = 1_000_000usize * 64 * 4;
        assert!(tt.footprint_bytes() * 50 < dense_bytes);
        assert!(tt.compression_ratio(1_000_000) > 50.0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn reconstruct_row_rejects_out_of_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tt = TtCores::random(vec![2, 2], vec![2, 2], vec![1, 2, 1], 0.1, &mut rng);
        let mut row = vec![0.0f32; 4];
        tt.reconstruct_row(4, &mut row);
    }
}
