//! Uncompressed embedding bag — the `nn.EmbeddingBag(mode="sum")` baseline.
//!
//! Stores the full `rows x dim` table and trains it with sparse gradients:
//! only rows touched by a batch are updated, exactly like the reference
//! DLRM. This is the table the paper's DLRM/FAE baselines use, the
//! comparison point of Table III (footprint) and the host-memory resident
//! of the pipeline trainer.

use el_tensor::Matrix;
use rand::Rng;
use std::cell::Cell;

/// A row with no slot in [`SLOT_OF`].
const NO_SLOT: u32 = u32::MAX;

thread_local! {
    /// Row → gradient slot of [`EmbeddingBag::sparse_grad`], grow-only
    /// (to the largest table seen on the thread) and all [`NO_SLOT`]
    /// between calls.
    static SLOT_OF: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// A dense embedding table with sum pooling over CSR `(indices, offsets)`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct EmbeddingBag {
    /// The table, `rows x dim`.
    pub weight: Matrix,
}

/// Sparse gradient of an embedding bag: unique touched rows and their
/// gradient rows (the payload pushed to the parameter server).
#[derive(Clone, Debug, Default)]
pub struct SparseGrad {
    /// Unique touched row indices (sorted).
    pub indices: Vec<u32>,
    /// Gradient rows, `indices.len() x dim`, row-major.
    pub values: Vec<f32>,
    /// Embedding dimension.
    pub dim: usize,
}

impl EmbeddingBag {
    /// A table initialized uniformly in `[-scale, scale]` (the reference
    /// DLRM uses `scale = 1/sqrt(rows)`-style inits; any small scale works).
    pub fn new(rows: usize, dim: usize, scale: f32, rng: &mut impl Rng) -> Self {
        Self { weight: Matrix::uniform(rows, dim, scale, rng) }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.weight.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.cols()
    }

    /// Table footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.weight.footprint_bytes()
    }

    /// Sum-pooled lookup.
    pub fn forward(&self, indices: &[u32], offsets: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(indices, offsets, &mut out);
        out
    }

    /// [`EmbeddingBag::forward`] into a caller-owned output matrix, which is
    /// reshaped and zeroed in place (no allocation once it has the
    /// capacity).
    pub fn forward_into(&self, indices: &[u32], offsets: &[u32], out: &mut Matrix) {
        let batch = offsets.len() - 1;
        out.reset_zeroed(batch, self.dim());
        for s in 0..batch {
            let dst = out.row_mut(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let row = self.weight.row(i as usize);
                for (d, v) in dst.iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
    }

    /// Computes the sparse gradient of a batch without touching weights:
    /// the gradient rows of every lookup summed per unique row (the paper's
    /// in-advance aggregation, §III-B), unique rows ascending.
    ///
    /// A per-thread row → slot map finds each lookup's slot in O(1). Only
    /// the rows of this batch are set, and they are reset before returning.
    /// The map is taken out of its cell for the call, so a panic
    /// mid-call drops it instead of leaving stale slots behind.
    pub fn sparse_grad(&self, indices: &[u32], offsets: &[u32], d_out: &Matrix) -> SparseGrad {
        let dim = self.dim();
        assert_eq!(d_out.cols(), dim);
        assert_eq!(d_out.rows() + 1, offsets.len());
        let mut slot_of = SLOT_OF.take();
        if slot_of.len() < self.num_rows() {
            slot_of.resize(self.num_rows(), NO_SLOT);
        }
        let mut unique: Vec<u32> = Vec::with_capacity(indices.len());
        for &i in indices {
            let slot = &mut slot_of[i as usize];
            if *slot == NO_SLOT {
                // Marks the row seen; its slot is written after the sort.
                *slot = 0;
                unique.push(i);
            }
        }
        unique.sort_unstable();
        for (slot, &i) in unique.iter().enumerate() {
            slot_of[i as usize] = slot as u32;
        }
        let mut values = vec![0.0f32; unique.len() * dim];
        for s in 0..d_out.rows() {
            let g = d_out.row(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let slot = slot_of[i as usize] as usize;
                for (v, gv) in values[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                    *v += gv;
                }
            }
        }
        for &i in &unique {
            slot_of[i as usize] = NO_SLOT;
        }
        SLOT_OF.set(slot_of);
        SparseGrad { indices: unique, values, dim }
    }

    /// Applies a sparse gradient with SGD.
    pub fn apply_sparse_grad(&mut self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim, self.dim());
        for (slot, &i) in grad.indices.iter().enumerate() {
            let row = self.weight.row_mut(i as usize);
            let g = &grad.values[slot * grad.dim..(slot + 1) * grad.dim];
            for (w, gv) in row.iter_mut().zip(g) {
                *w -= lr * gv;
            }
        }
    }

    /// Convenience: backward + update in one call.
    pub fn backward_sgd(&mut self, indices: &[u32], offsets: &[u32], d_out: &Matrix, lr: f32) {
        let grad = self.sparse_grad(indices, offsets, d_out);
        self.apply_sparse_grad(&grad, lr);
    }

    /// Backward + sparse-Adagrad update. The state must cover the whole
    /// table (`Adagrad::new(rows * dim)`), but only touched rows pay.
    pub fn backward_adagrad(
        &mut self,
        indices: &[u32],
        offsets: &[u32],
        d_out: &Matrix,
        lr: f32,
        state: &mut crate::optim::Adagrad,
    ) {
        let grad = self.sparse_grad(indices, offsets, d_out);
        let dim = self.dim();
        state.step_rows(self.weight.as_mut_slice(), dim, &grad.indices, &grad.values, lr);
    }

    /// Copies selected rows into a dense matrix (parameter-server pull).
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let dim = self.dim();
        let mut out = Matrix::zeros(indices.len(), dim);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.weight.row(i as usize));
        }
        out
    }

    /// Overwrites selected rows (parameter-server push / cache sync).
    pub fn scatter_rows(&mut self, indices: &[u32], rows: &Matrix) {
        assert_eq!(rows.rows(), indices.len());
        assert_eq!(rows.cols(), self.dim());
        for (r, &i) in indices.iter().enumerate() {
            self.weight.row_mut(i as usize).copy_from_slice(rows.row(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bag() -> EmbeddingBag {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        EmbeddingBag::new(10, 4, 0.5, &mut rng)
    }

    #[test]
    fn forward_sums_rows() {
        let b = bag();
        let out = b.forward(&[2, 5], &[0, 2]);
        for c in 0..4 {
            let expect = b.weight.get(2, c) + b.weight.get(5, c);
            assert!((out.get(0, c) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_sample_gives_zero() {
        let b = bag();
        let out = b.forward(&[1], &[0, 0, 1]);
        assert!(out.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sparse_grad_aggregates_duplicates() {
        let b = bag();
        let d = Matrix::full(2, 4, 1.0);
        // index 3 appears in both samples, and twice in sample 0
        let g = b.sparse_grad(&[3, 3, 3, 7], &[0, 2, 4], &d);
        assert_eq!(g.indices, vec![3, 7]);
        // 3 lookups of index 3, each with gradient 1.0
        assert!((g.values[0] - 3.0).abs() < 1e-6);
        assert!((g.values[4] - 1.0).abs() < 1e-6);
    }

    /// The sort + binary-search aggregation `sparse_grad` replaced, kept as
    /// its bit-identity oracle.
    fn sparse_grad_reference(
        bag: &EmbeddingBag,
        indices: &[u32],
        offsets: &[u32],
        d_out: &Matrix,
    ) -> SparseGrad {
        let dim = bag.dim();
        let mut unique: Vec<u32> = indices.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let slot_of = |i: u32| unique.binary_search(&i).expect("index seen in batch");
        let mut values = vec![0.0f32; unique.len() * dim];
        for s in 0..d_out.rows() {
            let g = d_out.row(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let slot = slot_of(i);
                for (v, gv) in values[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                    *v += gv;
                }
            }
        }
        SparseGrad { indices: unique, values, dim }
    }

    /// A CSR batch over `rows` rows: bags of 0..=5 lookups (every fourth
    /// empty), drawn from a few hot rows — so duplicates within and across
    /// bags are common — plus rows 0 and `rows - 1`.
    fn batch(rows: usize, samples: usize, rng: &mut impl rand::Rng) -> (Vec<u32>, Vec<u32>) {
        let last = rows as u32 - 1;
        let hot: Vec<u32> = (0..4).map(|_| rng.gen_range(0..=last)).collect();
        let (mut indices, mut offsets) = (Vec::new(), vec![0u32]);
        for s in 0..samples {
            let len = if s % 4 == 3 { 0 } else { rng.gen_range(0..=5usize) };
            for _ in 0..len {
                indices.push(match rng.gen_range(0..6usize) {
                    0 => 0,
                    1 => last,
                    2 => rng.gen_range(0..=last),
                    k => hot[k - 2],
                });
            }
            offsets.push(indices.len() as u32);
        }
        (indices, offsets)
    }

    fn same_grad(a: &SparseGrad, b: &SparseGrad) -> bool {
        a.dim == b.dim
            && a.indices == b.indices
            && a.values.len() == b.values.len()
            && a.values.iter().zip(&b.values).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest::proptest! {
        /// The row → slot map aggregates exactly as sort + binary search
        /// did, bit for bit. Two tables of different sizes run back to back
        /// on this thread, then the first again: a slot left set by either
        /// call would misplace the next call's gradients.
        #[test]
        fn slot_map_matches_sort_and_binary_search(
            rows_a in 1usize..=40,
            rows_b in 41usize..=300,
            samples in 1usize..=24,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut run = |rows: usize| {
                let bag = EmbeddingBag::new(rows, 3, 0.5, &mut rng);
                let (indices, offsets) = batch(rows, samples, &mut rng);
                let d_out = Matrix::uniform(samples, 3, 1.0, &mut rng);
                let got = bag.sparse_grad(&indices, &offsets, &d_out);
                same_grad(&got, &sparse_grad_reference(&bag, &indices, &offsets, &d_out))
            };
            for rows in [rows_a, rows_b, rows_a] {
                proptest::prop_assert!(run(rows), "{rows} rows: aggregation differs");
            }
        }
    }

    #[test]
    fn backward_sgd_updates_only_touched_rows() {
        let mut b = bag();
        let before = b.weight.clone();
        let d = Matrix::full(1, 4, 1.0);
        b.backward_sgd(&[4], &[0, 1], &d, 0.1);
        for r in 0..10 {
            for c in 0..4 {
                let delta = before.get(r, c) - b.weight.get(r, c);
                if r == 4 {
                    assert!((delta - 0.1).abs() < 1e-6);
                } else {
                    assert_eq!(delta, 0.0);
                }
            }
        }
    }

    #[test]
    fn tiny_interior_updates_vanish_under_int8_but_not_f32() {
        // The §I claim in miniature: an update far below the quantization
        // step on an *interior* coordinate (row min/max unchanged, so the
        // affine parameters stay put) is lost by int8 round-tripping; full
        // f32 storage retains it. This is the mechanism behind quantized
        // training's accuracy erosion. Lives here (not in el_core's
        // quantized module) because the f32 side is this crate's dense bag.
        let dense = Matrix::from_vec(1, 4, vec![-0.5, 0.1, 0.2, 0.5]);
        let mut q = el_core::quantized::QuantizedEmbeddingBag::from_dense(&dense);
        let mut f = EmbeddingBag { weight: dense.clone() };
        let grad = Matrix::from_vec(1, 4, vec![0.0, 1e-5, 0.0, 0.0]);
        let q_before = q.forward(&[0], &[0, 1]);
        let f_before = f.forward(&[0], &[0, 1]);
        q.backward_sgd(&[0], &[0, 1], &grad, 0.1);
        f.backward_sgd(&[0], &[0, 1], &grad, 0.1);
        let q_delta = q.forward(&[0], &[0, 1]).max_abs_diff(&q_before);
        let f_delta = f.forward(&[0], &[0, 1]).max_abs_diff(&f_before);
        assert_eq!(q_delta, 0.0, "int8 should swallow a sub-step interior update");
        assert!(f_delta > 0.0, "f32 retains it");
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut b = bag();
        let rows = b.gather_rows(&[1, 8]);
        let mut modified = rows.clone();
        modified.scale(2.0);
        b.scatter_rows(&[1, 8], &modified);
        let again = b.gather_rows(&[1, 8]);
        assert!(again.max_abs_diff(&modified) < 1e-6);
    }

    #[test]
    fn matches_tt_bag_pooling_semantics() {
        // Dense and TT bags must implement the same pooling contract.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dense = EmbeddingBag::new(30, 8, 0.3, &mut rng);
        let indices = [1u32, 5, 1, 9];
        let offsets = [0u32, 3, 4];
        let out = dense.forward(&indices, &offsets);
        // sample 0 = row1 + row5 + row1
        for c in 0..8 {
            let expect = 2.0 * dense.weight.get(1, c) + dense.weight.get(5, c);
            assert!((out.get(0, c) - expect).abs() < 1e-5);
        }
    }
}
