//! Eff-TT forward pass (paper §III-A).
//!
//! The lookup of a whole batch proceeds in three stages:
//!
//! 1. **Pointer preparation** — [`LookupPlan::build`] decides which partial
//!    products are inevitable (Algorithm 1's `Buf_flag` dedup) and lays out
//!    slot/parent/digit tables;
//! 2. **Chained batched GEMM** — one [`batched_gemm`] launch per chain
//!    level computes every inevitable partial product into the level
//!    buffers; the buffer of level `d-2` is the paper's *reuse buffer*
//!    (product of the first cores), the last level holds the decompressed
//!    unique rows;
//! 3. **Pooling** — per-sample sum of its rows (the `EmbeddingBag` sum
//!    semantics), parallel over samples.
//!
//! With [`ForwardStrategy::Naive`] the plan keeps one slot per lookup, so
//! every chain is recomputed — the TT-Rec behaviour the paper's Figure 17
//! uses as its baseline.

use crate::bag::{TtEmbeddingBag, TtWorkspace};
use crate::config::ForwardStrategy;
use crate::plan::LookupPlan;
use el_tensor::batched::{batched_gemm, GemmBatch};
use el_tensor::Matrix;
use rayon::prelude::*;

impl TtEmbeddingBag {
    /// Looks up and sum-pools a batch given in CSR form, storing the plan
    /// and partial products in `ws` for the subsequent backward pass.
    ///
    /// Returns a `batch_size x dim` matrix of pooled embeddings.
    pub fn forward(&self, indices: &[u32], offsets: &[u32], ws: &mut TtWorkspace) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(indices, offsets, ws, &mut out);
        out
    }

    /// [`TtEmbeddingBag::forward`] into a caller-owned output matrix.
    ///
    /// `out` is reshaped (and zeroed) in place; together with the recycled
    /// plan and level buffers in `ws` this makes the steady-state forward
    /// pass allocation-free — the training loop passes the same `out` and
    /// `ws` every batch and nothing reallocates once capacities have grown
    /// to the batch shape.
    // CONTRACT: zero-alloc
    // CONTRACT: non-blocking
    pub fn forward_into(
        &self,
        indices: &[u32],
        offsets: &[u32],
        ws: &mut TtWorkspace,
        out: &mut Matrix,
    ) {
        for &i in indices {
            assert!((i as usize) < self.num_rows(), "index {i} out of {} rows", self.num_rows());
        }
        let dedup = self.options.forward == ForwardStrategy::Reuse;
        // Recycle whichever plan object is idle; the builders reuse all of
        // its internal vectors.
        let analysis = crate::timing::probe();
        let mut plan = ws.plan.take().or_else(|| ws.alt_plan.take()).unwrap_or_default();
        if self.options.parallel_analysis {
            plan.par_build_into(
                indices,
                offsets,
                &self.cores.row_dims,
                dedup,
                &mut ws.plan_scratch,
            );
        } else {
            plan.build_into(indices, offsets, &self.cores.row_dims, dedup, &mut ws.plan_scratch);
        }
        analysis.accumulate(&mut ws.timers.analysis_ns);

        let fwd = crate::timing::probe();
        self.compute_levels(&plan, &mut ws.levels, &mut ws.batch);
        self.pool_into(&plan, ws.levels.last().map_or(&[][..], |b| &b[..]), out);
        ws.plan = Some(plan);
        fwd.accumulate(&mut ws.timers.forward_ns);
        ws.timers.batches += 1;
    }

    /// Executes the chained batched GEMMs for `plan` into `bufs`.
    ///
    /// `bufs[t]` receives the level-`t` partial products; `bufs[0]` is left
    /// empty because level 0 aliases core-0 slices directly (no compute is
    /// needed for a single core).
    pub(crate) fn compute_levels(
        &self,
        plan: &LookupPlan,
        bufs: &mut Vec<Vec<f32>>,
        batch: &mut GemmBatch,
    ) {
        let d = self.order();
        bufs.resize_with(d, Vec::new);
        bufs[0].clear();

        for t in 1..d {
            let level = &plan.levels[t];
            let width = self.level_width(t);
            // m/k/n of every GEMM at this level (uniform — the batched
            // contract of cublasGemmBatchedEx).
            let m = self.prod_n(t - 1);
            let k = self.cores.ranks[t];
            let n = self.cores.col_dims[t] * self.cores.ranks[t + 1];

            batch.reset(m, n, k);
            batch.tasks.reserve(level.len());
            let parent_width =
                if t == 1 { self.cores.slice_len(0) } else { self.level_width(t - 1) };
            let slice_t = self.cores.slice_len(t);
            for slot in 0..level.len() {
                let a_off = if t == 1 {
                    // level-0 slot aliases a core-0 slice selected by digit
                    let p = level.parent[slot] as usize;
                    plan.levels[0].digit[p] as usize * parent_width
                } else {
                    level.parent[slot] as usize * parent_width
                };
                let b_off = level.digit[slot] as usize * slice_t;
                batch.push(a_off, b_off, slot * width);
            }

            let (prev, cur) = split_levels(bufs, t);
            // Every slot is written by exactly one beta = 0 task covering
            // its full width, so the buffer needs sizing, not zeroing.
            debug_assert_eq!(m * n, width);
            ensure_len_f32(cur, level.len() * width);
            let a_arena: &[f32] = if t == 1 { &self.cores.cores[0] } else { &prev[..] };
            batched_gemm(batch, a_arena, &self.cores.cores[t], cur);
        }
    }

    /// Sum-pools decompressed rows into per-sample embeddings.
    fn pool_into(&self, plan: &LookupPlan, rows: &[f32], out: &mut Matrix) {
        let n = self.dim();
        out.reset_zeroed(plan.batch_size, n);
        out.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(s, dst)| {
            let lo = plan.sample_offsets[s] as usize;
            let hi = plan.sample_offsets[s + 1] as usize;
            for &slot in &plan.lookup_slot[lo..hi] {
                let src = &rows[slot as usize * n..(slot as usize + 1) * n];
                for (d, v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        });
    }
}

/// Splits the level buffers at `t`, returning `(&bufs[t-1], &mut bufs[t])`.
fn split_levels(bufs: &mut [Vec<f32>], t: usize) -> (&Vec<f32>, &mut Vec<f32>) {
    let (lo, hi) = bufs.split_at_mut(t);
    (&lo[t - 1], &mut hi[0])
}

/// Sizes `buf` to exactly `len` elements without reallocating on shrink;
/// growth within capacity only zero-fills the gap (which the batched GEMM
/// overwrites anyway).
fn ensure_len_f32(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    } else {
        buf.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TtConfig, TtOptions};
    use rand::SeedableRng;

    fn bag(rows: usize, dim: usize, rank: usize, seed: u64) -> TtEmbeddingBag {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TtEmbeddingBag::new(&TtConfig::new(rows, dim, rank), &mut rng)
    }

    /// Oracle: pool by decompressing each row via the reference chain.
    fn pool_reference(bag: &TtEmbeddingBag, indices: &[u32], offsets: &[u32]) -> Matrix {
        let n = bag.dim();
        let mut out = Matrix::zeros(offsets.len() - 1, n);
        let mut row = vec![0.0f32; n];
        for s in 0..offsets.len() - 1 {
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                bag.cores().reconstruct_row(i as usize, &mut row);
                for (d, v) in out.row_mut(s).iter_mut().zip(&row) {
                    *d += v;
                }
            }
        }
        out
    }

    #[test]
    fn reuse_forward_matches_reference() {
        let bag = bag(60, 8, 4, 1);
        let indices = [3u32, 17, 3, 59, 0, 17, 17];
        let offsets = [0u32, 2, 2, 5, 7];
        let mut ws = TtWorkspace::new();
        let got = bag.forward(&indices, &offsets, &mut ws);
        let want = pool_reference(&bag, &indices, &offsets);
        assert!(got.max_abs_diff(&want) < 1e-5, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn naive_forward_matches_reuse_forward() {
        let b = bag(100, 16, 8, 2);
        let indices: Vec<u32> = (0..64).map(|i| (i * 7) % 100).collect();
        let offsets: Vec<u32> = (0..=16).map(|s| s * 4).collect();
        let mut ws = TtWorkspace::new();

        let mut naive = bag(100, 16, 8, 2);
        naive.options =
            TtOptions { forward: crate::config::ForwardStrategy::Naive, ..TtOptions::default() };
        let a = b.forward(&indices, &offsets, &mut ws);
        let c = naive.forward(&indices, &offsets, &mut ws);
        assert!(a.max_abs_diff(&c) < 1e-5);
    }

    #[test]
    fn empty_samples_produce_zero_rows() {
        let b = bag(50, 8, 4, 3);
        let mut ws = TtWorkspace::new();
        let out = b.forward(&[7], &[0, 0, 1, 1], &mut ws);
        assert_eq!(out.rows(), 3);
        assert!(out.row(0).iter().all(|&x| x == 0.0));
        assert!(out.row(2).iter().all(|&x| x == 0.0));
        assert!(out.row(1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn duplicate_indices_add_up() {
        let b = bag(50, 8, 4, 4);
        let mut ws = TtWorkspace::new();
        let once = b.forward(&[11], &[0, 1], &mut ws);
        let thrice = b.forward(&[11, 11, 11], &[0, 3], &mut ws);
        let mut scaled = once.clone();
        scaled.scale(3.0);
        assert!(thrice.max_abs_diff(&scaled) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_lookup_panics() {
        let b = bag(10, 4, 2, 7);
        let mut ws = TtWorkspace::new();
        // capacity may exceed 10; logical bound must still reject 10
        let _ = b.forward(&[10], &[0, 1], &mut ws);
    }

    #[test]
    fn four_core_table_forward_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let cfg = TtConfig::with_order(81, 16, 6, 4);
        let b = TtEmbeddingBag::new(&cfg, &mut rng);
        let indices = [0u32, 80, 40, 40, 13];
        let offsets = [0u32, 3, 5];
        let mut ws = TtWorkspace::new();
        let got = b.forward(&indices, &offsets, &mut ws);
        let want = pool_reference(&b, &indices, &offsets);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn order_two_table_forward_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cfg = TtConfig::with_order(36, 16, 4, 2);
        let b = TtEmbeddingBag::new(&cfg, &mut rng);
        let indices = [0u32, 35, 17];
        let offsets = [0u32, 3];
        let mut ws = TtWorkspace::new();
        let got = b.forward(&indices, &offsets, &mut ws);
        let want = pool_reference(&b, &indices, &offsets);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }
}
