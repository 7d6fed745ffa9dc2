//! Eff-TT backward pass (paper §III-B).
//!
//! Given the loss gradient of the pooled embeddings, training a TT table
//! means producing core gradients and updating the cores. The Eff-TT
//! schedule:
//!
//! 1. **In-advance gradient aggregation** — embedding-row gradients are
//!    scatter-added per *unique* index slot before any tensor work, so the
//!    expensive chain-rule products run once per unique index instead of
//!    once per lookup (paper Figure 6b, step 1). With
//!    [`BackwardStrategy::PerLookup`] the plan keeps per-lookup slots and
//!    the products run per lookup — TT-Rec's schedule (Figure 6a).
//! 2. **Chain backward, level by level** — for each level `t` (deepest
//!    first), two conflict-free parallel passes:
//!    * *chain pass*: `dP_{t-1}[p] += dP_t[c] * G_t[digit(c)]^T` for each
//!      child `c` of parent `p`; parallel over parents, whose children are
//!      contiguous in the plan.
//!    * *core pass*: `dG_t[g] += P_{t-1}[parent(c)]^T * dP_t[c]` for each
//!      slot `c` with digit `g`; parallel over digits, each of which owns
//!      one core slice.
//! 3. **Fused TT-core update** — with `fused_update` the SGD step happens
//!    inside the core pass, so gradients never round-trip through memory;
//!    the unfused path materializes them into gradient arenas and applies a
//!    separate update pass (what TT-Rec pays, and what Adagrad needs: its
//!    step reads the whole core gradient).

use crate::bag::{TtEmbeddingBag, TtWorkspace};
use crate::config::BackwardStrategy;
use crate::plan::LookupPlan;
use el_tensor::gemm::{add_a_bt, add_at_b};
use el_tensor::small::{self, Op};
use el_tensor::Matrix;
use rayon::prelude::*;

impl TtEmbeddingBag {
    /// Backpropagates `d_out` (`batch_size x dim`, the gradient of the
    /// pooled embeddings) and applies an SGD step with learning rate `lr`.
    ///
    /// Requires a preceding [`TtEmbeddingBag::forward`] on the same
    /// workspace.
    pub fn backward_sgd(&mut self, d_out: &Matrix, ws: &mut TtWorkspace, lr: f32) {
        if self.options.fused_update {
            self.backward_pass(d_out, ws, UpdateMode::Fused(lr));
        } else {
            self.backward_pass(d_out, ws, UpdateMode::Materialize);
            let grads = std::mem::take(&mut ws.grads);
            self.apply_grads(&grads, lr);
            ws.grads = grads;
        }
    }

    /// Computes core gradients into `ws.grads` without touching the
    /// parameters — the entry point for optimizers other than SGD (Adagrad
    /// steps each core from these gradients).
    pub fn backward_grads(&mut self, d_out: &Matrix, ws: &mut TtWorkspace) {
        self.backward_pass(d_out, ws, UpdateMode::Materialize);
    }

    /// Applies `w -= lr * g` to every core.
    pub fn apply_grads(&mut self, grads: &[Vec<f32>], lr: f32) {
        assert_eq!(grads.len(), self.order(), "one gradient arena per core");
        for (core, grad) in self.cores.cores.iter_mut().zip(grads) {
            assert_eq!(core.len(), grad.len(), "gradient arena shape mismatch");
            core.par_chunks_mut(4096).zip(grad.par_chunks(4096)).for_each(|(w, g)| {
                for (wv, gv) in w.iter_mut().zip(g) {
                    *wv -= lr * gv;
                }
            });
        }
    }

    fn backward_pass(&mut self, d_out: &Matrix, ws: &mut TtWorkspace, mode: UpdateMode) {
        let d = self.order();
        let n = self.dim();
        let want_dedup = self.options.backward == BackwardStrategy::Aggregated;

        // Reuse the forward plan and partial products when the dedup
        // setting matches; otherwise re-analyze and recompute the chain —
        // the recomputation cost is part of what the per-lookup baseline
        // pays.
        let plan = match ws.plan.take() {
            Some(p) if p.dedup == want_dedup => p,
            Some(p) => {
                // Reconstruct the lookup index values from the forward plan
                // (slot values are the original indices), re-analyze into
                // the spare plan object, and park the forward plan as the
                // next spare — both plan objects keep their capacity, so
                // even the perpetual-rebuild baseline reaches a
                // zero-allocation steady state.
                let analysis = crate::timing::probe();
                // PANIC-OK: every built plan carries >= 2 levels (asserted in build).
                let last = p.levels.last().expect("plans always have levels");
                ws.index_scratch.clear();
                ws.index_scratch
                    .extend(p.lookup_slot.iter().map(|&s| last.values[s as usize] as u32));
                let mut rebuilt = ws.alt_plan.take().unwrap_or_default();
                if self.options.parallel_analysis {
                    rebuilt.par_build_into(
                        &ws.index_scratch,
                        &p.sample_offsets,
                        &self.cores.row_dims,
                        want_dedup,
                        &mut ws.plan_scratch,
                    );
                } else {
                    rebuilt.build_into(
                        &ws.index_scratch,
                        &p.sample_offsets,
                        &self.cores.row_dims,
                        want_dedup,
                        &mut ws.plan_scratch,
                    );
                }
                ws.alt_plan = Some(p);
                analysis.accumulate(&mut ws.timers.analysis_ns);
                self.compute_levels(&rebuilt, &mut ws.levels, &mut ws.batch);
                rebuilt
            }
            // PANIC-OK: documented API contract — backward without forward is a caller bug.
            None => panic!("backward requires a preceding forward on this workspace"),
        };
        let bwd = crate::timing::probe();
        assert_eq!(d_out.rows(), plan.batch_size, "gradient batch size mismatch");
        assert_eq!(d_out.cols(), n, "gradient dim mismatch");

        // Stage 1: aggregate embedding gradients per slot (per unique index
        // when deduplicating).
        let slots = plan.num_rows();
        ws.dlevels.resize_with(d, Vec::new);
        {
            let dlast = &mut ws.dlevels[d - 1];
            dlast.clear();
            dlast.resize(slots * n, 0.0);
            let d_out_buf = d_out.as_slice();
            dlast.par_chunks_mut(n).enumerate().for_each(|(slot, acc)| {
                for &j in plan.slot_lookups.group(slot) {
                    let s = plan.sample_of_lookup[j as usize] as usize;
                    let src = &d_out_buf[s * n..(s + 1) * n];
                    for (a, v) in acc.iter_mut().zip(src) {
                        *a += v;
                    }
                }
            });
        }

        if matches!(mode, UpdateMode::Materialize) {
            ws.grads.resize_with(d, Vec::new);
            for (k, g) in ws.grads.iter_mut().enumerate() {
                g.clear();
                g.resize(self.cores.cores[k].len(), 0.0);
            }
        }

        // Stage 2: walk levels deepest-first.
        for t in (1..d).rev() {
            self.chain_pass(&plan, ws, t);
            self.core_pass(&plan, ws, t, mode);
        }
        self.level0_pass(&plan, ws, mode);

        bwd.accumulate(&mut ws.timers.backward_ns);
        ws.plan = Some(plan);
    }

    /// `dP_{t-1}[p] += dP_t[c] * G_t[digit(c)]^T` over children `c` of `p`.
    fn chain_pass(&self, plan: &LookupPlan, ws: &mut TtWorkspace, t: usize) {
        let level = &plan.levels[t];
        let m = self.prod_n(t - 1);
        let r_prev = self.cores.ranks[t];
        let k_dim = self.cores.col_dims[t] * self.cores.ranks[t + 1];
        let width_t = self.level_width(t);
        let width_prev = if t == 1 { self.cores.slice_len(0) } else { self.level_width(t - 1) };
        let prev_count = plan.levels[t - 1].len();
        let slice_t = self.cores.slice_len(t);
        let core_t = &self.cores.cores[t];

        let (dprev, dcur) = split_pair(&mut ws.dlevels, t);
        dprev.clear();
        dprev.resize(prev_count * width_prev, 0.0);
        debug_assert_eq!(width_prev, m * r_prev);

        // The table kernel reads G_t^T, so every digit's slice is
        // transposed once per call — before the core pass updates G_t.
        let table = small::resolve(Op::AddABt, [m, r_prev, k_dim]);
        let mut gt_buf = GT_SCRATCH.take();
        if table.is_some() {
            transpose_slices(core_t, r_prev, k_dim, &mut gt_buf);
        }
        let gt = &gt_buf[..];
        let run = |(p, out): (usize, &mut [f32])| {
            let lo = level.child_offsets[p] as usize;
            let hi = level.child_offsets[p + 1] as usize;
            for c in lo..hi {
                let g = level.digit[c] as usize * slice_t;
                let dp = &dcur[c * width_t..(c + 1) * width_t];
                // dP_t[c] viewed as (m, k_dim); G_t slice is (r_prev, k_dim).
                match table {
                    Some(kern) => kern(dp, &gt[g..g + slice_t], out),
                    None => add_a_bt(m, r_prev, k_dim, dp, &core_t[g..g + slice_t], out),
                }
            }
        };
        dprev.par_chunks_mut(width_prev).enumerate().for_each(run);
        GT_SCRATCH.set(gt_buf);
    }

    /// `dG_t[g] += P_{t-1}[parent(c)]^T * dP_t[c]` over slots with digit
    /// `g`, optionally fusing the SGD step.
    fn core_pass(&mut self, plan: &LookupPlan, ws: &mut TtWorkspace, t: usize, mode: UpdateMode) {
        let level = &plan.levels[t];
        let p_rows = self.prod_n(t - 1);
        let r_prev = self.cores.ranks[t];
        let k_dim = self.cores.col_dims[t] * self.cores.ranks[t + 1];
        let width_t = self.level_width(t);
        let width_prev = if t == 1 { self.cores.slice_len(0) } else { self.level_width(t - 1) };
        let slice_t = self.cores.slice_len(t);
        let dcur = &ws.dlevels[t];
        // P_{t-1}: core-0 slices at t == 1, otherwise the forward buffer.
        // Splitting the core list lets the fused path mutate core t while
        // core 0 serves as the read-only parent arena.
        let (cores_lo, cores_hi) = self.cores.cores.split_at_mut(t);
        let core_t = &mut cores_hi[0];
        let level0_digits = &plan.levels[0].digit;
        let p_arena: &[f32] = if t == 1 { &cores_lo[0] } else { &ws.levels[t - 1] };
        let parent_off = move |p: usize| {
            if t == 1 {
                level0_digits[p] as usize * width_prev
            } else {
                p * width_prev
            }
        };

        // Each digit owns one slice of core t, so writes are disjoint. The
        // per-slice gradient accumulator lives in thread-local storage so
        // the steady-state backward pass performs no heap allocation.
        let table = small::resolve(Op::AddAtB, [p_rows, r_prev, k_dim]);
        let accumulate = |g: usize, dst: &mut [f32], scale: f32| {
            CORE_GRAD_SCRATCH.with(|cell| {
                let mut tmp = cell.borrow_mut();
                tmp.clear();
                tmp.resize(slice_t, 0.0);
                for &item in level.digit_groups.group(g) {
                    let parent = level.parent[item as usize] as usize;
                    let a = &p_arena[parent_off(parent)..][..width_prev];
                    let dp = &dcur[item as usize * width_t..][..width_t];
                    // A is (p_rows, r_prev); dP viewed as (p_rows, k_dim).
                    match table {
                        Some(kern) => kern(a, dp, &mut tmp[..]),
                        None => add_at_b(p_rows, r_prev, k_dim, a, dp, &mut tmp[..]),
                    }
                }
                for (w, g) in dst.iter_mut().zip(tmp.iter()) {
                    *w += scale * g;
                }
            });
        };

        match mode {
            UpdateMode::Fused(lr) => {
                // Ordering guarantee: the chain pass for this level already
                // consumed G_t, so updating it here cannot corrupt any
                // remaining gradient computation.
                core_t
                    .par_chunks_mut(slice_t)
                    .enumerate()
                    .for_each(|(g, dst)| accumulate(g, dst, -lr));
            }
            UpdateMode::Materialize => {
                let mut grad = std::mem::take(&mut ws.grads[t]);
                grad.par_chunks_mut(slice_t)
                    .enumerate()
                    .for_each(|(g, dst)| accumulate(g, dst, 1.0));
                ws.grads[t] = grad;
            }
        }
    }

    /// Level 0: `dG_1[g] += dP_0[slot]` — the chain endpoint, no GEMM.
    fn level0_pass(&mut self, plan: &LookupPlan, ws: &mut TtWorkspace, mode: UpdateMode) {
        let level = &plan.levels[0];
        let width = self.cores.slice_len(0);
        let dp0 = &ws.dlevels[0];

        let accumulate = |g: usize, dst: &mut [f32], scale: f32| {
            for &item in level.digit_groups.group(g) {
                let src = &dp0[item as usize * width..][..width];
                for (w, v) in dst.iter_mut().zip(src) {
                    *w += scale * v;
                }
            }
        };

        match mode {
            UpdateMode::Fused(lr) => {
                let core = &mut self.cores.cores[0];
                core.par_chunks_mut(width).enumerate().for_each(|(g, dst)| accumulate(g, dst, -lr));
            }
            UpdateMode::Materialize => {
                let mut grad = std::mem::take(&mut ws.grads[0]);
                grad.par_chunks_mut(width).enumerate().for_each(|(g, dst)| accumulate(g, dst, 1.0));
                ws.grads[0] = grad;
            }
        }
    }
}

#[derive(Clone, Copy)]
enum UpdateMode {
    Fused(f32),
    Materialize,
}

std::thread_local! {
    /// Per-thread core-gradient slice accumulator for the core pass.
    static CORE_GRAD_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Grow-only `G_t^T` buffer of the chain pass, shared by every table on
    /// the thread. Taken for the pass and put back, so a pass re-entered on
    /// the same thread (a pool thread stealing another table's backward)
    /// finds an empty buffer instead of a borrowed one.
    static GT_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Writes each `rows x cols` slice of `core` transposed (`cols x rows`) to
/// the same offset of `out`, growing `out` to at least `core.len()`.
fn transpose_slices(core: &[f32], rows: usize, cols: usize, out: &mut Vec<f32>) {
    if out.len() < core.len() {
        out.resize(core.len(), 0.0);
    }
    let slice = rows * cols;
    for (src, dst) in core.chunks_exact(slice).zip(out.chunks_exact_mut(slice)) {
        for (r, row) in src.chunks_exact(cols).enumerate() {
            for (q, &v) in row.iter().enumerate() {
                dst[q * rows + r] = v;
            }
        }
    }
}

/// Splits `dlevels` at `t`, returning `(&mut dlevels[t-1], &dlevels[t])`.
fn split_pair(dlevels: &mut [Vec<f32>], t: usize) -> (&mut Vec<f32>, &Vec<f32>) {
    let (lo, hi) = dlevels.split_at_mut(t);
    (&mut lo[t - 1], &hi[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackwardStrategy, ForwardStrategy, TtConfig, TtOptions};
    use rand::SeedableRng;

    fn bag(rows: usize, dim: usize, rank: usize, seed: u64) -> TtEmbeddingBag {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TtEmbeddingBag::new(&TtConfig::new(rows, dim, rank), &mut rng)
    }

    /// Numerical-gradient check of the full pipeline: perturb one core
    /// parameter, measure the loss change, compare with the analytic
    /// gradient. Loss = sum(out * w) for a fixed random weight matrix.
    #[test]
    fn analytic_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut b = bag(24, 8, 3, 10);
        let indices = [3u32, 17, 3, 23, 0];
        let offsets = [0u32, 2, 5];
        let w = Matrix::uniform(2, 8, 1.0, &mut rng);
        let mut ws = TtWorkspace::new();

        // analytic gradients
        b.options.fused_update = false;
        let _ = b.forward(&indices, &offsets, &mut ws);
        b.backward_grads(&w, &mut ws);
        let grads: Vec<Vec<f32>> = ws.grads.clone();

        let loss = |b: &TtEmbeddingBag, ws: &mut TtWorkspace| -> f64 {
            let out = b.forward(&indices, &offsets, ws);
            out.as_slice().iter().zip(w.as_slice()).map(|(o, wv)| (*o as f64) * (*wv as f64)).sum()
        };

        let eps = 1e-3f32;
        #[allow(clippy::needless_range_loop)] // probing by core index
        for core_idx in 0..3 {
            // probe a few parameters in each core
            for param in [0usize, 7, b.cores().cores[core_idx].len() - 1] {
                let orig = b.cores.cores[core_idx][param];
                b.cores.cores[core_idx][param] = orig + eps;
                let up = loss(&b, &mut ws);
                b.cores.cores[core_idx][param] = orig - eps;
                let down = loss(&b, &mut ws);
                b.cores.cores[core_idx][param] = orig;
                let numeric = (up - down) / (2.0 * eps as f64);
                let analytic = grads[core_idx][param] as f64;
                assert!(
                    (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                    "core {core_idx} param {param}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn aggregated_matches_per_lookup_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let indices: Vec<u32> = (0..40).map(|i| (i * 13) % 50).collect();
        let offsets: Vec<u32> = (0..=10).map(|s| s * 4).collect();
        let d_out = Matrix::uniform(10, 16, 1.0, &mut rng);

        let grads_for = |strategy: BackwardStrategy| {
            let mut b = bag(50, 16, 6, 13);
            b.options =
                TtOptions { backward: strategy, fused_update: false, ..TtOptions::default() };
            let mut ws = TtWorkspace::new();
            let _ = b.forward(&indices, &offsets, &mut ws);
            b.backward_grads(&d_out, &mut ws);
            ws.grads.clone()
        };

        let agg = grads_for(BackwardStrategy::Aggregated);
        let per = grads_for(BackwardStrategy::PerLookup);
        for (a, p) in agg.iter().zip(&per) {
            for (x, y) in a.iter().zip(p) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn fused_and_unfused_updates_agree() {
        let indices: Vec<u32> = (0..30).map(|i| (i * 7) % 40).collect();
        let offsets: Vec<u32> = (0..=6).map(|s| s * 5).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let d_out = Matrix::uniform(6, 8, 1.0, &mut rng);

        let run = |fused: bool| {
            let mut b = bag(40, 8, 4, 15);
            b.options.fused_update = fused;
            let mut ws = TtWorkspace::new();
            let _ = b.forward(&indices, &offsets, &mut ws);
            b.backward_sgd(&d_out, &mut ws, 0.05);
            b.cores().cores.clone()
        };
        let fused = run(true);
        let unfused = run(false);
        for (f, u) in fused.iter().zip(&unfused) {
            for (x, y) in f.iter().zip(u) {
                assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn sgd_reduces_reconstruction_loss() {
        // Train the table to match a fixed target for a handful of rows:
        // loss = 0.5 * ||out - target||^2, d_out = out - target.
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let mut b = bag(20, 8, 4, 17);
        let indices = [1u32, 5, 9, 13];
        let offsets = [0u32, 1, 2, 3, 4];
        let target = Matrix::uniform(4, 8, 0.5, &mut rng);
        let mut ws = TtWorkspace::new();

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..400 {
            let out = b.forward(&indices, &offsets, &mut ws);
            let mut d = out.clone();
            d.axpy(-1.0, &target);
            last_loss = d.frobenius_norm();
            first_loss.get_or_insert(last_loss);
            b.backward_sgd(&d, &mut ws, 0.05);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.05,
            "loss did not drop: {} -> {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn backward_without_forward_panics() {
        let mut b = bag(10, 4, 2, 18);
        let mut ws = TtWorkspace::new();
        let d = Matrix::zeros(1, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.backward_sgd(&d, &mut ws, 0.1);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn mismatched_gradient_shape_panics() {
        let mut b = bag(10, 4, 2, 19);
        let mut ws = TtWorkspace::new();
        let _ = b.forward(&[1, 2], &[0, 2], &mut ws);
        let d = Matrix::zeros(3, 4); // batch size was 1
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.backward_sgd(&d, &mut ws, 0.1);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn naive_forward_then_aggregated_backward_rebuilds_plan() {
        // Strategy mismatch between forward and backward must still give
        // correct gradients (the plan is rebuilt internally).
        let indices: Vec<u32> = vec![4, 4, 9, 1];
        let offsets: Vec<u32> = vec![0, 2, 4];
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let d_out = Matrix::uniform(2, 8, 1.0, &mut rng);

        let mut mixed = bag(12, 8, 3, 21);
        mixed.options = TtOptions {
            forward: ForwardStrategy::Naive,
            backward: BackwardStrategy::Aggregated,
            fused_update: false,
            parallel_analysis: true,
        };
        let mut ws = TtWorkspace::new();
        let _ = mixed.forward(&indices, &offsets, &mut ws);
        mixed.backward_grads(&d_out, &mut ws);
        let got = ws.grads.clone();

        let mut pure = bag(12, 8, 3, 21);
        pure.options = TtOptions { fused_update: false, ..TtOptions::default() };
        let mut ws2 = TtWorkspace::new();
        let _ = pure.forward(&indices, &offsets, &mut ws2);
        pure.backward_grads(&d_out, &mut ws2);

        for (a, b) in got.iter().zip(&ws2.grads) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    /// Totality of the small-shape table: every product the chain issues
    /// for an order-3, dim-32 table at the workloads' ranks resolves to a
    /// table kernel; an off-table shape resolves to `None`.
    #[test]
    fn every_dim32_level_shape_resolves_to_a_table_kernel() {
        for rows in [4096, 100_000, 1_000_000] {
            for rank in [8, 16, 32] {
                let b = bag(rows, 32, rank, 23);
                for t in 1..b.order() {
                    let m = b.prod_n(t - 1);
                    let r = b.cores.ranks[t];
                    let n = b.cores.col_dims[t] * b.cores.ranks[t + 1];
                    for (op, dims) in
                        [(Op::GemmNn, [m, n, r]), (Op::AddABt, [m, r, n]), (Op::AddAtB, [m, r, n])]
                    {
                        let found = small::resolve(op, dims).is_some();
                        assert!(found, "{rows} rows, rank {rank}: {op:?} {dims:?} off the table");
                    }
                }
            }
        }
        // dim 16: col_dims [2, 2, 4], so level 1 is (2, 16, 8).
        let off = bag(4096, 16, 8, 24);
        let n = off.cores.col_dims[1] * off.cores.ranks[2];
        assert!(small::resolve(Op::GemmNn, [off.prod_n(0), n, off.cores.ranks[1]]).is_none());
    }

    #[test]
    fn apply_grads_is_plain_sgd() {
        let mut b = bag(10, 4, 2, 22);
        let before = b.cores().cores.clone();
        let grads: Vec<Vec<f32>> = b.cores().cores.iter().map(|c| vec![1.0; c.len()]).collect();
        b.apply_grads(&grads, 0.1);
        for (c, orig) in b.cores().cores.iter().zip(&before) {
            for (x, o) in c.iter().zip(orig) {
                assert!((x - (o - 0.1)).abs() < 1e-6);
            }
        }
    }
}
