//! The Eff-TT embedding bag — EL-Rec's drop-in replacement for
//! `nn.EmbeddingBag`.
//!
//! [`TtEmbeddingBag`] owns the TT cores of one compressed embedding table
//! and exposes the same CSR `(indices, offsets)` lookup interface as the
//! PyTorch API it replaces (sum pooling). The forward and backward kernels
//! live in [`crate::forward`] and [`crate::backward`]; this module holds the
//! type, its construction and shared plumbing.

use crate::config::{TtConfig, TtOptions};
use crate::plan::{LookupPlan, PlanScratch};
use crate::timing::StageTimers;
use el_tensor::batched::{GemmBatch, GemmTask};
use el_tensor::tt::TtCores;
use rand::Rng;

/// Reusable scratch space for Eff-TT kernels.
///
/// Holds the lookup plan and the per-level partial-product buffers (the
/// *reuse buffer* of paper §III-A plus its gradient twin). Reusing one
/// workspace across batches avoids reallocation on the training hot loop.
#[derive(Default)]
pub struct TtWorkspace {
    /// Plan of the most recent forward pass.
    pub(crate) plan: Option<LookupPlan>,
    /// Spare plan cycled with `plan` when backward re-analyzes under a
    /// different dedup setting; keeping both retains their capacity.
    pub(crate) alt_plan: Option<LookupPlan>,
    /// Sort/cursor scratch for plan construction.
    pub(crate) plan_scratch: PlanScratch,
    /// Index reconstruction scratch for backward plan rebuilds.
    pub(crate) index_scratch: Vec<u32>,
    /// Task list reused by every chained-GEMM launch.
    pub(crate) batch: GemmBatch,
    /// Partial products per level; `levels[0]` stays empty (level 0 aliases
    /// core 0 slices).
    pub(crate) levels: Vec<Vec<f32>>,
    /// Gradient buffers per level.
    pub(crate) dlevels: Vec<Vec<f32>>,
    /// Core-gradient arenas for the unfused-update path.
    pub(crate) grads: Vec<Vec<f32>>,
    /// Cumulative analysis/forward/backward wall time.
    pub(crate) timers: StageTimers,
}

impl TtWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative stage timers (analysis vs forward vs backward).
    pub fn stage_timers(&self) -> StageTimers {
        self.timers
    }

    /// Zeroes the stage timers.
    pub fn reset_stage_timers(&mut self) {
        self.timers.reset();
    }

    /// The plan computed by the last forward pass, if any.
    pub fn plan(&self) -> Option<&LookupPlan> {
        self.plan.as_ref()
    }

    /// Core gradients produced by the latest
    /// [`TtEmbeddingBag::backward_grads`] call, one arena per core.
    pub fn grads(&self) -> &[Vec<f32>] {
        &self.grads
    }

    /// Reuse statistics of the last forward pass: how much work the
    /// Eff-TT optimizations removed for that batch.
    pub fn last_stats(&self) -> Option<ReuseStats> {
        let plan = self.plan.as_ref()?;
        let d = plan.levels.len();
        Some(ReuseStats {
            nnz: plan.nnz,
            unique_rows: plan.num_rows(),
            unique_prefixes: if d >= 2 { plan.levels[d - 2].len() } else { plan.num_rows() },
            gemm_tasks: plan.forward_tasks(),
            // without any dedup, every lookup runs d-1 chain GEMMs
            gemm_tasks_naive: plan.nnz * (d - 1),
        })
    }

    /// Bytes currently held by the reuse and gradient buffers.
    pub fn scratch_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        (self.levels.iter().map(Vec::capacity).sum::<usize>()
            + self.dlevels.iter().map(Vec::capacity).sum::<usize>()
            + self.grads.iter().map(Vec::capacity).sum::<usize>())
            * f
            + self.batch.tasks.capacity() * std::mem::size_of::<GemmTask>()
            + self.index_scratch.capacity() * std::mem::size_of::<u32>()
            + self.plan_scratch.scratch_bytes()
    }
}

/// Work-reduction statistics of one analyzed batch (paper §III-A's reuse
/// and §III-B's aggregation, quantified).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReuseStats {
    /// Total lookups in the batch.
    pub nnz: usize,
    /// Distinct rows (what in-advance aggregation reduces backward work to).
    pub unique_rows: usize,
    /// Distinct reuse-buffer entries (first `d-1` cores' products).
    pub unique_prefixes: usize,
    /// Chain GEMM tasks the plan actually schedules.
    pub gemm_tasks: usize,
    /// Tasks a fully naive per-lookup schedule would run.
    pub gemm_tasks_naive: usize,
}

impl ReuseStats {
    /// Fraction of chain work eliminated by reuse (0 = none).
    pub fn work_saved(&self) -> f64 {
        if self.gemm_tasks_naive == 0 {
            return 0.0;
        }
        1.0 - self.gemm_tasks as f64 / self.gemm_tasks_naive as f64
    }
}

/// A TT-compressed embedding table with EL-Rec's efficient kernels.
pub struct TtEmbeddingBag {
    pub(crate) cores: TtCores,
    /// Logical row count (capacity may be padded above this).
    num_rows: usize,
    /// Kernel selection; public so ablation benches can flip strategies.
    pub options: TtOptions,
}

impl TtEmbeddingBag {
    /// Creates a randomly initialized table from a configuration.
    pub fn new(config: &TtConfig, rng: &mut impl Rng) -> Self {
        let cores = TtCores::random(
            config.row_dims.clone(),
            config.col_dims.clone(),
            config.ranks.clone(),
            config.init_std,
            rng,
        );
        Self { cores, num_rows: config.num_rows, options: TtOptions::default() }
    }

    /// Wraps pre-existing cores (e.g. from TT-SVD of a dense table).
    pub fn from_cores(cores: TtCores, num_rows: usize) -> Self {
        assert!(cores.row_capacity() >= num_rows, "cores cannot address all rows");
        Self { cores, num_rows, options: TtOptions::default() }
    }

    /// Overrides the kernel options (builder style).
    pub fn with_options(mut self, options: TtOptions) -> Self {
        self.options = options;
        self
    }

    /// Logical number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cores.embedding_dim()
    }

    /// Number of TT cores.
    pub fn order(&self) -> usize {
        self.cores.order()
    }

    /// The underlying cores (read-only).
    pub fn cores(&self) -> &TtCores {
        &self.cores
    }

    /// Mutable access to the cores — used by optimizers that step the
    /// cores outside the fused SGD update (Adagrad).
    pub fn cores_mut(&mut self) -> &mut TtCores {
        &mut self.cores
    }

    /// Parameter count across cores.
    pub fn param_count(&self) -> usize {
        self.cores.param_count()
    }

    /// Core footprint in bytes (the number Table III compares against the
    /// dense footprint).
    pub fn footprint_bytes(&self) -> usize {
        self.cores.footprint_bytes()
    }

    /// Compression ratio versus the logical dense table.
    pub fn compression_ratio(&self) -> f64 {
        self.cores.compression_ratio(self.num_rows)
    }

    /// Decompresses a single row (reference path; the batched kernels never
    /// call this).
    pub fn reconstruct_row(&self, index: usize, out: &mut [f32]) {
        assert!(index < self.num_rows, "row {index} out of {} rows", self.num_rows);
        self.cores.reconstruct_row(index, out);
    }

    /// `prod_{l<=t} n_l` — row count of the level-`t` partial product.
    #[inline]
    pub(crate) fn prod_n(&self, t: usize) -> usize {
        self.cores.col_dims[..=t].iter().product()
    }

    /// Element width of one slot in the level-`t` buffer.
    #[inline]
    pub(crate) fn level_width(&self, t: usize) -> usize {
        self.prod_n(t) * self.cores.ranks[t + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_from_config() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bag = TtEmbeddingBag::new(&TtConfig::new(1000, 16, 8), &mut rng);
        assert_eq!(bag.num_rows(), 1000);
        assert_eq!(bag.dim(), 16);
        assert_eq!(bag.order(), 3);
        assert!(bag.compression_ratio() > 1.0);
    }

    #[test]
    fn level_widths_follow_col_dims_and_ranks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let bag = TtEmbeddingBag::new(&TtConfig::new(64, 8, 4), &mut rng);
        let d = bag.order();
        // last level holds full rows
        assert_eq!(bag.level_width(d - 1), bag.dim());
        // level 0 width equals core-0 slice length
        assert_eq!(bag.level_width(0), bag.cores().slice_len(0));
    }

    #[test]
    fn reconstruct_row_respects_logical_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bag = TtEmbeddingBag::new(&TtConfig::new(10, 4, 2), &mut rng);
        let mut row = vec![0.0; 4];
        bag.reconstruct_row(9, &mut row); // fine
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut row = vec![0.0; 4];
            bag.reconstruct_row(10, &mut row); // padded region: rejected
        }));
        assert!(r.is_err());
    }

    #[test]
    fn workspace_reports_scratch() {
        let ws = TtWorkspace::new();
        assert_eq!(ws.scratch_bytes(), 0);
        assert!(ws.plan().is_none());
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::config::TtConfig;
    use rand::SeedableRng;

    #[test]
    fn reuse_stats_quantify_dedup() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bag = TtEmbeddingBag::new(&TtConfig::new(64, 8, 4), &mut rng);
        let mut ws = TtWorkspace::new();
        // heavy duplication: 8 lookups, 2 distinct rows sharing one prefix
        let _ = bag.forward(&[0, 1, 0, 1, 0, 1, 0, 1], &[0, 8], &mut ws);
        let stats = ws.last_stats().expect("forward ran");
        assert_eq!(stats.nnz, 8);
        assert_eq!(stats.unique_rows, 2);
        assert_eq!(stats.unique_prefixes, 1, "0 and 1 share the depth-2 prefix");
        assert!(stats.gemm_tasks < stats.gemm_tasks_naive);
        assert!(stats.work_saved() > 0.7, "saved {}", stats.work_saved());
    }

    #[test]
    fn stats_absent_before_any_forward() {
        assert!(TtWorkspace::new().last_stats().is_none());
    }
}
