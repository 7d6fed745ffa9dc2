//! Configuration of an Eff-TT table.

use el_tensor::shape::{balanced_factorization, factorize};

/// Which forward kernel the table uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ForwardStrategy {
    /// Per-lookup chain multiplication without any sharing — the TT-Rec
    /// baseline of the paper's comparisons.
    Naive,
    /// Batch-level intermediate-result reuse through the reuse buffer
    /// (paper §III-A, Algorithm 1).
    Reuse,
}

/// Which backward kernel the table uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BackwardStrategy {
    /// One gradient chain per lookup, aggregated into the cores afterwards —
    /// the TT-Rec baseline (paper Figure 6a).
    PerLookup,
    /// In-advance gradient aggregation: embedding gradients are reduced per
    /// unique index before any core-gradient work (paper Figure 6b).
    Aggregated,
}

/// Tuning knobs of one Eff-TT table. Every ablation in the paper's Figure
/// 14/17/18 maps to one of these fields.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TtOptions {
    /// Forward kernel choice.
    pub forward: ForwardStrategy,
    /// Backward kernel choice.
    pub backward: BackwardStrategy,
    /// Fuse the optimizer step into the core-gradient pass (paper §III-B,
    /// "Fused TT Core Update"). When false, gradients are materialized and a
    /// separate update pass runs — the extra memory traffic TT-Rec pays.
    pub fused_update: bool,
    /// Prepare lookup pointers with the rayon-parallel builder
    /// (`LookupPlan::par_build_into`, paper Algorithm 1 run in parallel).
    /// Bit-identical to the sequential builder and safe to leave on: below
    /// the size cutoff (or on a one-thread pool) the sequential path runs.
    pub parallel_analysis: bool,
}

impl Default for TtOptions {
    fn default() -> Self {
        Self {
            forward: ForwardStrategy::Reuse,
            backward: BackwardStrategy::Aggregated,
            fused_update: true,
            parallel_analysis: true,
        }
    }
}

impl TtOptions {
    /// The TT-Rec baseline: no reuse, per-lookup gradients, unfused update.
    /// (Pointer preparation stays parallel — the paper's baseline differs in
    /// kernel strategy, not in how the host prepares pointers.)
    pub fn tt_rec_baseline() -> Self {
        Self {
            forward: ForwardStrategy::Naive,
            backward: BackwardStrategy::PerLookup,
            fused_update: false,
            parallel_analysis: true,
        }
    }
}

/// Shape configuration of a TT table.
#[derive(Clone, Debug)]
pub struct TtConfig {
    /// Logical number of embedding rows (before padding).
    pub num_rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Row factors `m_k`; their product is the padded capacity.
    pub row_dims: Vec<usize>,
    /// Column factors `n_k`; their product equals `dim`.
    pub col_dims: Vec<usize>,
    /// TT ranks `R_0..R_d` (`R_0 = R_d = 1`).
    pub ranks: Vec<usize>,
    /// Standard deviation target of reconstructed rows at init.
    pub init_std: f32,
}

impl TtConfig {
    /// A three-core configuration with uniform rank — the shape the paper
    /// evaluates (rank 128 on V100, 64 on T4).
    pub fn new(num_rows: usize, dim: usize, rank: usize) -> Self {
        Self::with_order(num_rows, dim, rank, 3)
    }

    /// A `d`-core configuration with uniform internal rank.
    pub fn with_order(num_rows: usize, dim: usize, rank: usize, d: usize) -> Self {
        assert!(d >= 2, "TT tables need at least two cores");
        assert!(num_rows > 0 && dim > 0 && rank > 0);
        let row_dims = balanced_factorization(num_rows, d);
        let col_dims = factorize(dim, d);
        assert_eq!(
            col_dims.iter().product::<usize>(),
            dim,
            "embedding dim {dim} is not exactly factorizable into {d} parts; \
             pick a dim with enough small factors (e.g. a power of two)"
        );
        let mut ranks = vec![rank; d + 1];
        ranks[0] = 1;
        ranks[d] = 1;
        // A rank cannot usefully exceed the dimensions of the unfolding it
        // connects; clamp so tiny tables do not waste parameters.
        for k in 1..d {
            let left: usize =
                row_dims[..k].iter().zip(&col_dims[..k]).map(|(m, n)| m * n).product();
            let right: usize =
                row_dims[k..].iter().zip(&col_dims[k..]).map(|(m, n)| m * n).product();
            ranks[k] = ranks[k].min(left).min(right);
        }
        Self { num_rows, dim, row_dims, col_dims, ranks, init_std: 0.05 }
    }

    /// Number of cores.
    pub fn order(&self) -> usize {
        self.row_dims.len()
    }

    /// Padded row capacity.
    pub fn capacity(&self) -> usize {
        self.row_dims.iter().product()
    }

    /// Parameter count of the configured cores.
    pub fn param_count(&self) -> usize {
        (0..self.order())
            .map(|k| self.row_dims[k] * self.ranks[k] * self.col_dims[k] * self.ranks[k + 1])
            .sum()
    }

    /// Compression ratio versus the dense table.
    pub fn compression_ratio(&self) -> f64 {
        (self.num_rows * self.dim) as f64 / self.param_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_core_config_covers_rows() {
        let c = TtConfig::new(1_000_000, 64, 32);
        assert_eq!(c.order(), 3);
        assert!(c.capacity() >= 1_000_000);
        assert_eq!(c.col_dims.iter().product::<usize>(), 64);
    }

    #[test]
    fn ranks_are_clamped_on_tiny_tables() {
        let c = TtConfig::new(8, 8, 128);
        for k in 1..c.order() {
            assert!(c.ranks[k] <= 128);
            assert!(c.ranks[k] >= 1);
        }
        // tiny table: rank must collapse well below 128
        assert!(c.ranks[1] < 128);
    }

    #[test]
    fn compression_ratio_is_large_for_big_tables() {
        let c = TtConfig::new(10_000_000, 128, 64);
        assert!(c.compression_ratio() > 100.0, "ratio {}", c.compression_ratio());
    }

    #[test]
    #[should_panic(expected = "not exactly factorizable")]
    fn prime_dim_is_rejected() {
        let _ = TtConfig::new(100, 13, 8);
    }

    #[test]
    fn param_count_matches_core_shapes() {
        let c = TtConfig::new(1000, 64, 16);
        let expected: usize =
            (0..3).map(|k| c.row_dims[k] * c.ranks[k] * c.col_dims[k] * c.ranks[k + 1]).sum();
        assert_eq!(c.param_count(), expected);
    }

    #[test]
    fn default_options_are_the_eff_tt_path() {
        let o = TtOptions::default();
        assert_eq!(o.forward, ForwardStrategy::Reuse);
        assert_eq!(o.backward, BackwardStrategy::Aggregated);
        assert!(o.fused_update);
    }
}
