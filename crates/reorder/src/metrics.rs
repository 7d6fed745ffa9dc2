//! Locality metrics quantifying what reordering buys the Eff-TT table.
//!
//! The reuse buffer hits whenever two indices of a batch share their TT
//! prefix `index / m_d` (paper Eq. 3 / §IV-B), so the ratio of unique
//! prefixes to unique indices is the direct measure of reordering quality —
//! fewer unique prefixes per unique index means more intermediate-result
//! reuse and higher cache hit rates.

/// Unique indices and unique depth-(d-1) prefixes of one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixStats {
    /// Distinct indices in the batch.
    pub unique_indices: usize,
    /// Distinct values of `index / last_dim`.
    pub unique_prefixes: usize,
    /// Total lookups.
    pub nnz: usize,
}

impl PrefixStats {
    /// Fraction of prefix products that can be shared between unique
    /// indices (0 = no sharing possible, → 1 = ideal sharing).
    pub fn reuse_opportunity(&self) -> f64 {
        if self.unique_indices == 0 {
            return 0.0;
        }
        1.0 - self.unique_prefixes as f64 / self.unique_indices as f64
    }
}

/// Computes [`PrefixStats`] for a batch of indices against the final TT
/// factor `last_dim` (`m_d`).
pub fn prefix_stats(indices: &[u32], last_dim: usize) -> PrefixStats {
    assert!(last_dim > 0);
    let mut sorted: Vec<u32> = indices.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let unique_indices = sorted.len();
    let mut prefixes: Vec<u32> = sorted.iter().map(|&i| i / last_dim as u32).collect();
    prefixes.dedup(); // already sorted because indices were
    PrefixStats { unique_indices, unique_prefixes: prefixes.len(), nnz: indices.len() }
}

/// Mean reuse opportunity across batches.
pub fn mean_reuse_opportunity(batches: &[&[u32]], last_dim: usize) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    batches.iter().map(|b| prefix_stats(b, last_dim).reuse_opportunity()).sum::<f64>()
        / batches.len() as f64
}

/// Mean range-compactness of batches: average over batches of
/// `unique_indices / (max - min + 1)`; higher means each batch addresses a
/// tighter index window (the L1/L2 locality the paper credits for the
/// 1.27x/1.32x cache-hit-rate gains).
pub fn mean_compactness(batches: &[&[u32]], _cardinality: usize) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for batch in batches {
        if batch.is_empty() {
            continue;
        }
        let mut sorted: Vec<u32> = batch.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let span = (sorted[sorted.len() - 1] - sorted[0] + 1) as f64;
        acc += sorted.len() as f64 / span;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bijection::{ReorderConfig, Reorderer};

    #[test]
    fn prefix_stats_counts_unique_prefixes() {
        // last_dim 4: prefixes of {0,1,4,5,8} are {0,0,1,1,2}
        let s = prefix_stats(&[0, 1, 4, 5, 8, 8], 4);
        assert_eq!(s.unique_indices, 5);
        assert_eq!(s.unique_prefixes, 3);
        assert_eq!(s.nnz, 6);
        assert!((s.reuse_opportunity() - (1.0 - 3.0 / 5.0)).abs() < 1e-12);
    }

    #[test]
    fn contiguous_indices_maximize_reuse() {
        let tight = prefix_stats(&[0, 1, 2, 3], 4);
        let spread = prefix_stats(&[0, 4, 8, 12], 4);
        assert!(tight.reuse_opportunity() > spread.reuse_opportunity());
        assert_eq!(spread.reuse_opportunity(), 0.0);
    }

    #[test]
    fn empty_batch_is_zero() {
        let s = prefix_stats(&[], 4);
        assert_eq!(s.reuse_opportunity(), 0.0);
    }

    #[test]
    fn reordering_improves_reuse_on_clustered_workload() {
        // co-occurring clusters scattered through a 256-wide index space
        let clusters: Vec<Vec<u32>> =
            (0..8).map(|c| (0..8).map(|j| (c + j * 8) as u32 * 4 % 256).collect()).collect();
        let mut batches: Vec<Vec<u32>> = Vec::new();
        for _ in 0..6 {
            for c in &clusters {
                batches.push(c.clone());
            }
        }
        let refs: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
        let before = mean_reuse_opportunity(&refs, 8);

        let bij = Reorderer::new(ReorderConfig { hot_ratio: 0.0, seed: 3 }).fit(256, &refs);
        let remapped: Vec<Vec<u32>> =
            batches.iter().map(|b| b.iter().map(|&i| bij.forward[i as usize]).collect()).collect();
        let refs2: Vec<&[u32]> = remapped.iter().map(|b| b.as_slice()).collect();
        let after = mean_reuse_opportunity(&refs2, 8);
        assert!(
            after > before + 0.1,
            "reordering should raise reuse opportunity: {before} -> {after}"
        );
    }

    #[test]
    fn compactness_prefers_tight_windows() {
        let tight: &[u32] = &[10, 11, 12, 13];
        let spread: &[u32] = &[0, 50, 100, 150];
        assert!(mean_compactness(&[tight], 200) > mean_compactness(&[spread], 200));
    }
}
