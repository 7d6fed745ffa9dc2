//! Index bijection generation (paper §IV-C, Figure 8).
//!
//! Combines the global frequency ordering with the detected communities
//! into one bijection over `[0, cardinality)`:
//!
//! * hot indices occupy the front, in descending frequency order — global
//!   information gathers them together;
//! * each community receives a contiguous range (communities ordered by
//!   total access frequency, members within a community likewise) — local
//!   information makes co-occurring indices neighbors, which maximizes TT
//!   prefix sharing and cache locality;
//! * indices never observed during profiling keep the tail, in their
//!   original order.
//!
//! Generation runs offline on profiled batches; applying the bijection at
//! training time is a single gather per batch (`SparseField::remap`).

use crate::graph::{hot_mask, IndexGraphBuilder};
use crate::louvain::louvain;

/// Configuration of the reordering stage.
#[derive(Clone, Copy, Debug)]
pub struct ReorderConfig {
    /// Fraction of indices pinned as hot (the paper's `Hot_ratio`).
    pub hot_ratio: f64,
    /// Seed of the edge-sampling RNG for very large batches.
    pub seed: u64,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        Self { hot_ratio: 0.05, seed: 0x51_EC }
    }
}

/// A bijection over the index space of one table.
#[derive(Clone, Debug)]
pub struct IndexBijection {
    /// `new = forward[old]`.
    pub forward: Vec<u32>,
    /// `old = inverse[new]`.
    pub inverse: Vec<u32>,
}

impl IndexBijection {
    /// The identity bijection.
    pub fn identity(cardinality: usize) -> Self {
        let forward: Vec<u32> = (0..cardinality as u32).collect();
        Self { inverse: forward.clone(), forward }
    }

    /// Remaps a slice of indices in place.
    pub fn apply(&self, indices: &mut [u32]) {
        for i in indices {
            *i = self.forward[*i as usize];
        }
    }

    /// Checks the bijection property (used by tests and debug assertions).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.forward.len();
        if self.inverse.len() != n {
            return Err("forward/inverse length mismatch".into());
        }
        let mut seen = vec![false; n];
        for (old, &new) in self.forward.iter().enumerate() {
            if new as usize >= n {
                return Err(format!("image {new} out of range"));
            }
            if seen[new as usize] {
                return Err(format!("image {new} hit twice"));
            }
            seen[new as usize] = true;
            if self.inverse[new as usize] as usize != old {
                return Err(format!("inverse mismatch at {old}"));
            }
        }
        Ok(())
    }
}

/// Builds index bijections from profiled batches.
#[derive(Clone, Debug, Default)]
pub struct Reorderer {
    /// Stage configuration.
    pub config: ReorderConfig,
}

impl Reorderer {
    /// A reorderer with the given configuration.
    pub fn new(config: ReorderConfig) -> Self {
        Self { config }
    }

    /// Fits a bijection for one table from profiled batch index lists.
    ///
    /// `batches` holds the (possibly repeated) indices of each profiling
    /// batch for this table.
    pub fn fit(&self, cardinality: usize, batches: &[&[u32]]) -> IndexBijection {
        // Global information: frequency counts.
        let mut counts = vec![0u64; cardinality];
        for batch in batches {
            for &i in *batch {
                counts[i as usize] += 1;
            }
        }
        let is_hot = hot_mask(&counts, self.config.hot_ratio);

        // Local information: co-occurrence graph over non-hot indices.
        let mut builder = IndexGraphBuilder::new(cardinality, &is_hot, self.config.seed);
        for batch in batches {
            builder.add_batch(batch);
        }
        let graph = builder.build();
        let partition = louvain(&graph);

        // Assemble the new ordering: hot block first (frequency order) ...
        let mut order: Vec<u32> = Vec::with_capacity(cardinality);
        let mut hot: Vec<u32> = (0..cardinality as u32).filter(|&i| is_hot[i as usize]).collect();
        hot.sort_by_key(|&i| std::cmp::Reverse(counts[i as usize]));
        order.extend_from_slice(&hot);

        // ... then communities, hottest community first, hottest member
        // first within each ...
        let mut communities = partition.members();
        let comm_weight = |members: &Vec<u32>| -> u64 {
            members.iter().map(|&v| counts[graph.vertex_index[v as usize] as usize]).sum()
        };
        communities.sort_by_key(|m| std::cmp::Reverse(comm_weight(m)));
        let mut in_graph = vec![false; cardinality];
        for members in &communities {
            let mut idxs: Vec<u32> =
                members.iter().map(|&v| graph.vertex_index[v as usize]).collect();
            idxs.sort_by_key(|&i| std::cmp::Reverse(counts[i as usize]));
            for &i in &idxs {
                in_graph[i as usize] = true;
            }
            order.extend_from_slice(&idxs);
        }

        // ... and finally everything never observed in a co-occurrence.
        for i in 0..cardinality as u32 {
            if !is_hot[i as usize] && !in_graph[i as usize] {
                order.push(i);
            }
        }
        debug_assert_eq!(order.len(), cardinality);

        let mut forward = vec![0u32; cardinality];
        for (new, &old) in order.iter().enumerate() {
            forward[old as usize] = new as u32;
        }
        let bijection = IndexBijection { forward, inverse: order };
        debug_assert!(bijection.validate().is_ok());
        bijection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identity_is_valid() {
        IndexBijection::identity(10).validate().unwrap();
    }

    #[test]
    fn fit_produces_valid_bijection() {
        let r = Reorderer::default();
        let batches: Vec<Vec<u32>> = vec![vec![0, 5, 9], vec![5, 9, 3], vec![1, 2]];
        let refs: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
        let bij = r.fit(12, &refs);
        bij.validate().unwrap();
    }

    #[test]
    fn hot_indices_move_to_front_by_frequency() {
        let r = Reorderer::new(ReorderConfig { hot_ratio: 0.2, seed: 1 });
        // index 7 hottest, index 3 second (hot_count = 2 of 10)
        let batches: Vec<Vec<u32>> = vec![vec![7, 7, 7, 3, 3, 1], vec![7, 3, 2], vec![7, 0]];
        let refs: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
        let bij = r.fit(10, &refs);
        assert_eq!(bij.forward[7], 0);
        assert_eq!(bij.forward[3], 1);
    }

    #[test]
    fn cooccurring_indices_become_neighbors() {
        // Two co-occurrence clusters scattered across the index space.
        let r = Reorderer::new(ReorderConfig { hot_ratio: 0.0, seed: 2 });
        let a = [0u32, 17, 34, 51];
        let b = [8u32, 25, 42, 59];
        let mut batches: Vec<Vec<u32>> = Vec::new();
        for _ in 0..10 {
            batches.push(a.to_vec());
            batches.push(b.to_vec());
        }
        let refs: Vec<&[u32]> = batches.iter().map(|x| x.as_slice()).collect();
        let bij = r.fit(64, &refs);
        bij.validate().unwrap();
        let span = |idxs: &[u32]| {
            let new: Vec<u32> = idxs.iter().map(|&i| bij.forward[i as usize]).collect();
            *new.iter().max().unwrap() - *new.iter().min().unwrap()
        };
        // each cluster lands in a contiguous range of its own size
        assert_eq!(span(&a), 3, "cluster A not contiguous");
        assert_eq!(span(&b), 3, "cluster B not contiguous");
    }

    /// A ring of 12, a path of 5 and a 4 x 4 grid, one batch per edge:
    /// every edge weighs 1, so local moving meets tied gains at every step
    /// and the order it scores them in decides the bijection.
    fn tie_heavy_profiles() -> Vec<(usize, Vec<Vec<u32>>)> {
        let ring = (0..12).map(|i| vec![i, (i + 1) % 12]).collect();
        let path = (0..4).map(|i| vec![i, i + 1]).collect();
        let mut grid = Vec::new();
        for v in 0..16u32 {
            if v % 4 < 3 {
                grid.push(vec![v, v + 1]);
            }
            if v < 12 {
                grid.push(vec![v, v + 4]);
            }
        }
        vec![(12, ring), (5, path), (16, grid)]
    }

    #[test]
    fn tied_gains_give_one_bijection() {
        let r = Reorderer::new(ReorderConfig { hot_ratio: 0.0, seed: 3 });
        for (card, batches) in tie_heavy_profiles() {
            let refs: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
            let first = r.fit(card, &refs);
            first.validate().unwrap();
            for fit in 1..64 {
                assert_eq!(r.fit(card, &refs).forward, first.forward, "{card} vertices, fit {fit}");
            }
        }
    }

    #[test]
    fn apply_remaps_in_place() {
        let bij = IndexBijection { forward: vec![2, 0, 1], inverse: vec![1, 2, 0] };
        let mut idx = vec![0u32, 1, 2, 0];
        bij.apply(&mut idx);
        assert_eq!(idx, vec![2, 0, 1, 2]);
    }

    #[test]
    fn validate_rejects_non_bijections() {
        let b = IndexBijection { forward: vec![0, 0], inverse: vec![0, 1] };
        assert!(b.validate().is_err());
        let b = IndexBijection { forward: vec![0, 5], inverse: vec![0, 1] };
        assert!(b.validate().is_err());
    }

    proptest! {
        #[test]
        fn prop_fit_is_always_a_bijection(seed in 0u64..500, card in 2usize..80) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let batches: Vec<Vec<u32>> = (0..6)
                .map(|_| (0..8).map(|_| rng.gen_range(0..card as u32)).collect())
                .collect();
            let refs: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
            let bij = Reorderer::default().fit(card, &refs);
            prop_assert!(bij.validate().is_ok());
        }
    }
}
