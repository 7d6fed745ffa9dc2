//! Synthetic DLRM workload generator.
//!
//! Reproduces the three training-data properties the EL-Rec paper builds on:
//!
//! * **Global skew** (Figure 4a): per-table index popularity is
//!   Zipf-distributed, and popular indices are *scattered* through the index
//!   space by a coprime multiplicative permutation — as in real logs, where
//!   raw categorical IDs carry no locality.
//! * **Batch redundancy** (Figure 4b): skew plus multi-hot sampling makes
//!   the number of unique indices per batch far smaller than the batch
//!   size.
//! * **Local structure** (§IV-A): each index belongs to a latent
//!   *co-occurrence group* (user-behaviour community); every batch activates
//!   a small, slowly drifting set of groups and draws a fraction of its
//!   indices from them. Group membership is invisible in the raw index
//!   values — exactly the structure EL-Rec's index-reordering stage has to
//!   rediscover from batch co-occurrence.
//!
//! Labels follow a fixed hidden click model (logistic in the dense features
//! plus hashed per-index contributions), so models trained on this data have
//! a real signal to learn and accuracy comparisons (Table IV) are
//! meaningful.
//!
//! Generation is deterministic: batch `b` of a dataset seeded with `s` is
//! identical across runs, machines and callers, which the pipeline
//! equivalence tests rely on.

use crate::batch::{MiniBatch, SparseField};
use crate::schema::DatasetSpec;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use rayon::prelude::*;

/// Fraction of lookups drawn from the batch's active co-occurrence groups.
const LOCAL_FRACTION: f64 = 0.5;
/// Number of latent groups per table (capped by table size).
const GROUPS_PER_TABLE: usize = 64;
/// Active groups per batch.
const ACTIVE_GROUPS: usize = 4;
/// Batches between drifts of the active-group set.
const DRIFT_PERIOD: u64 = 16;

/// A deterministic synthetic DLRM dataset.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    spec: DatasetSpec,
    seed: u64,
    tables: Vec<TableSampler>,
    dense_weights: Vec<f32>,
}

#[derive(Clone, Debug)]
struct TableSampler {
    cardinality: u64,
    zipf: Zipf<f64>,
    /// Multiplier of the rank -> index scattering permutation.
    mult: u64,
    /// Latent co-occurrence group count.
    groups: u64,
}

impl TableSampler {
    fn new(cardinality: usize, exponent: f64, table_seed: u64) -> Self {
        let card = cardinality.max(1) as u64;
        Self {
            cardinality: card,
            zipf: Zipf::new(card, exponent).expect("valid zipf parameters"),
            mult: coprime_multiplier(card, table_seed),
            groups: (GROUPS_PER_TABLE as u64).min(card),
        }
    }

    /// Popularity rank (0 = most popular) -> scattered index.
    #[inline]
    fn scatter(&self, rank: u64) -> u32 {
        ((rank % self.cardinality).wrapping_mul(self.mult) % self.cardinality) as u32
    }

    /// Draws a globally-popular index (pure Zipf).
    fn sample_global(&self, rng: &mut impl Rng) -> u32 {
        let rank = self.zipf.sample(rng) as u64 - 1;
        self.scatter(rank)
    }

    /// Draws an index from latent group `g`: zipf over within-group rank.
    fn sample_from_group(&self, g: u64, rng: &mut impl Rng) -> u32 {
        let group_size = (self.cardinality / self.groups).max(1);
        // within-group popularity is also skewed
        let within = Zipf::new(group_size, 1.05).expect("valid zipf"); // PANIC-OK: constant parameters
        let j = within.sample(rng) as u64 - 1;
        let rank = j * self.groups + (g % self.groups);
        self.scatter(rank.min(self.cardinality - 1))
    }
}

impl SyntheticDataset {
    /// Builds a dataset for `spec`, deterministically derived from `seed`.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        let tables = spec
            .table_cardinalities
            .iter()
            .enumerate()
            .map(|(t, &c)| TableSampler::new(c, spec.zipf_exponent, mix(seed, t as u64)))
            .collect();
        let mut wrng = rand::rngs::StdRng::seed_from_u64(mix(seed, 0xDEAD));
        let dense_weights = (0..spec.num_dense).map(|_| wrng.gen_range(-0.5..0.5)).collect();
        Self { spec, seed, tables, dense_weights }
    }

    /// The schema this dataset follows.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Number of whole batches of the given size the spec's sample budget
    /// allows.
    pub fn num_batches(&self, batch_size: usize) -> usize {
        self.spec.num_samples / batch_size
    }

    /// Generates batch `batch_idx` of size `batch_size`.
    ///
    /// Deterministic in `(seed, batch_idx, batch_size)`.
    pub fn batch(&self, batch_idx: u64, batch_size: usize) -> MiniBatch {
        let mut rng = rand::rngs::StdRng::seed_from_u64(mix(self.seed, batch_idx));

        // The active co-occurrence groups drift every DRIFT_PERIOD batches
        // (paper: "users may view more work-related information during the
        // day and more entertainment information at night").
        let epoch = batch_idx / DRIFT_PERIOD;
        let mut group_rng = rand::rngs::StdRng::seed_from_u64(mix(self.seed ^ 0xA5A5, epoch));
        let active: Vec<u64> =
            (0..ACTIVE_GROUPS).map(|_| group_rng.gen_range(0..GROUPS_PER_TABLE as u64)).collect();

        let mut dense = Vec::with_capacity(batch_size * self.spec.num_dense);
        let mut fields: Vec<SparseField> = self
            .tables
            .iter()
            .map(|_| {
                SparseField::with_capacity(batch_size, batch_size * self.spec.indices_per_sample)
            })
            .collect();
        let mut labels = Vec::with_capacity(batch_size);
        let mut sample_indices: Vec<u32> = Vec::with_capacity(self.spec.indices_per_sample);

        for _ in 0..batch_size {
            let mut logit = -0.3f32; // negative bias: clicks are rarer than non-clicks
            for w in &self.dense_weights {
                let x = normal(&mut rng);
                dense.push(x);
                logit += w * x;
            }
            for (t, table) in self.tables.iter().enumerate() {
                sample_indices.clear();
                for _ in 0..self.spec.indices_per_sample {
                    let idx = if rng.gen_bool(LOCAL_FRACTION) {
                        let g = active[rng.gen_range(0..active.len())];
                        table.sample_from_group(g, &mut rng)
                    } else {
                        table.sample_global(&mut rng)
                    };
                    sample_indices.push(idx);
                    logit += index_weight(t as u64, idx);
                }
                fields[t].push_sample(&sample_indices);
            }
            let p = 1.0 / (1.0 + (-logit).exp());
            labels.push(if rng.gen_bool(p.clamp(0.001, 0.999) as f64) { 1.0 } else { 0.0 });
        }

        MiniBatch { dense, num_dense: self.spec.num_dense, fields, labels }
    }

    /// Generates `count` consecutive batches starting at `first`, across
    /// the rayon pool, in order.
    ///
    /// Each batch draws only from its own seed (`mix(seed, batch_idx)`), so
    /// the result is byte-equal to calling [`Self::batch`] for
    /// `first..first + count` in sequence, at any pool size.
    pub fn batches(&self, first: u64, count: usize, batch_size: usize) -> Vec<MiniBatch> {
        (0..count as u64).into_par_iter().map(|i| self.batch(first + i, batch_size)).collect()
    }
}

/// Hidden per-index click-model weight: a hash mapped to `[-0.35, 0.35]`.
fn index_weight(table: u64, idx: u32) -> f32 {
    let h = mix(table.wrapping_mul(0x2545_F491_4F6C_DD1D), idx as u64);
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 0.7 - 0.35) as f32
}

/// Any odd multiplier > 1 coprime with the cardinality scatters popularity
/// ranks through the index space (shared with [`crate::loadgen`]).
pub(crate) fn coprime_multiplier(card: u64, seed: u64) -> u64 {
    let mut mult = (0x9E37_79B9_7F4A_7C15u64 ^ seed) % card;
    mult = mult.max(1) | 1;
    while gcd(mult, card) != 1 {
        mult = (mult + 2) % card.max(3);
        mult = mult.max(1) | 1;
    }
    mult
}

/// SplitMix64-style mixer for deriving independent streams.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> SyntheticDataset {
        SyntheticDataset::new(DatasetSpec::toy(3, 1000, 100_000), 42)
    }

    #[test]
    fn batches_are_deterministic() {
        let d1 = toy_dataset();
        let d2 = toy_dataset();
        let b1 = d1.batch(7, 64);
        let b2 = d2.batch(7, 64);
        assert_eq!(b1.dense, b2.dense);
        assert_eq!(b1.labels, b2.labels);
        for (f1, f2) in b1.fields.iter().zip(&b2.fields) {
            assert_eq!(f1, f2);
        }
    }

    #[test]
    fn different_batches_differ() {
        let d = toy_dataset();
        let a = d.batch(0, 64);
        let b = d.batch(1, 64);
        assert_ne!(a.fields[0].indices, b.fields[0].indices);
    }

    #[test]
    fn batches_are_the_sequential_batches_byte_for_byte() {
        let d = toy_dataset();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (first, count) in [(0u64, 0usize), (5, 1), (17, 9)] {
            let pooled = d.batches(first, count, 48);
            assert_eq!(pooled.len(), count);
            for (i, p) in pooled.iter().enumerate() {
                let s = d.batch(first + i as u64, 48);
                assert_eq!(bits(&p.dense), bits(&s.dense), "dense of batch {}", first + i as u64);
                assert_eq!(bits(&p.labels), bits(&s.labels));
                assert_eq!(p.num_dense, s.num_dense);
                assert_eq!(p.fields, s.fields);
            }
        }
    }

    #[test]
    fn batch_shapes_are_consistent() {
        let d = toy_dataset();
        let b = d.batch(0, 33);
        b.validate().unwrap();
        assert_eq!(b.batch_size(), 33);
        assert_eq!(b.fields.len(), 3);
        assert_eq!(b.fields[0].nnz(), 33 * 2);
    }

    #[test]
    fn indices_stay_in_range() {
        let d = toy_dataset();
        for bi in 0..10 {
            let b = d.batch(bi, 128);
            for f in &b.fields {
                assert!(f.indices.iter().all(|&i| (i as usize) < 1000));
            }
        }
    }

    #[test]
    fn access_distribution_is_skewed() {
        // Top 10% of indices should take well over 10% of accesses.
        let d = toy_dataset();
        let mut counts = vec![0usize; 1000];
        for bi in 0..50 {
            let b = d.batch(bi, 256);
            for &i in &b.fields[0].indices {
                counts[i as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = sorted[..100].iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top-10% share too low: {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn unique_indices_below_batch_nnz() {
        let d = toy_dataset();
        let b = d.batch(3, 512);
        let f = &b.fields[0];
        assert!(f.unique_count() < f.nnz() / 2, "expected heavy index reuse within a batch");
    }

    #[test]
    fn labels_have_both_classes() {
        let d = toy_dataset();
        let b = d.batch(0, 512);
        let pos: f32 = b.labels.iter().sum();
        assert!(pos > 0.0 && pos < 512.0, "degenerate label distribution: {pos}");
    }

    #[test]
    fn scatter_is_a_bijection() {
        let t = TableSampler::new(997, 1.05, 123); // prime cardinality
        let mut seen = vec![false; 997];
        for r in 0..997 {
            let idx = t.scatter(r) as usize;
            assert!(!seen[idx], "collision at rank {r}");
            seen[idx] = true;
        }
    }

    #[test]
    fn tiny_tables_are_handled() {
        let d = SyntheticDataset::new(DatasetSpec::toy(2, 4, 1000), 9);
        let b = d.batch(0, 100);
        for f in &b.fields {
            assert!(f.indices.iter().all(|&i| i < 4));
        }
    }

    #[test]
    fn num_batches_counts_whole_batches() {
        let d = SyntheticDataset::new(DatasetSpec::toy(1, 10, 1050), 1);
        assert_eq!(d.num_batches(100), 10);
    }
}
