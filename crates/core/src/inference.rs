//! Inference sessions with a persistent hot-prefix cache.
//!
//! §III-A motivates reuse with the skewed access pattern: "this observation
//! motivates us to reuse the intermediate result of these popular
//! embeddings". During *training* the reuse buffer lives one batch at a
//! time — every SGD step rewrites the cores. During *inference* the cores
//! are frozen, so the partial products of popular prefixes can persist
//! across batches. [`TtInferenceSession`] keeps an LRU-evicted map from
//! index prefix to its `P_{d-1}` product; under power-law traffic the hit
//! rate approaches the hot fraction of accesses and lookups skip most of
//! the chain.
//!
//! The session borrows the table immutably, so the borrow checker enforces
//! the invariant that makes caching sound: no training while a session is
//! alive.

// Digit-chain loops index parallel arrays by core position, mirroring the
// paper's notation.
#![allow(clippy::needless_range_loop)]

use crate::bag::TtEmbeddingBag;
use crate::plan::{LookupPlan, PlanScratch};
use el_tensor::gemm::gemm_nn;
use el_tensor::Matrix;
// ORDER-FREE: the prefix -> slot map is only probed, filled and pruned by
// key; eviction order comes from the slot slab's clock hand, never from
// iterating the map.
use std::collections::HashMap;

/// One cached partial product in the slot slab.
struct Slot {
    prefix: u64,
    product: Vec<f32>,
    /// Second-chance bit: set on every use, cleared (once) by the clock
    /// sweep before a slot becomes an eviction candidate.
    referenced: bool,
}

/// Frozen-table lookup session with cross-batch prefix caching.
///
/// Eviction is clock/second-chance over a fixed slot slab: every miss at
/// capacity advances a hand over the slots, skipping (and un-marking)
/// recently referenced entries and reclaiming the first unmarked one — O(1)
/// amortized, no per-entry timestamps, no full-map sweeps. The reclaimed
/// slot's product buffer is reused in place, so a full session reaches a
/// steady state with no per-miss allocation beyond `HashMap` churn.
pub struct TtInferenceSession<'a> {
    table: &'a TtEmbeddingBag,
    /// prefix -> slot index.
    map: HashMap<u64, u32>,
    slots: Vec<Slot>,
    /// Clock hand: next eviction candidate.
    hand: usize,
    capacity: usize,
    /// Ping-pong scratch for prefix-chain products (reused across misses).
    chain_ping: Vec<f32>,
    chain_pong: Vec<f32>,
    digit_scratch: Vec<usize>,
    /// Per-unique prefix products, snapshotted at resolution time (reused
    /// across lookups).
    arena: Vec<f32>,
    /// Recycled batch analysis (plan + sort scratch) so steady-state
    /// [`TtInferenceSession::lookup_into`] allocates nothing.
    plan: LookupPlan,
    plan_scratch: PlanScratch,
    /// Prefix products served from the cache.
    hits: u64,
    /// Prefix products computed fresh.
    misses: u64,
    /// Cached products displaced by the clock hand.
    evictions: u64,
}

impl<'a> TtInferenceSession<'a> {
    /// A session over `table` caching at most `capacity` prefix products.
    pub fn new(table: &'a TtEmbeddingBag, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let reserve = capacity.min(1 << 20);
        Self {
            table,
            map: HashMap::with_capacity(reserve),
            slots: Vec::with_capacity(reserve),
            hand: 0,
            capacity,
            chain_ping: Vec::new(),
            chain_pong: Vec::new(),
            digit_scratch: Vec::new(),
            arena: Vec::new(),
            plan: LookupPlan::default(),
            plan_scratch: PlanScratch::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Embedding dimension of the served table.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Unique rows of the most recent batch (0 before any lookup) — the
    /// cross-request dedup the serving tier reports.
    pub fn last_unique_rows(&self) -> usize {
        self.plan.num_rows()
    }

    /// Prefix products served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Prefix products computed fresh so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cached products displaced by the clock hand so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cache hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = (self.hits(), self.misses());
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Live cache entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Cache footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.product.len() * 4 + std::mem::size_of::<Slot>()).sum()
    }

    /// Sum-pooled lookup with the same semantics as
    /// [`TtEmbeddingBag::forward`], but served through the prefix cache.
    ///
    /// Allocates the output matrix; the serving hot path uses
    /// [`TtInferenceSession::lookup_into`] instead.
    pub fn lookup(&mut self, indices: &[u32], offsets: &[u32]) -> Matrix {
        let batch_size = offsets.len().saturating_sub(1);
        let mut out = Matrix::zeros(batch_size, self.table.dim());
        self.lookup_into(indices, offsets, out.as_mut_slice());
        out
    }

    /// Allocation-free twin of [`TtInferenceSession::lookup`]: serves the
    /// batch through the prefix cache into caller-provided `out`
    /// (`batch_size * dim` floats, row-major, overwritten). Batch analysis
    /// recycles the session-owned plan, so once the cache and scratch have
    /// grown to the working batch shape the steady state allocates nothing
    /// beyond `HashMap` churn on cold prefixes.
    ///
    /// # Panics
    /// Panics if the CSR structure is malformed (see [`LookupPlan::build`])
    /// or `out` does not match `batch_size * dim`.
    // CONTRACT: zero-alloc
    pub fn lookup_into(&mut self, indices: &[u32], offsets: &[u32], out: &mut [f32]) {
        let table = self.table;
        let cores = table.cores();
        let d = table.order();
        let n = table.dim();

        // The plan cycles through the session so analysis reuses the
        // previous batch's buffers (mem::take is a pointer swap, not an
        // allocation).
        let mut plan = std::mem::take(&mut self.plan);
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        plan.build_into(indices, offsets, &cores.row_dims, true, &mut scratch);
        assert_eq!(out.len(), plan.batch_size * n, "output buffer shape mismatch");
        let uniques = &plan.levels[d - 1];
        // PANIC-OK: row_dims is non-empty (build_into asserts d >= 2).
        let m_last = *cores.row_dims.last().unwrap() as u64;

        // Pass 1: resolve every unique index's prefix product, cache-first,
        // copying each unique product (once per unique, not per lookup)
        // into the recycled arena.
        let prefix_width = table.level_width(d - 2);
        let rows_per_prefix = prefix_width / cores.ranks[d - 1];
        let slice_last = cores.slice_len(d - 1);
        // The product is snapshotted into the arena at resolution time
        // because a later admit in the same batch may evict this slot (the
        // clock hand does not know about in-flight resolutions).
        self.arena.resize(uniques.len() * prefix_width, 0.0);
        for (slot, &value) in uniques.values.iter().enumerate() {
            let prefix = value / m_last;
            let cached = match self.map.get(&prefix) {
                Some(&s) => {
                    self.hits += 1;
                    self.slots[s as usize].referenced = true;
                    s as usize
                }
                None => {
                    self.misses += 1;
                    self.admit(prefix)
                }
            };
            self.arena[slot * prefix_width..][..prefix_width]
                .copy_from_slice(&self.slots[cached].product);
        }

        // Pass 2: pooling fused into the final chain GEMM — each lookup's
        // `P_{d-1} (rows_per_prefix x R_{d-1}) * G_d[digit]` accumulates
        // (beta = 1) straight into its sample's output row, so the
        // `(uniques x dim)` row matrix of the former two-phase schedule is
        // never materialized.
        out.fill(0.0);
        for s in 0..plan.batch_size {
            let dst = &mut out[s * n..(s + 1) * n];
            let lo = plan.sample_offsets[s] as usize;
            let hi = plan.sample_offsets[s + 1] as usize;
            for &slot in &plan.lookup_slot[lo..hi] {
                let slot = slot as usize;
                let digit_last = (uniques.values[slot] % m_last) as usize;
                gemm_nn(
                    rows_per_prefix,
                    cores.col_dims[d - 1],
                    cores.ranks[d - 1],
                    1.0,
                    &self.arena[slot * prefix_width..][..prefix_width],
                    &cores.cores[d - 1][digit_last * slice_last..(digit_last + 1) * slice_last],
                    1.0,
                    dst,
                );
            }
        }
        self.plan = plan;
        self.plan_scratch = scratch;
    }

    /// Computes `prefix`'s product and caches it, evicting with the clock
    /// hand when at capacity. Returns the slot index.
    ///
    /// Kept out of line: inlined into `lookup_into`'s per-unique loop, the
    /// miss path's codegen (and with it serving latency) moved with edits
    /// elsewhere in this crate that never touch the session.
    #[inline(never)]
    fn admit(&mut self, prefix: u64) -> usize {
        self.compute_prefix_chain(prefix);
        let idx = if self.slots.len() < self.capacity {
            // New entries start unreferenced: they must be touched again
            // before the hand returns or they are the next to go, which is
            // what keeps one-shot cold prefixes from displacing hot ones.
            self.slots.push(Slot { prefix, product: Vec::new(), referenced: false });
            self.slots.len() - 1
        } else {
            // Second chance: skip referenced slots (clearing their bit) so
            // anything touched since the last sweep survives one more lap.
            // Terminates within two laps — the first lap clears every bit.
            loop {
                if self.hand >= self.slots.len() {
                    self.hand = 0;
                }
                if !self.slots[self.hand].referenced {
                    break;
                }
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            }
            let idx = self.hand;
            self.hand += 1;
            self.evictions += 1;
            self.map.remove(&self.slots[idx].prefix);
            self.slots[idx].prefix = prefix;
            self.slots[idx].referenced = false;
            idx
        };
        // Copy the product into the slot's recycled buffer.
        let product = &mut self.slots[idx].product;
        product.clear();
        product.extend_from_slice(&self.chain_ping);
        self.map.insert(prefix, idx as u32);
        idx
    }

    /// Computes `P_{d-1} = G_1[i_1] x ... x G_{d-1}[i_{d-1}]` for one
    /// prefix into `self.chain_ping`, ping-ponging through session-owned
    /// scratch so repeated misses allocate nothing once warmed up.
    fn compute_prefix_chain(&mut self, prefix: u64) {
        let cores = self.table.cores();
        let d = cores.order();
        self.digit_scratch.resize(d - 1, 0);
        el_tensor::shape::tt_indices(
            prefix as usize,
            &cores.row_dims[..d - 1],
            &mut self.digit_scratch,
        );

        self.chain_ping.clear();
        self.chain_ping.extend_from_slice(cores.slice(0, self.digit_scratch[0]));
        let mut p = cores.col_dims[0];
        for k in 1..d - 1 {
            let r_in = cores.ranks[k];
            let cols = cores.col_dims[k] * cores.ranks[k + 1];
            self.chain_pong.clear();
            self.chain_pong.resize(p * cols, 0.0);
            gemm_nn(
                p,
                cols,
                r_in,
                1.0,
                &self.chain_ping,
                cores.slice(k, self.digit_scratch[k]),
                0.0,
                &mut self.chain_pong,
            );
            p *= cores.col_dims[k];
            std::mem::swap(&mut self.chain_ping, &mut self.chain_pong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::TtWorkspace;
    use crate::config::TtConfig;
    use rand::{Rng, SeedableRng};

    fn table(rows: usize, seed: u64) -> TtEmbeddingBag {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TtEmbeddingBag::new(&TtConfig::new(rows, 16, 8), &mut rng)
    }

    #[test]
    fn cached_lookup_matches_training_forward() {
        let t = table(500, 1);
        let mut session = TtInferenceSession::new(&t, 64);
        let mut ws = TtWorkspace::new();
        let indices = [3u32, 499, 3, 77, 120, 77];
        let offsets = [0u32, 2, 4, 6];
        let want = t.forward(&indices, &offsets, &mut ws);
        // twice: cold then warm
        let cold = session.lookup(&indices, &offsets);
        let warm = session.lookup(&indices, &offsets);
        assert!(cold.max_abs_diff(&want) < 1e-5);
        assert!(warm.max_abs_diff(&want) < 1e-5);
        assert!(session.hits() > 0, "second pass must hit the cache");
    }

    #[test]
    fn skewed_traffic_reaches_high_hit_rates() {
        let t = table(10_000, 2);
        let mut session = TtInferenceSession::new(&t, 512);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..30 {
            // zipf-ish: 80% of lookups to 50 hot rows
            let indices: Vec<u32> = (0..128)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        rng.gen_range(0..50)
                    } else {
                        rng.gen_range(0..10_000)
                    }
                })
                .collect();
            let offsets: Vec<u32> = (0..=128u32).collect();
            let _ = session.lookup(&indices, &offsets);
        }
        assert!(
            session.hit_rate() > 0.5,
            "expected a warm cache on skewed traffic, hit rate {}",
            session.hit_rate()
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let t = table(5_000, 4);
        let mut session = TtInferenceSession::new(&t, 16);
        for start in (0..4_000u32).step_by(100) {
            let indices: Vec<u32> = (start..start + 50).collect();
            let offsets: Vec<u32> = (0..=50u32).collect();
            let _ = session.lookup(&indices, &offsets);
        }
        assert!(session.len() <= 16 + 1, "cache exceeded capacity: {} entries", session.len());
    }

    #[test]
    fn eviction_preserves_correctness() {
        let t = table(2_000, 5);
        let mut session = TtInferenceSession::new(&t, 4); // brutal eviction
        let mut ws = TtWorkspace::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let indices: Vec<u32> = (0..32).map(|_| rng.gen_range(0..2_000)).collect();
            let offsets: Vec<u32> = (0..=32u32).collect();
            let want = t.forward(&indices, &offsets, &mut ws);
            let got = session.lookup(&indices, &offsets);
            assert!(got.max_abs_diff(&want) < 1e-5);
        }
    }

    #[test]
    fn clock_eviction_keeps_hot_prefixes_resident() {
        let t = table(4_096, 8);
        let m_last = *t.cores().row_dims.last().unwrap() as u32;
        // capacity 4 with 32 rotating cold prefixes: the cold stream always
        // misses, but the hot prefix is referenced every round so the
        // second-chance bit must keep it resident throughout.
        let mut session = TtInferenceSession::new(&t, 4);
        let rounds = 64u32;
        for round in 0..rounds {
            let cold = (round % 32 + 1) * m_last; // distinct prefix per round
            let indices = [0u32, cold];
            let offsets = [0u32, 2];
            let _ = session.lookup(&indices, &offsets);
        }
        assert!(
            session.hits() >= u64::from(rounds) - 1,
            "hot prefix was evicted: only {} hits over {rounds} rounds",
            session.hits()
        );
        assert!(session.len() <= 4);
        assert!(session.evictions() > 0, "cold stream at capacity 4 must evict");
    }

    #[test]
    fn four_core_tables_work() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cfg = TtConfig::with_order(1_000, 16, 6, 4);
        let t = TtEmbeddingBag::new(&cfg, &mut rng);
        let mut session = TtInferenceSession::new(&t, 32);
        let mut ws = TtWorkspace::new();
        let indices = [0u32, 999, 123, 123];
        let offsets = [0u32, 4];
        let want = t.forward(&indices, &offsets, &mut ws);
        let got = session.lookup(&indices, &offsets);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }
}
