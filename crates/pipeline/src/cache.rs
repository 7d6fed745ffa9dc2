//! The embedding cache that resolves pipelined training's
//! read-after-write conflict (paper §V-B, Figure 10).
//!
//! Pre-fetching embeddings for batch `i+1` while batch `i` trains means the
//! pre-fetched rows may miss the update batch `i` is about to produce. The
//! worker therefore keeps the *freshest* value of every row it has updated
//! but the server has not yet applied, and overwrites stale pre-fetched
//! rows on arrival ("synchronization", Figure 10b step 1).
//!
//! The paper manages cache occupancy with life-cycle (LC) counters sized by
//! the request-queue length. This implementation uses **version
//! watermarks**, which enforce the same invariant with an explicit proof
//! obligation:
//!
//! * an entry inserted after training batch `k` is stamped `pushed_at = k`;
//! * every pre-fetched batch is stamped with `applied_through` — the number
//!   of gradient batches the server had applied when it gathered the rows;
//! * a pre-fetched row is stale iff `applied_through <= pushed_at`, in
//!   which case the cached value (bit-identical to what the server will
//!   eventually hold) replaces it;
//! * entries with `pushed_at < applied_through` can never be needed again
//!   (the server copy already includes them), so the watermark advancing
//!   evicts them — the moment the paper's LC counter would reach zero.
//!
//! [`WorkerCache`] is the worker's side of Figure 9 around this cache —
//! stage 1 and stage 3 — written once for the threaded trainer and the
//! simulator, which differ only in the gradient in between.

use crate::server::{aggregate_to_unique, pool_prefetched, GradientPush, PrefetchedBatch};
use el_tensor::Matrix;
use std::collections::HashMap;

/// Per-table cache of worker-fresh embedding rows.
#[derive(Clone, Debug, Default)]
pub struct EmbeddingCache {
    /// row index -> (freshest row value, batch seq that produced it).
    entries: HashMap<u32, (Vec<f32>, u64)>,
    /// Highest `applied_through` observed; entries older than this are
    /// evicted.
    watermark: u64,
    /// Lifetime sync statistics: rows overwritten because they were stale.
    pub stale_hits: u64,
    /// Lifetime sync statistics: rows that were already fresh.
    pub fresh_rows: u64,
}

impl EmbeddingCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Synchronizes a pre-fetched batch: for every row the worker updated
    /// more recently than the server applied (`pushed_at >= applied_through`),
    /// the cached value overwrites the pre-fetched one.
    ///
    /// Also advances the watermark, evicting entries the server has
    /// caught up on.
    pub fn sync(&mut self, indices: &[u32], rows: &mut Matrix, applied_through: u64) {
        assert_eq!(rows.rows(), indices.len());
        for (r, &idx) in indices.iter().enumerate() {
            if let Some((value, pushed_at)) = self.entries.get(&idx) {
                if *pushed_at >= applied_through {
                    rows.row_mut(r).copy_from_slice(value);
                    self.stale_hits += 1;
                } else {
                    self.fresh_rows += 1;
                }
            } else {
                self.fresh_rows += 1;
            }
        }
        self.advance(applied_through);
    }

    /// Inserts (or refreshes) rows after training batch `batch_seq`.
    pub fn insert(&mut self, indices: &[u32], rows: &Matrix, batch_seq: u64) {
        assert_eq!(rows.rows(), indices.len());
        for (r, &idx) in indices.iter().enumerate() {
            match self.entries.get_mut(&idx) {
                Some((value, pushed_at)) => {
                    value.copy_from_slice(rows.row(r));
                    *pushed_at = batch_seq;
                }
                None => {
                    self.entries.insert(idx, (rows.row(r).to_vec(), batch_seq));
                }
            }
        }
    }

    /// Advances the server watermark, evicting entries whose update the
    /// server has applied (`pushed_at < applied_through`).
    pub fn advance(&mut self, applied_through: u64) {
        if applied_through <= self.watermark {
            return;
        }
        self.watermark = applied_through;
        self.entries.retain(|_, (_, pushed_at)| *pushed_at >= applied_through);
    }

    /// Bytes held by cached rows (the memory the LC system bounds).
    pub fn footprint_bytes(&self) -> usize {
        self.entries.values().map(|(v, _)| v.len() * std::mem::size_of::<f32>() + 16).sum()
    }
}

/// The worker's side of the hosted-table protocol: one [`EmbeddingCache`]
/// per hosted table, in the order every [`PrefetchedBatch`] lists them
/// (fixed once at startup), so a step walks tables, caches and gradients
/// in lockstep and never looks a table up.
#[derive(Clone, Debug)]
pub struct WorkerCache {
    caches: Vec<EmbeddingCache>,
    /// The server's SGD rate, for predicting post-update rows.
    lr: f32,
}

impl WorkerCache {
    /// Empty caches for `tables` hosted tables.
    pub fn new(tables: usize, lr: f32) -> Self {
        Self { caches: vec![EmbeddingCache::new(); tables], lr }
    }

    /// Stage 1: syncs every pre-fetched table with its cache, then
    /// sum-pools it into per-sample embeddings (in pre-fetch order).
    pub fn pool(&mut self, pf: &mut PrefetchedBatch) -> Vec<(usize, Matrix)> {
        let mut pooled = Vec::with_capacity(pf.tables.len());
        for ((t, unique, rows), cache) in pf.tables.iter_mut().zip(&mut self.caches) {
            cache.sync(unique, rows, pf.applied_through);
            let field = &pf.batch.fields[*t];
            pooled.push((*t, pool_prefetched(&field.indices, &field.offsets, unique, rows)));
        }
        pooled
    }

    /// Stage 3: aggregates each table's pooled gradient (`grads`, in
    /// pre-fetch order) per unique row, refreshes the cache with the
    /// predicted post-update rows — bit-identical to what the server will
    /// hold once it applies the push — and returns the push.
    pub fn gradient_push(
        &mut self,
        pf: &PrefetchedBatch,
        grads: &[(usize, Matrix)],
    ) -> GradientPush {
        let mut tables = Vec::with_capacity(grads.len());
        for (((t, unique, rows), cache), (_, d_emb)) in
            pf.tables.iter().zip(&mut self.caches).zip(grads)
        {
            let field = &pf.batch.fields[*t];
            let grad = aggregate_to_unique(&field.indices, &field.offsets, unique, d_emb);
            let mut updated = rows.clone();
            for slot in 0..unique.len() {
                let g = &grad.values[slot * grad.dim..(slot + 1) * grad.dim];
                for (w, gv) in updated.row_mut(slot).iter_mut().zip(g) {
                    *w -= self.lr * gv;
                }
            }
            cache.insert(unique, &updated, pf.batch_seq);
            tables.push((*t, grad));
        }
        GradientPush { batch_seq: pf.batch_seq, tables, pooled: Vec::new() }
    }

    /// Stale pre-fetched rows corrected so far.
    pub fn stale_hits(&self) -> u64 {
        self.caches.iter().map(|c| c.stale_hits).sum()
    }

    /// Bytes the caches hold now.
    pub fn footprint_bytes(&self) -> usize {
        self.caches.iter().map(EmbeddingCache::footprint_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[f32], dim: usize) -> Matrix {
        Matrix::from_vec(vals.len() / dim, dim, vals.to_vec())
    }

    #[test]
    fn stale_prefetch_is_overwritten() {
        let mut cache = EmbeddingCache::new();
        // worker updated row 5 after batch 3
        cache.insert(&[5], &rows(&[1.0, 2.0], 2), 3);
        // prefetch gathered when server had applied only through batch 2
        let mut pre = rows(&[9.0, 9.0], 2);
        cache.sync(&[5], &mut pre, 2);
        assert_eq!(pre.row(0), &[1.0, 2.0]);
        assert_eq!(cache.stale_hits, 1);
    }

    #[test]
    fn fresh_prefetch_is_kept_and_entry_evicted() {
        let mut cache = EmbeddingCache::new();
        cache.insert(&[5], &rows(&[1.0, 2.0], 2), 3);
        // server has applied through batch 4 > 3: its copy includes the
        // update, so the prefetched value is authoritative
        let mut pre = rows(&[7.0, 8.0], 2);
        cache.sync(&[5], &mut pre, 4);
        assert_eq!(pre.row(0), &[7.0, 8.0]);
        assert!(cache.is_empty(), "entry should be evicted once applied");
    }

    #[test]
    fn boundary_equal_versions_use_cache() {
        // applied_through == pushed_at means the server gathered *before*
        // applying this batch's push: still stale.
        let mut cache = EmbeddingCache::new();
        cache.insert(&[1], &rows(&[5.0], 1), 3);
        let mut pre = rows(&[0.0], 1);
        cache.sync(&[1], &mut pre, 3);
        assert_eq!(pre.row(0), &[5.0]);
    }

    #[test]
    fn reinsert_updates_version_and_value() {
        let mut cache = EmbeddingCache::new();
        cache.insert(&[2], &rows(&[1.0], 1), 1);
        cache.insert(&[2], &rows(&[2.0], 1), 5);
        let mut pre = rows(&[0.0], 1);
        cache.sync(&[2], &mut pre, 4);
        assert_eq!(pre.row(0), &[2.0]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn watermark_never_regresses() {
        let mut cache = EmbeddingCache::new();
        cache.insert(&[1], &rows(&[1.0], 1), 10);
        cache.advance(20); // evicts
        assert!(cache.is_empty());
        cache.insert(&[1], &rows(&[2.0], 1), 25);
        cache.advance(15); // stale watermark: ignored
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn footprint_is_bounded_by_eviction() {
        let mut cache = EmbeddingCache::new();
        for k in 0..100u64 {
            cache.insert(&[k as u32], &rows(&[k as f32], 1), k);
        }
        assert_eq!(cache.len(), 100);
        cache.advance(100);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.footprint_bytes(), 0);
    }

    #[test]
    fn untouched_rows_count_as_fresh() {
        let mut cache = EmbeddingCache::new();
        let mut pre = rows(&[1.0, 2.0], 1);
        cache.sync(&[0, 1], &mut pre, 0);
        assert_eq!(cache.fresh_rows, 2);
        assert_eq!(pre.row(0), &[1.0]);
    }
}
