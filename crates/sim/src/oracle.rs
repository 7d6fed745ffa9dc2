//! The sequential reference execution.
//!
//! The embedding cache's contract (DESIGN.md §10, invariant 3) is that pipelined
//! training computes *exactly* what sequential training computes — the
//! cache corrects every stale pre-fetched row before the worker touches
//! it. The oracle runs the same model universe strictly sequentially
//! (gather → train → apply, one batch at a time, staleness always zero)
//! and records a table digest after every applied batch. Any simulated
//! run, however contorted its interleaving and whatever faults cut it
//! short at `applied = k`, must land on `prefix_digests[k]` exactly —
//! this single check subsumes exactly-once delivery *and* cache
//! correctness, because a lost, duplicated or stale-input push would
//! each perturb the final bytes.

use crate::sim::{build_dataset, build_tables, digest_tables, worker_push, SimConfig};
use el_dlrm::embedding_bag::EmbeddingBag;
use el_pipeline::server::{ApplyOutcome, HostServer};
use el_pipeline::{split_tables, WorkerCache};

/// The sequential reference for one [`SimConfig`]: one server, one batch
/// at a time. The topology plays no part in what it computes, only in how
/// [`Oracle::per_shard`] slices it.
pub struct Oracle {
    /// `prefix_digests[k]` is the table digest after `k` applied batches;
    /// index 0 is the initial (untrained) tables. Length `num_batches + 1`.
    pub prefix_digests: Vec<u64>,
    /// `per_shard[s][k]` is shard `s`'s sub-table digest, under the
    /// config's layout, after `k` applied batches; index 0 is the initial
    /// split. Every inner vector has length `num_batches + 1`.
    ///
    /// A shard's sub-tables after `k` scattered pushes are its split of
    /// the global tables after `k` (routing moves bytes, it never
    /// recomputes them), so the reference needs neither the router nor
    /// shard servers — the code the simulation runs. A sharded run whose
    /// shard `s` stopped at `applied[s] = k` — whatever faults stopped it
    /// — must land on `per_shard[s][k]` exactly: this is the per-shard
    /// half of the schedule-independence invariant, valid even when
    /// shards are skewed.
    pub per_shard: Vec<Vec<u64>>,
}

/// Runs the sequential reference — gather, train, apply, one batch at a
/// time on one server — and digests the tables before the first batch and
/// after every applied batch, whole and split under the config's layout.
pub fn sequential_prefix(cfg: &SimConfig) -> Oracle {
    let layout = cfg.layout();
    let mut oracle = Oracle {
        prefix_digests: Vec::with_capacity(cfg.num_batches as usize + 1),
        per_shard: vec![Vec::new(); layout.num_shards() as usize],
    };
    let mut record = |tables: &[(usize, EmbeddingBag)]| {
        oracle.prefix_digests.push(digest_tables(tables));
        let split =
            split_tables(tables, &layout).expect("the layout places exactly the config's tables");
        for (digests, sub) in oracle.per_shard.iter_mut().zip(&split) {
            digests.push(digest_tables(sub));
        }
    };
    let dataset = build_dataset(cfg);
    let mut server = HostServer::new(build_tables(cfg), cfg.lr);
    let mut worker = WorkerCache::new(cfg.num_tables, cfg.lr);
    record(&server.tables);
    for k in 0..cfg.num_batches {
        let mut pf = server.gather(dataset.batch(k, cfg.batch_size), k);
        debug_assert_eq!(pf.applied_through, k, "sequential gather is never stale");
        let push = worker_push(&mut pf, &mut worker, cfg.model_seed);
        match server.apply_checked(&push) {
            Ok(ApplyOutcome::Applied) => {}
            other => unreachable!("sequential apply of batch {k} failed: {other:?}"),
        }
        record(&server.tables);
    }
    oracle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_digests_are_distinct_and_deterministic() {
        let cfg = SimConfig::default();
        let a = sequential_prefix(&cfg);
        let b = sequential_prefix(&cfg);
        assert_eq!(a.prefix_digests, b.prefix_digests);
        assert_eq!(a.prefix_digests.len() as u64, cfg.num_batches + 1);
        // every batch must actually move the tables
        for w in a.prefix_digests.windows(2) {
            assert_ne!(w[0], w[1], "an applied batch left the tables untouched");
        }
    }

    #[test]
    fn sharded_prefixes_agree_with_the_global_oracle() {
        let cfg = SimConfig::default().with_topology(3, 1);
        let oracle = sequential_prefix(&cfg);
        assert_eq!(oracle.per_shard.len(), cfg.shard.num_shards as usize);
        for (s, digests) in oracle.per_shard.iter().enumerate() {
            assert_eq!(digests.len() as u64, cfg.num_batches + 1, "shard {s}");
        }
        // the global digests do not depend on the layout
        assert_eq!(oracle.prefix_digests, sequential_prefix(&SimConfig::default()).prefix_digests);
        // per-shard digests are deterministic
        assert_eq!(oracle.per_shard, sequential_prefix(&cfg).per_shard);
        // index 0 is the untrained split
        let split = split_tables(&build_tables(&cfg), &cfg.layout()).unwrap();
        for (s, sub) in split.iter().enumerate() {
            assert_eq!(oracle.per_shard[s][0], digest_tables(sub));
        }
    }

    #[test]
    fn one_shard_is_the_whole_server() {
        // the degenerate layout splits nothing: the two references agree
        let oracle = sequential_prefix(&SimConfig::default());
        assert_eq!(oracle.per_shard, [oracle.prefix_digests]);
    }

    #[test]
    fn oracle_depends_on_the_model_seed() {
        let a = sequential_prefix(&SimConfig::default());
        let b = sequential_prefix(&SimConfig { model_seed: 12, ..SimConfig::default() });
        assert_ne!(a.prefix_digests.last(), b.prefix_digests.last());
    }
}
