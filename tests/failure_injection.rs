//! Failure injection: the serving side of the pipeline — router thread,
//! shard threads, replica groups — must degrade gracefully when its worker
//! disappears mid-run, at every topology: no panics, no lost updates for
//! gradients that did arrive, every thread joined.

use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::dlrm::embedding_bag::{EmbeddingBag, SparseGrad};
use el_rec::pipeline::server::{GradientPush, HostServer, PrefetchedBatch};
use el_rec::pipeline::trainer::{PipelineConfig, ServingLoop};
use el_rec::pipeline::{ReplicationConfig, ShardConfig};
use rand::SeedableRng;

/// `(shards, replicas)`: the single host server, and a tier with a real
/// router fan-out and real backups.
const TOPOLOGIES: [(u32, u32); 2] = [(1, 1), (2, 2)];

fn dataset() -> SyntheticDataset {
    SyntheticDataset::new(DatasetSpec::toy(2, 100, 1_000_000), 31)
}

fn server() -> HostServer {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let tables = vec![
        (0usize, EmbeddingBag::new(100, 8, 0.2, &mut rng)),
        (1usize, EmbeddingBag::new(100, 8, 0.2, &mut rng)),
    ];
    HostServer::new(tables, 0.1)
}

/// A `shards` x `replicas` serving tier scheduled for `count` batches
/// with pre-fetch queue `depth`. Each test plays the device side as the
/// closure it hands to `run`; `run` returning at all proves the router
/// and every shard thread shut down.
fn serving(
    (shards, replicas): (u32, u32),
    (count, depth, pipelined): (u64, usize, bool),
) -> ServingLoop {
    let config = PipelineConfig {
        batch_size: 16,
        first_batch: 0,
        num_batches: count,
        prefetch_depth: depth,
        pipelined,
        ..PipelineConfig::default()
    };
    let shard_cfg = ShardConfig { num_shards: shards, rows_per_range: 16, placement_seed: 7 };
    let repl = ReplicationConfig { replicas, ..ReplicationConfig::default() };
    ServingLoop::new(server(), &config, &shard_cfg, &repl)
        .expect("a unique-rows server serves any schedule")
}

fn unit_push(pf: &PrefetchedBatch) -> GradientPush {
    let tables = pf
        .tables
        .iter()
        .map(|(t, unique, rows)| {
            (
                *t,
                SparseGrad {
                    indices: unique.clone(),
                    values: vec![1.0; rows.len()],
                    dim: rows.cols(),
                },
            )
        })
        .collect();
    GradientPush { batch_seq: pf.batch_seq, tables, pooled: vec![] }
}

#[test]
fn worker_vanishing_mid_run_stops_the_server_cleanly() {
    for topology in TOPOLOGIES {
        // the "worker" processes three batches, then dies without warning
        let ((), report) = serving(topology, (100, 2, true)).run(&dataset(), |prx, gtx| {
            for _ in 0..3 {
                let pf = prx.recv().unwrap();
                gtx.send(unit_push(&pf)).unwrap();
            }
        });
        let applied = report.server.applied;
        assert_eq!(applied, 3, "{topology:?}: updates that arrived must reach every shard");
    }
}

#[test]
fn worker_that_never_pushes_gradients_does_not_wedge_the_server() {
    for topology in TOPOLOGIES {
        // sequential: the router blocks on the gradients of batch 0;
        // consume that one prefetch, never push, then hang up
        let ((), report) = serving(topology, (10, 1, false)).run(&dataset(), |prx, _gtx| {
            let _ = prx.recv().unwrap();
        });
        assert_eq!(report.server.applied, 0, "{topology:?}");
    }
}

#[test]
fn server_tail_drain_applies_late_gradients() {
    for topology in TOPOLOGIES {
        // the worker is slower than the server: pushes arrive after the
        // server finished prefetching everything and waits in its drain
        let ((), report) = serving(topology, (5, 4, true)).run(&dataset(), |prx, gtx| {
            let prefetched: Vec<_> = (0..5).map(|_| prx.recv().unwrap()).collect();
            for pf in &prefetched {
                gtx.send(unit_push(pf)).unwrap();
            }
        });
        assert_eq!(report.server.applied, 5, "{topology:?}: tail drain must apply every late push");
    }
}

#[test]
fn bounded_prefetch_queue_applies_backpressure() {
    // with depth 1 and a worker that consumes one batch in 200 ms, the
    // server may gather batch 0 (queued), batch 1 (blocked on the full
    // queue) and, once batch 0 is taken, batch 2 — never run ahead to 50.
    let mut single = server();
    let three_batches: usize =
        (0..3).map(|k| single.gather(dataset().batch(k, 16), k).payload_bytes()).sum();
    for topology in TOPOLOGIES {
        let ((), report) = serving(topology, (50, 1, true)).run(&dataset(), |prx, _gtx| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            let first = prx.try_recv().expect("one batch must be queued");
            assert_eq!(first.batch_seq, 0);
        });
        let gathered = report.server.meter.h2d_bytes;
        assert!(
            gathered <= three_batches as u64,
            "{topology:?}: server ran ahead of the bounded queue: gathered {gathered} bytes"
        );
        assert_eq!(report.server.applied, 0, "{topology:?}: nothing was ever pushed");
    }
}

// ---------------------------------------------------------------------------
// Simulator-based failure injection: the cases below drive the same
// HostServer/EmbeddingCache protocol through the deterministic
// discrete-event simulator (`el_rec::sim`), where faults are expressed as
// replayable FaultPlans instead of racing real threads against sleeps.
// ---------------------------------------------------------------------------

use el_rec::sim::{
    check_run, run as sim_run, sequential_prefix, Fault, FaultPlan, Outcome, SimConfig, TraceEvent,
};

#[test]
fn worker_death_mid_epoch_replays_byte_identical() {
    // the acceptance criterion: a seeded plan that kills the worker
    // mid-epoch must replay to byte-identical final embedding tables.
    let cfg = SimConfig::default();
    let plan = FaultPlan::with(vec![Fault::WorkerDeath { at_batch: cfg.num_batches / 2 }]);
    let a = sim_run(&cfg, &plan, 0xD1E);
    let b = sim_run(&cfg, &plan, 0xD1E);
    assert_eq!(a.outcome, Outcome::Stalled);
    assert_eq!(a.applied, [cfg.num_batches / 2], "everything before the death must be applied");
    assert_eq!(a.merged_digest, b.merged_digest, "replay must reproduce the digest");
    for ((ta, bag_a), (tb, bag_b)) in a.merged_tables.iter().zip(&b.merged_tables) {
        assert_eq!(ta, tb);
        let bytes_a: Vec<u32> = bag_a.weight.as_slice().iter().map(|v| v.to_bits()).collect();
        let bytes_b: Vec<u32> = bag_b.weight.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bytes_a, bytes_b, "table {ta} diverged between replays");
    }
    assert_eq!(a.trace, b.trace, "the full event history must replay identically");
}

#[test]
fn server_death_mid_epoch_preserves_applied_prefix() {
    // the single server is shard 0 of a one-shard tier
    let cfg = SimConfig::default();
    let oracle = sequential_prefix(&cfg);
    let plan = FaultPlan::with(vec![Fault::ShardDeath { shard: 0, after_applied: 7 }]);
    let report = check_run(&cfg, &plan, 21, &oracle).expect("invariants must survive the death");
    assert_eq!(report.outcome, Outcome::Stalled);
    assert_eq!(report.applied, [7]);
    assert!(report
        .trace
        .any(|e| matches!(e, TraceEvent::PrimaryDied { shard: 0, applied: 7, .. })));
    // the worker notices via retry exhaustion and halts instead of spinning
    assert!(report.trace.any(|e| matches!(e, TraceEvent::GaveUp { .. })));
    // what was applied is exactly the sequential prefix
    assert_eq!(report.merged_digest, oracle.prefix_digests[7]);
}

#[test]
fn gradient_queue_saturation_is_ridden_out_by_retries() {
    let cfg = SimConfig::default();
    let oracle = sequential_prefix(&cfg);
    let plan = FaultPlan::with(vec![
        Fault::ShardSaturation { shard: 0, start: 8, ticks: 50 },
        Fault::DropShardPush { shard: 0, seq: 0, delivery: 1 },
    ]);
    let report = check_run(&cfg, &plan, 4, &oracle).expect("saturation must not break invariants");
    assert_eq!(report.outcome, Outcome::Completed, "retries must outlast the window");
    assert!(
        report.trace.any(|e| matches!(e, TraceEvent::PushBounced { .. })),
        "the window must actually bounce deliveries"
    );
    // every batch still applied exactly once, in order
    let applied = report.trace.count(|e| matches!(e, TraceEvent::Applied { .. }));
    assert_eq!(applied as u64, cfg.num_batches);
}
