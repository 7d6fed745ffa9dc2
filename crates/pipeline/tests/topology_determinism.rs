//! Topology determinism: the trained bytes must be a pure function of
//! `(model seed, dataset, config)` — identical across rayon pool sizes,
//! shard counts, replica counts (including legs that kill the shard-0
//! primary mid-run and promote a backup) and pipelined or not. Every cell
//! of the matrix is compared against a reference written here that uses
//! no queue, no router and no thread: the single-server sequential
//! schedule the one driver's `N = K = 1` must reproduce.
//!
//! The thread-count legs re-exec this test binary (following
//! `crates/reorder/tests/determinism.rs`, itself after
//! `vendor/rayon/tests/stress.rs`) because a pool's size is fixed at
//! first use within a process; each child runs the whole topology matrix.

use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::embedding_bag::EmbeddingBag;
use el_dlrm::{DlrmConfig, DlrmModel, OptimizerKind};
use el_pipeline::ckpt::Fnv1a;
use el_pipeline::server::{aggregate_to_unique, pool_prefetched, GradientPush, HostServer};
use el_pipeline::{PipelineConfig, PipelineTrainer, ReplicationConfig, ShardConfig};
use rand::SeedableRng;
use std::process::Command;
use std::time::Duration;

const BATCHES: u64 = 12;
const BATCH_SIZE: usize = 64;
const TOPOLOGIES: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (3, 3)];

/// The shared training universe: three tables, two of them hosted.
fn setup() -> (DlrmModel, HostServer, SyntheticDataset) {
    let mut spec = DatasetSpec::toy(3, 200, 1_000_000);
    spec.num_dense = 4;
    spec.table_cardinalities = vec![400, 200, 200];
    let dataset = SyntheticDataset::new(spec, 11);

    let cfg = DlrmConfig {
        num_dense: 4,
        table_cardinalities: vec![400, 200, 200],
        dim: 8,
        bottom_hidden: vec![16],
        top_hidden: vec![16],
        tt_threshold: usize::MAX,
        tt_rank: 8,
        lr: 0.05,
        optimizer: OptimizerKind::Sgd,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut model = DlrmModel::new(&cfg, &mut rng);

    let host = model.host_dense_tables(|t| t == 1 || t == 2);
    (model, HostServer::new(host, 0.05), dataset)
}

/// FNV-1a over the loss trajectory and every trained host-table byte —
/// any schedule-, layout- or failover-dependent update would perturb it.
fn train_hash(losses: &[f32], tables: &[(usize, EmbeddingBag)]) -> u64 {
    let mut h = Fnv1a::new();
    for loss in losses {
        h.update(&loss.to_le_bytes());
    }
    for (id, bag) in tables {
        h.update(&(*id as u64).to_le_bytes());
        for v in bag.weight.as_slice() {
            h.update(&v.to_le_bytes());
        }
    }
    h.finish()
}

/// The oracle: one thread, one server, one batch at a time — gather,
/// pool, train, aggregate, apply. No cache is needed because nothing is
/// ever stale.
fn reference() -> u64 {
    let (mut model, mut server, dataset) = setup();
    let mut losses = Vec::new();
    for k in 0..BATCHES {
        let pf = server.gather(dataset.batch(k, BATCH_SIZE), k);
        let field = |t: usize| &pf.batch.fields[t];
        let hosted: Vec<_> = pf
            .tables
            .iter()
            .map(|(t, unique, rows)| {
                (*t, pool_prefetched(&field(*t).indices, &field(*t).offsets, unique, rows))
            })
            .collect();
        let out = model.train_step_hybrid(&pf.batch, &hosted);
        losses.push(out.loss);
        let tables = out
            .hosted_grads
            .iter()
            .map(|(t, d_emb)| {
                let (_, unique, _) = pf.tables.iter().find(|(id, _, _)| id == t).unwrap();
                (*t, aggregate_to_unique(&field(*t).indices, &field(*t).offsets, unique, d_emb))
            })
            .collect();
        server.apply_checked(&GradientPush { batch_seq: k, tables, pooled: vec![] }).unwrap();
    }
    train_hash(&losses, &server.tables)
}

/// One cell: `shards` x `replicas` through the one driver. Replicated
/// cells also run a failover drill — the shard-0 primary dies at
/// watermark 5 — so the matrix pins that promotion itself leaves the
/// bytes unchanged.
fn train(shards: u32, replicas: u32, pipelined: bool) -> u64 {
    let (model, server, dataset) = setup();
    let config = PipelineConfig {
        batch_size: BATCH_SIZE,
        first_batch: 0,
        num_batches: BATCHES,
        prefetch_depth: 4,
        pipelined,
        ..PipelineConfig::default()
    };
    let shard_cfg = ShardConfig { num_shards: shards, rows_per_range: 16, placement_seed: 0xE1 };
    let kills = if replicas > 1 { vec![(0, 5)] } else { Vec::new() };
    let repl = ReplicationConfig {
        replicas,
        kill_primary_at: kills.clone(),
        ..ReplicationConfig::default()
    };
    let report =
        PipelineTrainer::try_train_replicated(model, server, &dataset, &config, &shard_cfg, &repl)
            .expect("unique-rows training is servable at every topology");
    assert_eq!(report.completed_batches, BATCHES);
    assert_eq!(report.failovers, kills.len() as u64);
    // The worker's steps run inside the run's wall clock, whatever share
    // of them the pool's other threads carry.
    assert!(
        Duration::ZERO < report.worker_compute && report.worker_compute <= report.wall,
        "worker compute {:?} outside (0, wall {:?}]",
        report.worker_compute,
        report.wall
    );
    train_hash(&report.losses, &report.host_tables)
}

/// Child body: runs the reference and every cell under the pool size the
/// parent pinned, printing one labelled hash per line. Runs only when
/// re-exec'd with `EL_TOPOLOGY_CHILD` set.
#[test]
fn determinism_child() {
    if std::env::var("EL_TOPOLOGY_CHILD").is_err() {
        return; // not a child: the matrix test below drives this
    }
    println!("train-hash reference {:#018x}", reference());
    for (shards, replicas) in TOPOLOGIES {
        for pipelined in [false, true] {
            let hash = train(shards, replicas, pipelined);
            println!("train-hash N={shards},K={replicas},pipelined={pipelined} {hash:#018x}");
        }
    }
}

/// Re-execs this binary with `RAYON_NUM_THREADS` pinned, returning the
/// `(label, hash)` lines the child printed.
fn child_hashes(threads: &str) -> Vec<(String, String)> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(["determinism_child", "--exact", "--nocapture"])
        .env("EL_TOPOLOGY_CHILD", "1")
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawning determinism child failed");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (RAYON_NUM_THREADS={threads}) failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    stdout
        .lines()
        .filter_map(|line| line.split("train-hash ").nth(1))
        .map(|cell| {
            let (label, hash) = cell.split_once(' ').expect("label, then hash");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

#[test]
fn trained_bytes_are_thread_topology_and_schedule_invariant() {
    let oracle = format!("{:#018x}", reference());
    for threads in ["1", "4"] {
        let cells = child_hashes(threads);
        assert_eq!(cells.len(), 1 + TOPOLOGIES.len() * 2, "every cell must report");
        for (label, hash) in &cells {
            assert_eq!(
                *hash, oracle,
                "trained bytes depend on the schedule: RAYON_NUM_THREADS={threads}, {label}"
            );
        }
    }
}
