//! The paper's read-after-write guarantee (Figure 10), tested across the
//! full stack: pipelined training with pre-fetching must produce exactly
//! the parameter trajectory of sequential training, for hybrid models that
//! mix device-resident TT tables with host-resident dense tables.

use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::dlrm::{DlrmConfig, DlrmModel, EmbeddingBag, EmbeddingLayer};
use el_rec::pipeline::server::{ApplyOutcome, HostServer, ServerMode};
use el_rec::pipeline::trainer::{PipelineConfig, PipelineReport, PipelineTrainer};
use el_rec::pipeline::WorkerCache;
use rand::SeedableRng;
use std::collections::VecDeque;

const NUM_BATCHES: u64 = 20;
const BATCH_SIZE: usize = 64;

fn dataset() -> SyntheticDataset {
    let mut spec = DatasetSpec::toy(4, 500, usize::MAX / 2);
    spec.num_dense = 4;
    SyntheticDataset::new(spec, 777)
}

/// Largest table TT on the worker, tables 1/2 hosted, table 3 dense on the
/// worker — the full Figure 9 placement.
fn setup() -> (DlrmModel, HostServer) {
    let cfg = DlrmConfig {
        num_dense: 4,
        table_cardinalities: vec![500; 4],
        dim: 8,
        bottom_hidden: vec![16],
        top_hidden: vec![16],
        tt_threshold: usize::MAX,
        tt_rank: 8,
        lr: 0.05,
        optimizer: el_dlrm::OptimizerKind::Sgd,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    // table 0 -> TT on device
    let tt_cfg = el_rec::core::TtConfig::new(500, 8, 8);
    let tt = el_rec::core::TtEmbeddingBag::new(&tt_cfg, &mut rng);
    model.tables[0] = EmbeddingLayer::Tt(Box::new(tt), el_rec::core::TtWorkspace::new());

    let host = model.host_dense_tables(|t| t == 1 || t == 2);
    (model, HostServer::new(host, 0.05))
}

fn run(pipelined: bool, depth: usize) -> PipelineReport {
    let (model, server) = setup();
    let config = PipelineConfig {
        batch_size: BATCH_SIZE,
        first_batch: 0,
        num_batches: NUM_BATCHES,
        prefetch_depth: depth,
        pipelined,
        overlap_analysis: pipelined,
    };
    PipelineTrainer::try_train(model, server, &dataset(), &config).unwrap()
}

#[test]
fn pipelined_training_is_bitwise_equal_to_sequential() {
    let seq = run(false, 1);
    for depth in [2usize, 4, 8] {
        let pipe = run(true, depth);
        assert_eq!(seq.losses, pipe.losses, "loss trajectory diverged at queue depth {depth}");
        for ((ta, a), (tb, b)) in seq.host_tables.iter().zip(&pipe.host_tables) {
            assert_eq!(ta, tb);
            assert_eq!(
                a.weight.as_slice(),
                b.weight.as_slice(),
                "host table {ta} diverged at depth {depth}"
            );
        }
    }
}

/// A pre-fetch queue of `depth` batches kept full, driven on one thread:
/// the queue is refilled to `depth` gathered batches before every step,
/// so batch `b` is gathered after only `b + 1 - depth` gradient applies
/// (`depth == 1` is strict alternation). Returns the trained host tables,
/// the losses and the rows the cache corrected.
fn run_queue_full(depth: u64) -> (Vec<(usize, EmbeddingBag)>, Vec<f32>, u64) {
    let (mut model, mut server) = setup();
    let data = dataset();
    let mut cache = WorkerCache::new(server.tables.len(), server.lr);
    let mut queue = VecDeque::new();
    let mut losses = Vec::new();
    for k in 0..NUM_BATCHES {
        for next in k + queue.len() as u64..(k + depth).min(NUM_BATCHES) {
            queue.push_back(server.gather(data.batch(next, BATCH_SIZE), next));
        }
        let mut pf = queue.pop_front().expect("the queue holds batch k");
        let pooled = cache.pool(&mut pf);
        let out = model.train_step_hybrid(&pf.batch, &pooled);
        losses.push(out.loss);
        let push = cache.gradient_push(&pf, &out.hosted_grads);
        assert_eq!(server.apply_checked(&push), Ok(ApplyOutcome::Applied));
    }
    (server.tables, losses, cache.stale_hits())
}

#[test]
fn deeper_queues_need_more_cache_corrections() {
    // Strict alternation never gathers ahead of an apply, on any schedule.
    let seq = run(false, 1);
    assert_eq!(seq.stale_hits, 0, "sequential training cannot see a stale row");
    // A full queue is one deterministic schedule: a deeper one corrects
    // more rows, and the corrections restore the sequential bytes exactly.
    let mut shallower = 0;
    for depth in [2, 8] {
        let (tables, losses, corrected) = run_queue_full(depth);
        assert!(
            corrected > shallower,
            "depth {depth} corrected {corrected} rows, a shallower queue {shallower}"
        );
        shallower = corrected;
        assert_eq!(losses, seq.losses, "loss trajectory diverged at queue depth {depth}");
        for ((ta, a), (tb, b)) in seq.host_tables.iter().zip(&tables) {
            assert_eq!(ta, tb);
            assert_eq!(
                a.weight.as_slice(),
                b.weight.as_slice(),
                "host table {ta} diverged at depth {depth}"
            );
        }
    }
}

#[test]
fn worker_tt_tables_also_stay_in_sync() {
    // The TT table lives on the worker, so its final cores must agree
    // between modes as well (it never crosses the queues).
    let seq = run(false, 1);
    let pipe = run(true, 4);
    let (a, b) = (&seq.model.tables[0], &pipe.model.tables[0]);
    match (a, b) {
        (EmbeddingLayer::Tt(x, _), EmbeddingLayer::Tt(y, _)) => {
            for (ca, cb) in x.cores().cores.iter().zip(&y.cores().cores) {
                assert_eq!(ca, cb, "worker TT cores diverged");
            }
        }
        _ => panic!("table 0 should be TT"),
    }
}

#[test]
fn pooled_mode_trains_the_same_model_as_unique_rows() {
    // The reference-DLRM serving mode moves different payloads but must
    // implement the same mathematics (sequentially).
    let unique = run(false, 1);

    let (model, server) = setup();
    let server = HostServer { mode: ServerMode::PooledEmbeddings, ..server };
    let config = PipelineConfig {
        batch_size: 64,
        first_batch: 0,
        num_batches: 20,
        prefetch_depth: 1,
        pipelined: false,
        overlap_analysis: false,
    };
    let pooled = PipelineTrainer::try_train(model, server, &dataset(), &config).unwrap();

    for (a, b) in unique.losses.iter().zip(&pooled.losses) {
        assert!((a - b).abs() < 1e-5, "serving modes diverged: {a} vs {b}");
    }
    // pooled mode ships batch x dim matrices: more bytes than unique rows
    assert!(pooled.server_meter.total_bytes() > unique.server_meter.total_bytes());
}
