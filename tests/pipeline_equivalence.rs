//! The paper's read-after-write guarantee (Figure 10), tested across the
//! full stack: pipelined training with pre-fetching must produce exactly
//! the parameter trajectory of sequential training, for hybrid models that
//! mix device-resident TT tables with host-resident dense tables.

use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use el_rec::pipeline::server::{HostServer, ServerMode};
use el_rec::pipeline::trainer::{PipelineConfig, PipelineReport, PipelineTrainer};
use rand::SeedableRng;

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
        batch_size: 64,
        first_batch: 0,
        num_batches: 20,
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

#[test]
fn deeper_queues_need_more_cache_corrections() {
    let d2 = run(true, 2);
    let d8 = run(true, 8);
    assert!(d2.stale_hits > 0, "depth 2 should already see staleness");
    assert!(
        d8.stale_hits >= d2.stale_hits,
        "deeper pipeline cannot need fewer corrections: {} vs {}",
        d8.stale_hits,
        d2.stale_hits
    );
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
