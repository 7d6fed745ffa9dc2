//! Round-trip property (DESIGN.md §11): capture → save → load → capture
//! is byte-identical across optimizers (SGD / Adagrad with live
//! accumulators), table placements (dense / TT-factorized / hosted) and
//! training prefixes. What resumes after a crash is bit-for-bit the
//! state that was checkpointed — including TT cores, hosted-table server
//! state and optimizer accumulators — and a parameter tier's model-less
//! checkpoint survives the same store bit-for-bit.

use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::checkpoint::DlrmCheckpoint;
use el_dlrm::{DlrmConfig, DlrmModel, OptimizerKind};
use el_pipeline::ckpt::{
    verify_bytes, CkptStore, MemStorage, ServerCheckpoint, Storage, TrainingCheckpoint,
};
use el_pipeline::server::HostServer;
use el_pipeline::{PipelineConfig, PipelineTrainer};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

/// The trainer-test topology: table 0 large (dense or TT by threshold),
/// tables 1 and 2 hosted on the parameter server.
fn setup(
    seed: u64,
    optimizer: OptimizerKind,
    tt_threshold: usize,
) -> (DlrmModel, HostServer, SyntheticDataset) {
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
        tt_threshold,
        tt_rank: 8,
        lr: 0.05,
        optimizer,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model = DlrmModel::new(&cfg, &mut rng);

    let host = model.host_dense_tables(|t| t == 1 || t == 2);
    (model, HostServer::new(host, 0.05), dataset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn capture_save_load_capture_is_byte_identical(
        seed in 0u64..1_000,
        adagrad in bool::ANY,
        tt in bool::ANY,
        cut in 1u64..6,
    ) {
        let optimizer = if adagrad {
            OptimizerKind::Adagrad { eps: 1e-8 }
        } else {
            OptimizerKind::Sgd
        };
        // threshold 300 factorizes table 0 (cardinality 400) into TT cores
        let tt_threshold = if tt { 300 } else { usize::MAX };
        let (model, server, dataset) = setup(seed, optimizer, tt_threshold);
        let config = PipelineConfig {
            batch_size: 64,
            first_batch: 0,
            num_batches: cut,
            prefetch_depth: 4,
            pipelined: true,
            ..PipelineConfig::default()
        };
        let report = PipelineTrainer::try_train(model, server, &dataset, &config).unwrap();
        prop_assert_eq!(report.completed_batches, cut);

        // capture → framed bytes
        let ckpt = PipelineTrainer::capture(&report.model, &report.host_tables, 0.05, cut);
        let framed = ckpt.to_framed_bytes();

        // save through the store, load back via the recovery scan
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        store.save(&ckpt).unwrap();
        let (_, loaded) = store.latest_valid().unwrap();

        // the loaded checkpoint re-frames to the exact same bytes:
        // model (TT cores and accumulators included), server tables,
        // stamps and cursors all survived bit-for-bit
        prop_assert_eq!(
            loaded.to_framed_bytes(),
            framed,
            "save → load was not byte-identical"
        );

        // restore → capture closes the loop on the model payload
        prop_assert_eq!(loaded.next_batch, cut);
        let server = loaded.server.as_ref().expect("hosted tables were captured");
        prop_assert_eq!(server.tables.len(), 2);
        prop_assert_eq!(server.applied, cut);
        let model = loaded.model.expect("the trainer captures its model");
        let model_bytes = model.to_bytes();
        let restored = model.restore().expect("captured state must restore");
        prop_assert_eq!(
            DlrmCheckpoint::capture(&restored).to_bytes(),
            model_bytes,
            "restore → capture was not byte-identical"
        );
    }

    #[test]
    fn framed_bytes_survive_a_durable_crash(
        seed in 0u64..1_000,
        cut in 1u64..4,
    ) {
        let (model, server, dataset) = setup(seed, OptimizerKind::Sgd, usize::MAX);
        let config = PipelineConfig {
            batch_size: 64,
            first_batch: 0,
            num_batches: cut,
            prefetch_depth: 4,
            pipelined: true,
            ..PipelineConfig::default()
        };
        let report = PipelineTrainer::try_train(model, server, &dataset, &config).unwrap();
        let ckpt = PipelineTrainer::capture(&report.model, &report.host_tables, 0.05, cut);
        let framed = ckpt.to_framed_bytes();

        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        store.save(&ckpt).unwrap();
        // power loss: the atomic protocol already made the save durable
        storage.crash();
        let store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        let (_, recovered) = store.latest_valid().unwrap();
        prop_assert_eq!(
            recovered.to_framed_bytes(),
            framed,
            "post-crash recovery was not byte-identical"
        );
    }

    #[test]
    fn model_less_checkpoints_round_trip_through_the_same_store(
        applied in 0u64..100,
        rows in 4usize..40,
        dim in 1usize..8,
    ) {
        // A parameter tier's checkpoint (the simulator's crash sweeps
        // write these) is the same format with no model section: it
        // survives save → load bit-for-bit and verifies like any other.
        let mut rng = rand::rngs::StdRng::seed_from_u64(applied ^ 0xD1D1);
        let bag = el_dlrm::embedding_bag::EmbeddingBag::new(rows, dim, 0.2, &mut rng);
        let ckpt = TrainingCheckpoint {
            model: None,
            server: Some(ServerCheckpoint::of_tables(vec![(0, bag)], 0.05, applied)),
            next_batch: applied,
        };
        let framed = ckpt.to_framed_bytes();

        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        let name = store.save(&ckpt).unwrap();
        let (_, loaded) = store.latest_valid().unwrap();
        prop_assert!(loaded.model.is_none());
        prop_assert_eq!(loaded.to_framed_bytes(), framed, "save → load was not byte-identical");
        let info = verify_bytes(&storage.read_file(&name).unwrap()).unwrap();
        prop_assert_eq!((info.next_batch, info.server_tables), (applied, 1));
    }
}
