//! End-to-end training across the full stack: data generator -> DLRM with
//! mixed dense/TT tables -> metrics.

use el_rec::data::{DatasetSpec, MiniBatch, SyntheticDataset};
use el_rec::dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use rand::SeedableRng;

fn dataset() -> SyntheticDataset {
    let mut spec = DatasetSpec::toy(4, 3000, usize::MAX / 2);
    spec.num_dense = 6;
    SyntheticDataset::new(spec, 404)
}

fn config() -> DlrmConfig {
    DlrmConfig {
        num_dense: 6,
        table_cardinalities: vec![3000; 4],
        dim: 16,
        bottom_hidden: vec![32],
        top_hidden: vec![32],
        tt_threshold: 2000, // every table compressed
        tt_rank: 16,
        lr: 0.05,
        optimizer: el_dlrm::OptimizerKind::Sgd,
    }
}

#[test]
fn tt_dlrm_learns_signal() {
    let ds = dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut model = DlrmModel::new(&config(), &mut rng);

    let mut early = 0.0f32;
    let mut late = 0.0f32;
    for k in 0..80u64 {
        let loss = model.train_step(&ds.batch(k, 256));
        if k < 10 {
            early += loss / 10.0;
        }
        if k >= 70 {
            late += loss / 10.0;
        }
    }
    assert!(late < early, "training loss did not fall: {early} -> {late}");

    let eval: Vec<MiniBatch> = (9_000..9_006u64).map(|b| ds.batch(b, 256)).collect();
    let metrics = model.evaluate(&eval);
    assert!(
        metrics.auc > 0.55,
        "model failed to beat chance on held-out data: auc {}",
        metrics.auc
    );
}

#[test]
fn tt_and_dense_models_reach_similar_quality() {
    // Table IV's claim across the crate boundary: compressing the tables
    // does not meaningfully change what the model learns.
    let ds = dataset();
    let eval: Vec<MiniBatch> = (9_000..9_006u64).map(|b| ds.batch(b, 256)).collect();

    let train = |tt_threshold: usize| {
        let mut cfg = config();
        cfg.tt_threshold = tt_threshold;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut model = DlrmModel::new(&cfg, &mut rng);
        for k in 0..80u64 {
            let _ = model.train_step(&ds.batch(k, 256));
        }
        model.evaluate(&eval)
    };
    let dense = train(usize::MAX);
    let tt = train(2000);
    assert!(
        (dense.auc - tt.auc).abs() < 0.05,
        "dense auc {} vs TT auc {} diverged",
        dense.auc,
        tt.auc
    );
}

#[test]
fn hosted_hybrid_training_converges() {
    // One table hosted externally; gradients flow back through the hybrid
    // step and the externally-updated embeddings keep improving the loss.
    let ds = dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut cfg = config();
    cfg.tt_threshold = usize::MAX;
    let mut model = DlrmModel::new(&cfg, &mut rng);
    let host_table = 2usize;
    let mut host = match std::mem::replace(
        &mut model.tables[host_table],
        EmbeddingLayer::Hosted { dim: 16 },
    ) {
        EmbeddingLayer::Dense(bag) => bag,
        _ => unreachable!(),
    };

    let mut early = 0.0f32;
    let mut late = 0.0f32;
    for k in 0..60u64 {
        let batch = ds.batch(k, 256);
        let field = &batch.fields[host_table];
        let pooled = host.forward(&field.indices, &field.offsets);
        let out = model.train_step_hybrid(&batch, &[(host_table, pooled)]);
        for (t, grad) in &out.hosted_grads {
            assert_eq!(*t, host_table);
            host.backward_sgd(&field.indices, &field.offsets, grad, 0.05);
        }
        if k < 10 {
            early += out.loss / 10.0;
        }
        if k >= 50 {
            late += out.loss / 10.0;
        }
    }
    assert!(late < early, "hybrid training did not improve: {early} -> {late}");
}
