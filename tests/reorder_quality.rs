//! Cross-crate properties of index reordering: it must help the Eff-TT
//! kernels without changing what the model computes.

use el_rec::core::{LookupPlan, TtConfig};
use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::reorder::metrics::mean_reuse_opportunity;
use el_rec::reorder::{ReorderConfig, Reorderer};

fn dataset(rows: usize) -> SyntheticDataset {
    let mut spec = DatasetSpec::toy(1, rows, usize::MAX / 2);
    spec.indices_per_sample = 2;
    SyntheticDataset::new(spec, 606)
}

#[test]
fn reordering_raises_reuse_opportunity_on_synthetic_communities() {
    let rows = 50_000;
    let ds = dataset(rows);
    let profile: Vec<_> = (0..8u64).map(|b| ds.batch(b, 1024)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let bij = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 1 }).fit(rows, &lists);
    bij.validate().unwrap();

    let eval: Vec<_> = (100..106u64).map(|b| ds.batch(b, 1024)).collect();
    let raw: Vec<Vec<u32>> = eval.iter().map(|b| b.fields[0].indices.clone()).collect();
    let remapped: Vec<Vec<u32>> = raw
        .iter()
        .map(|v| {
            let mut v = v.clone();
            bij.apply(&mut v);
            v
        })
        .collect();
    let raw_refs: Vec<&[u32]> = raw.iter().map(|v| v.as_slice()).collect();
    let new_refs: Vec<&[u32]> = remapped.iter().map(|v| v.as_slice()).collect();

    let cfg = TtConfig::new(rows, 32, 16);
    let last = *cfg.row_dims.last().unwrap();
    let before = mean_reuse_opportunity(&raw_refs, last);
    let after = mean_reuse_opportunity(&new_refs, last);
    assert!(after > before, "reordering should raise prefix sharing: {before:.4} -> {after:.4}");
}

#[test]
fn reordering_reduces_forward_gemm_tasks() {
    // The plan's task count is the direct work metric of the reuse buffer.
    let rows = 20_000;
    let ds = dataset(rows);
    let profile: Vec<_> = (0..8u64).map(|b| ds.batch(b, 2048)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let bij = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed: 2 }).fit(rows, &lists);

    let cfg = TtConfig::new(rows, 32, 16);
    let batch = ds.batch(200, 2048);
    let field = &batch.fields[0];
    let raw_plan = LookupPlan::build(&field.indices, &field.offsets, &cfg.row_dims, true);
    let mut remapped = field.indices.clone();
    bij.apply(&mut remapped);
    let new_plan = LookupPlan::build(&remapped, &field.offsets, &cfg.row_dims, true);
    assert!(
        new_plan.forward_tasks() < raw_plan.forward_tasks(),
        "reordering should shrink the GEMM task count: {} -> {}",
        raw_plan.forward_tasks(),
        new_plan.forward_tasks()
    );
}

#[test]
fn remapped_training_is_a_relabeling() {
    // Training on remapped indices must be exactly training on raw indices
    // with relabeled rows: same losses when the tables start from the
    // "same" (relabeled) initialization. We verify the weaker but
    // end-to-end-meaningful form: same loss statistics and final quality.
    use el_rec::dlrm::{DlrmConfig, DlrmModel};
    use rand::SeedableRng;

    let rows = 5_000;
    let ds = dataset(rows);
    let profile: Vec<_> = (0..6u64).map(|b| ds.batch(b, 512)).collect();
    let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[0].indices[..]).collect();
    let bij = Reorderer::default().fit(rows, &lists);

    let cfg = DlrmConfig {
        num_dense: 4,
        table_cardinalities: vec![rows],
        dim: 8,
        bottom_hidden: vec![16],
        top_hidden: vec![16],
        tt_threshold: usize::MAX, // dense table: relabeling is exact here
        tt_rank: 8,
        lr: 0.05,
        optimizer: el_dlrm::OptimizerKind::Sgd,
    };

    let train = |remap: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut model = DlrmModel::new(&cfg, &mut rng);
        let mut last = 0.0;
        for k in 0..40u64 {
            let mut batch = ds.batch(k, 512);
            if remap {
                batch.fields[0].remap(&bij.forward);
            }
            last = model.train_step(&batch);
        }
        last
    };
    let raw_loss = train(false);
    let remapped_loss = train(true);
    assert!(
        (raw_loss - remapped_loss).abs() < 0.05,
        "relabeling changed training quality: {raw_loss} vs {remapped_loss}"
    );
}
