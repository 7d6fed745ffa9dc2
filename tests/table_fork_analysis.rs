//! Pointer preparation inside the table-parallel embedding stage.
//!
//! Every TT table builds its lookup plan in its own forward call, inside
//! the step's forward fork. Batches here carry more than `PAR_BUILD_CUTOFF`
//! lookups per TT table, so with `parallel_analysis` on those builds fan
//! out onto the pool from inside a pool task. The model must finish and
//! match a twin whose tables build their plans sequentially bit for bit,
//! including on a two-thread pool, where the three TT tables fall in
//! different parts of the fork.

use common::XorShift;
use el_core::plan::PAR_BUILD_CUTOFF;
use el_data::{MiniBatch, SparseField};
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer, OptimizerKind};
use rand::SeedableRng;
use std::time::Duration;

mod common;

/// Three TT tables (at least `TT_THRESHOLD` rows) between two dense ones.
const CARDINALITIES: [usize; 5] = [5000, 40, 3000, 20, 2000];
const TT_THRESHOLD: usize = 1000;
const NUM_DENSE: usize = 4;
const SAMPLES: usize = 1024;
const BAG: usize = 5;
const STEPS: u64 = 6;
// The plan builds must be large enough to fan out onto the pool.
const _: () = assert!(SAMPLES * BAG >= PAR_BUILD_CUTOFF);

fn batch(rng: &mut XorShift) -> MiniBatch {
    let dense = (0..SAMPLES * NUM_DENSE).map(|_| rng.unit() as f32).collect();
    let fields = CARDINALITIES
        .iter()
        .map(|&rows| {
            let mut field = SparseField::with_capacity(SAMPLES, SAMPLES * BAG);
            let mut bag = [0u32; BAG];
            for _ in 0..SAMPLES {
                for i in &mut bag {
                    *i = (rng.unit() * rows as f64) as u32;
                }
                field.push_sample(&bag);
            }
            field
        })
        .collect();
    let labels = (0..SAMPLES).map(|_| if rng.unit() < 0.3 { 1.0 } else { 0.0 }).collect();
    MiniBatch { dense, num_dense: NUM_DENSE, fields, labels }
}

/// The test model, its TT tables building plans in parallel or not.
fn model(parallel_analysis: bool) -> DlrmModel {
    let config = DlrmConfig {
        num_dense: NUM_DENSE,
        table_cardinalities: CARDINALITIES.to_vec(),
        dim: 16,
        bottom_hidden: vec![16],
        top_hidden: vec![16],
        tt_threshold: TT_THRESHOLD,
        tt_rank: 8,
        lr: 0.05,
        optimizer: OptimizerKind::Sgd,
    };
    let mut model = DlrmModel::new(&config, &mut rand::rngs::StdRng::seed_from_u64(3));
    for table in &mut model.tables {
        if let EmbeddingLayer::Tt(bag, _) = table {
            bag.options.parallel_analysis = parallel_analysis;
        }
    }
    model
}

#[test]
fn fork_analysis_matches_sequential_build() {
    let mut rng = XorShift(0x0BE1_A9ED);
    let batches: Vec<MiniBatch> = (0..STEPS).map(|_| batch(&mut rng)).collect();

    let mut sequential = model(false);
    let mut parallel = model(true);
    let tt_tables = parallel.tables.iter().filter(|t| matches!(t, EmbeddingLayer::Tt(..))).count();
    assert_eq!(tt_tables, 3);
    for (i, b) in batches.iter().enumerate() {
        let want = sequential.train_step(b);
        let got = parallel.train_step(b);
        assert_eq!(want.to_bits(), got.to_bits(), "losses diverged at step {i}");
    }
}

/// Re-runs the fork test on pools of 1, 2 and 4 threads; a run that does
/// not finish in time fails.
#[test]
fn fork_analysis_finishes_at_any_pool_size() {
    common::rerun_pinned(
        "fork_analysis_matches_sequential_build",
        &[1, 2, 4],
        Duration::from_secs(300),
    );
}
