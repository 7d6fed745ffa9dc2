//! Figure 15 — loss convergence of DLRM vs TT-Rec vs EL-Rec.
//!
//! Trains the three models on the Terabyte-shaped synthetic workload and
//! prints windowed training-loss averages. The paper's claim: the TT
//! table does not slow convergence — the three curves coincide.

use el_bench::{bench_batches, bench_scale, print_table, section};
use el_core::TtOptions;
use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use rand::SeedableRng;

fn train_curve(
    ds: &SyntheticDataset,
    tt_threshold: usize,
    options: Option<TtOptions>,
    num_batches: u64,
    window: usize,
) -> Vec<f32> {
    let mut cfg = DlrmConfig::for_spec(ds.spec(), 16, tt_threshold, 16);
    cfg.bottom_hidden = vec![32];
    cfg.top_hidden = vec![32];
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    if let Some(opts) = options {
        for t in &mut model.tables {
            if let EmbeddingLayer::Tt(bag, _) = t {
                bag.options = opts.clone();
            }
        }
    }
    let mut curve = Vec::new();
    let mut acc = 0.0f32;
    for k in 0..num_batches {
        acc += model.train_step(&ds.batch(k, 512));
        if (k + 1) % window as u64 == 0 {
            curve.push(acc / window as f32);
            acc = 0.0;
        }
    }
    curve
}

fn main() {
    let scale = bench_scale(0.0003);
    let num_batches = bench_batches(80);
    // one point per 10 batches; a shorter run is one window
    let window = 10.min(num_batches as usize);
    let ds = SyntheticDataset::new(DatasetSpec::criteo_terabyte(scale), 61);

    section("Figure 15: training-loss convergence (terabyte-shaped synthetic)");
    let dlrm = train_curve(&ds, usize::MAX, None, num_batches, window);
    let ttrec = train_curve(&ds, 2_000, Some(TtOptions::tt_rec_baseline()), num_batches, window);
    let elrec = train_curve(&ds, 2_000, Some(TtOptions::default()), num_batches, window);

    let mut rows = Vec::new();
    for (i, ((a, b), c)) in dlrm.iter().zip(&ttrec).zip(&elrec).enumerate() {
        rows.push(vec![
            format!("{}", (i + 1) * window),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{c:.4}"),
        ]);
    }
    print_table(&["iteration", "DLRM", "TT-Rec", "EL-Rec"], &rows);

    let last = rows.len() - 1;
    let spread = (dlrm[last] - elrec[last]).abs().max((ttrec[last] - elrec[last]).abs());
    println!(
        "final-window spread between curves: {spread:.4} \n\
         paper: the EL-Rec curve tracks DLRM — TT training needs no extra iterations."
    );
}
