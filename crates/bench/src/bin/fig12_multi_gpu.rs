//! Figure 12 — training throughput under the multi-GPU setting.
//!
//! Both systems replicate the MLPs (data parallel). They differ in the
//! embedding layer:
//!
//! * **EL-Rec** replicates the compact Eff-TT tables too, so each device
//!   trains an independent batch and the only communication is the
//!   gradient all-reduce (MLP + TT cores);
//! * **DLRM** cannot replicate its dense tables — they are sharded model
//!   parallel, so every batch additionally pays an all-to-all embedding
//!   exchange forward and backward.
//!
//! Per-batch compute is measured on the real kernels and turned into
//! device time by kernel class (`el_frameworks::device`); communication is
//! metered and charged to the PCIe link (the bottleneck hop of the
//! p3.8xlarge topology). Throughput = W * batch / (device time + comm).

use el_bench::{bench_batches, bench_scale, fmt_speedup, print_table, section};
use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer};
use el_frameworks::device::{ring_allreduce_bytes, DeviceSpec, DeviceWork};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Measured train-step wall of `n` batches.
fn train_wall(model: &mut DlrmModel, ds: &SyntheticDataset, batch: usize, n: u64) -> Duration {
    let _ = model.train_step(&ds.batch(1_000, batch)); // warmup
    let start = Instant::now();
    for k in 0..n {
        let _ = model.train_step(&ds.batch(k, batch));
    }
    start.elapsed()
}

fn main() {
    let scale = bench_scale(0.01);
    let num_steps = bench_batches(3);
    // the paper's setting: batch 4K, dim 128
    let batch_size = 4096;
    let dim = 128;
    let device = DeviceSpec::v100();
    let ds = SyntheticDataset::new(DatasetSpec::criteo_kaggle(scale), 81);
    let threshold = 1_000;
    let large = ds.spec().large_tables(threshold).len();

    let make = |tt_threshold: usize| {
        let mut cfg = DlrmConfig::for_spec(ds.spec(), dim, tt_threshold, 32);
        cfg.bottom_hidden = vec![64];
        cfg.top_hidden = vec![64];
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        DlrmModel::new(&cfg, &mut rng)
    };

    let mut elrec = make(threshold);
    let mut dlrm = make(usize::MAX);
    let wall_el = train_wall(&mut elrec, &ds, batch_size, num_steps);
    let wall_dlrm = train_wall(&mut dlrm, &ds, batch_size, num_steps);
    // All-reduce payload: MLP grads + TT-core grads. Small dense tables
    // sync sparse gradients whose volume is negligible (unique rows per
    // batch), matching real data-parallel embedding replication.
    let mlp_bytes = (dlrm.bottom.param_count() + dlrm.top.param_count()) * 4;
    let tt_bytes: usize = elrec
        .tables
        .iter()
        .map(|t| match t {
            EmbeddingLayer::Tt(bag, _) => bag.param_count() * 4,
            _ => 0,
        })
        .sum();
    let grad_bytes_el = mlp_bytes + tt_bytes;

    // Split each model's step into kernel classes on a representative
    // batch: dense lookups are memory-bound gathers, TT chains their own
    // class, everything else (MLP, interaction) GEMM-class math.
    let probe = ds.batch(999, batch_size);
    let work_dlrm = DeviceWork::split(&mut dlrm, &probe, wall_dlrm, num_steps);
    let work_el = DeviceWork::split(&mut elrec, &probe, wall_el, num_steps);
    let dev_time_dlrm = device.device_secs(&work_dlrm) / num_steps as f64;
    let dev_time_el = device.device_secs(&work_el) / num_steps as f64;

    let ms = |d: Duration| d.as_secs_f64() * 1e3 / num_steps as f64;
    eprintln!(
        "  [fig12] c_dlrm={:.1}ms (gather {:.1}ms) c_el={:.1}ms (tt {:.1}ms, gather {:.1}ms) large={large}",
        ms(wall_dlrm),
        ms(work_dlrm.gather),
        ms(wall_el),
        ms(work_el.tt),
        ms(work_el.gather),
    );
    section(&format!("Figure 12: multi-GPU training throughput ({}, simulated)", device.name));
    let mut rows = Vec::new();
    let mut elrec_tp = [0.0f64; 2];
    let mut dlrm_tp = [0.0f64; 2];
    for (i, &workers) in [1usize, 4].iter().enumerate() {
        // DLRM: data-parallel MLP (ring all-reduce) + model-parallel
        // embeddings (all-to-all both directions).
        let a2a_bytes = if workers > 1 {
            2 * batch_size * dim * 4 * large * (workers - 1) / workers
        } else {
            0
        };
        let mlp_ring = ring_allreduce_bytes(mlp_bytes / 4, workers);
        let dlrm_comm = (a2a_bytes as f64 + mlp_ring as f64) / device.pcie_bps;
        let dlrm_time = dev_time_dlrm + dlrm_comm;
        dlrm_tp[i] = workers as f64 * batch_size as f64 / dlrm_time;
        rows.push(vec![
            format!(
                "DLRM ({workers} GPU{})",
                if workers > 1 { ", model-parallel emb" } else { "" }
            ),
            format!("{:.0}", dlrm_tp[i]),
        ]);

        // EL-Rec: everything replicated; one ring all-reduce of all grads.
        let el_comm = ring_allreduce_bytes(grad_bytes_el / 4, workers) as f64 / device.pcie_bps;
        let el_time = dev_time_el + el_comm;
        elrec_tp[i] = workers as f64 * batch_size as f64 / el_time;
        rows.push(vec![
            format!("EL-Rec ({workers} GPU, data-parallel)"),
            format!("{:.0}", elrec_tp[i]),
        ]);
    }
    print_table(&["configuration", "samples/s (simulated)"], &rows);
    println!(
        "EL-Rec(4)/DLRM(4) = {}; DLRM(1)/EL-Rec(1) = {}",
        fmt_speedup(elrec_tp[1] / dlrm_tp[1]),
        fmt_speedup(dlrm_tp[0] / elrec_tp[0]),
    );
    println!(
        "paper: EL-Rec(4) up to 1.4x over DLRM(4); DLRM(1) slightly above\n\
         EL-Rec(1) because tensorization adds compute."
    );
}
