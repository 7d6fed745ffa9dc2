//! Ablation: pre-fetch queue depth.
//!
//! The paper fixes the pipeline at "a few batches" of pre-fetch; this
//! sweep shows the trade-off the queue length controls: deeper queues hide
//! more host latency (modeled overlap) but hold more stale rows, growing
//! the embedding cache and its synchronization work.

use el_bench::{bench_batches, bench_scale, fmt_bytes, fmt_secs, print_table, section};
use el_data::{DatasetSpec, SyntheticDataset};
use el_dlrm::{DlrmConfig, DlrmModel};
use el_frameworks::{DeviceSpec, DeviceWork};
use el_pipeline::server::HostServer;
use el_pipeline::trainer::{PipelineConfig, PipelineTrainer};
use rand::SeedableRng;

fn setup(ds: &SyntheticDataset) -> (DlrmModel, HostServer) {
    let mut cfg = DlrmConfig::for_spec(ds.spec(), 16, usize::MAX, 16);
    cfg.bottom_hidden = vec![32];
    cfg.top_hidden = vec![32];
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    let host = model.host_dense_tables(|t| ds.spec().table_cardinalities[t] >= 2_000);
    (model, HostServer::new(host, cfg.lr))
}

fn main() {
    let scale = bench_scale(0.003);
    let num_batches = bench_batches(16);
    let device = DeviceSpec::v100();
    let ds = SyntheticDataset::new(DatasetSpec::criteo_kaggle(scale), 91);

    section("Ablation: pre-fetch queue depth (EL-Rec pipeline placement)");
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 8, 16] {
        let (model, server) = setup(&ds);
        let config = PipelineConfig {
            batch_size: 1024,
            first_batch: 0,
            num_batches,
            prefetch_depth: depth,
            pipelined: depth > 1,
            ..PipelineConfig::default()
        };
        let report = PipelineTrainer::try_train(model, server, &ds, &config)
            .expect("unique-rows serving accepts any schedule");
        let mut model = report.model;
        let probe = ds.batch(config.first_batch, config.batch_size);
        let work = DeviceWork {
            host: report.server_cpu,
            bus: report.server_meter,
            ..DeviceWork::split(&mut model, &probe, report.worker_compute, num_batches)
        };
        let modeled = device.time(&work, num_batches, config.pipelined);
        rows.push(vec![
            depth.to_string(),
            fmt_secs(modeled),
            report.stale_hits.to_string(),
            fmt_bytes(report.cache_peak_bytes),
        ]);
    }
    print_table(&["queue depth", "modeled time", "stale rows synced", "cache peak"], &rows);
    println!(
        "depth 1 = the sequential baseline; returns flatten once the shorter\n\
         stage is fully hidden, while cache pressure keeps growing."
    );
}
