//! Pipeline training with host-memory embedding tables (paper §V).
//!
//! ```text
//! cargo run --release --example pipeline_training
//! ```
//!
//! Puts the model's large tables behind the CPU parameter server, trains
//! with the pre-fetch/gradient queues, and shows two facts the paper
//! claims:
//!
//! 1. the embedding cache makes pipelined training *numerically identical*
//!    to sequential training (RAW conflicts resolved), and
//! 2. the stale-row synchronizations the cache performs are real and
//!    frequent under skewed access.

use el_rec::data::{DatasetSpec, SyntheticDataset};
use el_rec::dlrm::{DlrmConfig, DlrmModel};
use el_rec::pipeline::server::HostServer;
use el_rec::pipeline::trainer::{PipelineConfig, PipelineTrainer};
use rand::SeedableRng;

fn build(dataset: &SyntheticDataset) -> (DlrmModel, HostServer) {
    let mut config = DlrmConfig::for_spec(dataset.spec(), 16, usize::MAX, 16);
    config.lr = 0.05;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut model = DlrmModel::new(&config, &mut rng);

    // Host every table with >= 1000 rows; the rest stay on the worker.
    let host = model.host_dense_tables(|t| dataset.spec().table_cardinalities[t] >= 1000);
    (model, HostServer::new(host, config.lr))
}

fn main() {
    let dataset = SyntheticDataset::new(DatasetSpec::avazu(0.002), 5);
    let (model, server) = build(&dataset);
    println!(
        "hosted tables: {} of {} (device keeps the small ones)",
        server.tables.len(),
        model.num_tables()
    );

    let run = |pipelined: bool, depth: usize| {
        let (model, server) = build(&dataset);
        let config = PipelineConfig {
            batch_size: 256,
            first_batch: 0,
            num_batches: 30,
            prefetch_depth: depth,
            pipelined,
            ..PipelineConfig::default()
        };
        // The Result API surfaces schedule/mode mismatches as a typed
        // error before any thread spawns (`train` is the panicking strict
        // wrapper around this).
        PipelineTrainer::try_train(model, server, &dataset, &config).expect("schedule is servable")
    };

    println!("\nsequential run (queue depth 1)...");
    let seq = run(false, 1);
    println!("pipelined run (queue depth 4)...");
    let pipe = run(true, 4);

    println!(
        "\nsequential: final loss {:.5}, stale rows corrected: {}",
        seq.losses.last().unwrap(),
        seq.stale_hits
    );
    println!(
        "pipelined:  final loss {:.5}, stale rows corrected: {}",
        pipe.losses.last().unwrap(),
        pipe.stale_hits
    );
    println!("peak embedding-cache footprint: {:.1} KB", pipe.cache_peak_bytes as f64 / 1e3);

    let identical = seq.losses.iter().zip(&pipe.losses).all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "\nloss trajectories bit-identical: {identical} \
         (the RAW-conflict cache at work — paper Figure 10)"
    );
    assert!(identical, "pipelined training must match sequential exactly");
}
