//! `el-rec` — command-line front end.
//!
//! ```text
//! el-rec train --dataset kaggle --scale 0.002 --batches 100 --checkpoint model.elck
//! el-rec eval  --checkpoint model.elck --dataset kaggle --scale 0.002
//! el-rec stats --dataset avazu --scale 0.005
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set to the substrate crates.

#![forbid(unsafe_code)]

use el_rec::data::stats::AccessHistogram;
use el_rec::data::{DatasetSpec, MiniBatch, SyntheticDataset};
use el_rec::dlrm::checkpoint::DlrmCheckpoint;
use el_rec::dlrm::{DlrmConfig, DlrmModel, EmbeddingLayer, OptimizerKind};
use el_rec::pipeline::ckpt::{write_atomic, CkptError, FsStorage, TrainingCheckpoint};
use el_rec::reorder::{ReorderConfig, Reorderer};
use el_rec::tensor::shape::factorize;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&opts),
        "eval" => cmd_eval(&opts),
        "stats" => cmd_stats(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
el-rec — EL-Rec training CLI (SC 2022 reproduction)

USAGE:
  el-rec train  [--dataset kaggle|avazu|terabyte|toy] [--scale F] [--batches N]
                [--batch-size N] [--dim N] [--rank N] [--tt-threshold N]
                [--optimizer sgd|adagrad] [--lr F] [--reorder] [--seed N]
                [--checkpoint PATH]
  el-rec eval   --checkpoint PATH [--dataset ...] [--scale F] [--batches N]
                [--batch-size N] [--seed N]
  el-rec stats  [--dataset ...] [--scale F] [--batch-size N]";

struct Opts {
    map: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// A size flag, which must be positive.
    fn get_positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key, default)? {
            0 => Err(format!("--{key} must be positive")),
            v => Ok(v),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map = HashMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let key = a.strip_prefix("--").ok_or_else(|| format!("expected --option, got {a:?}"))?;
        // boolean flags take no value
        if matches!(key, "reorder") {
            flags.push(key.to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(Opts { map, flags })
}

fn dataset_from(opts: &Opts) -> Result<SyntheticDataset, String> {
    let scale: f64 = opts.get("scale", 0.002)?;
    // `scale = 1.0` is the real cardinalities; past it the tables overflow.
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    let seed: u64 = opts.get("seed", 42)?;
    let spec = match opts.get_str("dataset", "kaggle").as_str() {
        "kaggle" => DatasetSpec::criteo_kaggle(scale),
        "avazu" => DatasetSpec::avazu(scale),
        "terabyte" => DatasetSpec::criteo_terabyte(scale),
        "toy" => DatasetSpec::toy(4, (50_000.0 * scale.max(0.02)) as usize, usize::MAX / 2),
        other => return Err(format!("unknown dataset {other:?}")),
    };
    Ok(SyntheticDataset::new(spec, seed))
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    if opts.has_flag("reorder") && opts.map.contains_key("checkpoint") {
        // `eval` looks rows up by raw index, so it would mis-score tables
        // trained under the bijections, which the checkpoint does not hold.
        return Err("--reorder cannot be combined with --checkpoint: the checkpoint does not \
                    hold the index bijections, so eval would mis-score the reordered tables"
            .into());
    }
    let ds = dataset_from(opts)?;
    let batches: u64 = opts.get("batches", 50)?;
    let batch_size = opts.get_positive("batch-size", 512)?;
    let dim = opts.get_positive("dim", 16)?;
    let rank = opts.get_positive("rank", 16)?;
    let tt_threshold: usize = opts.get("tt-threshold", 2_000)?;
    let lr: f32 = opts.get("lr", 0.05)?;
    if !(lr.is_finite() && lr > 0.0) {
        return Err(format!("--lr must be finite and positive, got {lr}"));
    }
    let seed: u64 = opts.get("seed", 42)?;
    // The same test `TtConfig::new` asserts for every TT table.
    if !ds.spec().large_tables(tt_threshold).is_empty()
        && factorize(dim, 3).iter().product::<usize>() != dim
    {
        return Err(format!(
            "--dim {dim} does not split into three factors, which a TT table needs \
             (pick a dim with small factors, e.g. a power of two)"
        ));
    }

    let mut cfg = DlrmConfig::for_spec(ds.spec(), dim, tt_threshold, rank);
    cfg.lr = lr;
    cfg.optimizer = match opts.get_str("optimizer", "sgd").as_str() {
        "sgd" => OptimizerKind::Sgd,
        "adagrad" => OptimizerKind::Adagrad { eps: 1e-8 },
        other => return Err(format!("unknown optimizer {other:?}")),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    println!(
        "model: {} tables ({} TT at rank {rank}), {:.2} MB device embeddings, {:?}",
        model.num_tables(),
        ds.spec().large_tables(tt_threshold).len(),
        model.embedding_footprint_bytes() as f64 / 1e6,
        cfg.optimizer,
    );

    // optional offline reordering of the large tables
    let mut bijections = vec![None; model.num_tables()];
    if opts.has_flag("reorder") {
        let reorderer = Reorderer::new(ReorderConfig { hot_ratio: 0.05, seed });
        let profile = ds.batches(0, 8, batch_size);
        for &t in &ds.spec().large_tables(tt_threshold) {
            let lists: Vec<&[u32]> = profile.iter().map(|b| &b.fields[t].indices[..]).collect();
            bijections[t] = Some(reorderer.fit(ds.spec().table_cardinalities[t], &lists));
        }
        println!("fitted index bijections for {} tables", bijections.iter().flatten().count());
    }

    let mut window = 0.0f32;
    let report_every = (batches / 10).max(1);
    for k in 0..batches {
        let mut batch = ds.batch(k, batch_size);
        for (t, bij) in bijections.iter().enumerate() {
            if let Some(b) = bij {
                batch.fields[t].remap(&b.forward);
            }
        }
        window += model.train_step(&batch);
        if (k + 1) % report_every == 0 {
            println!("batch {:>5}: mean loss {:.4}", k + 1, window / report_every as f32);
            window = 0.0;
        }
    }

    if let Some(path) = opts.map.get("checkpoint") {
        let ckpt = TrainingCheckpoint {
            model: Some(DlrmCheckpoint::capture(&model)),
            server: None,
            next_batch: batches,
        };
        save_checkpoint(Path::new(path), &ckpt).map_err(|e| format!("saving checkpoint: {e}"))?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

fn cmd_eval(opts: &Opts) -> Result<(), String> {
    let path = opts.map.get("checkpoint").ok_or("eval requires --checkpoint PATH")?;
    let batches = opts.get_positive("batches", 8)? as u64;
    let batch_size = opts.get_positive("batch-size", 512)?;
    let bytes = std::fs::read(path).map_err(|e| format!("loading checkpoint {path}: {e}"))?;
    let ckpt = TrainingCheckpoint::from_framed_bytes(&bytes)
        .map_err(|e| format!("loading checkpoint {path}: {e}"))?;
    if ckpt.server.is_some() {
        return Err(format!(
            "{path} holds parameter-server state (a training store's checkpoint); \
             eval reads the self-contained model `train --checkpoint` writes"
        ));
    }
    let mut model = ckpt
        .model
        .ok_or_else(|| format!("{path} holds no model"))?
        .restore()
        .map_err(|e| format!("restoring checkpoint: {e}"))?;
    let ds = dataset_from(opts)?;
    check_fits(&model, ds.spec())?;
    let eval: Vec<MiniBatch> = (0..batches).map(|b| ds.batch(1_000_000 + b, batch_size)).collect();
    let m = model.evaluate(&eval);
    println!(
        "accuracy {:.2}%  auc {:.4}  log-loss {:.4}  ({} samples)",
        m.accuracy * 100.0,
        m.auc,
        m.log_loss,
        batches as usize * batch_size
    );
    Ok(())
}

/// Writes `ckpt` to `path` with the checkpoint store's atomic write, in
/// the path's directory.
fn save_checkpoint(path: &Path, ckpt: &TrainingCheckpoint) -> Result<(), CkptError> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| CkptError::Io(format!("{} names no file", path.display())))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    write_atomic(&FsStorage::open(dir)?, name, &ckpt.to_framed_bytes())
}

/// Checks that `model` can score batches of `spec`: the same dense-feature
/// count, the same number of tables, and each table the dataset's row count.
fn check_fits(model: &DlrmModel, spec: &DatasetSpec) -> Result<(), String> {
    let mismatch = |what: String| Err(format!("checkpoint does not fit {}: {what}", spec.name));
    if model.bottom.in_dim() != spec.num_dense.max(1) {
        return mismatch(format!(
            "model takes {} dense features, dataset has {}",
            model.bottom.in_dim(),
            spec.num_dense
        ));
    }
    if model.num_tables() != spec.num_sparse() {
        return mismatch(format!(
            "model has {} tables, dataset has {} sparse features",
            model.num_tables(),
            spec.num_sparse()
        ));
    }
    for (t, (table, &card)) in model.tables.iter().zip(&spec.table_cardinalities).enumerate() {
        let rows = match table {
            EmbeddingLayer::Dense(bag) => bag.num_rows(),
            EmbeddingLayer::Tt(bag, _) => bag.num_rows(),
            EmbeddingLayer::Hosted { .. } => {
                return mismatch(format!("table {t} is hosted and has no rows in the checkpoint"))
            }
        };
        if rows != card {
            return mismatch(format!("table {t} has {rows} rows, dataset has {card}"));
        }
    }
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let ds = dataset_from(opts)?;
    let batch_size = opts.get_positive("batch-size", 1024)?;
    let spec = ds.spec();
    println!(
        "{}: {} dense + {} sparse features, {} total embedding rows",
        spec.name,
        spec.num_dense,
        spec.num_sparse(),
        spec.total_rows()
    );
    let (table, &card) =
        spec.table_cardinalities.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
    let mut hist = AccessHistogram::new(card);
    let mut unique_sum = 0usize;
    let n_batches = 20u64;
    for b in 0..n_batches {
        let batch = ds.batch(b, batch_size);
        hist.record(&batch, table);
        unique_sum += batch.fields[table].unique_count();
    }
    println!("largest table: #{table} with {card} rows");
    for f in [0.01, 0.05, 0.1, 0.25] {
        println!(
            "  top {:>4.1}% of rows take {:>5.1}% of accesses",
            f * 100.0,
            hist.cumulative_share(f) * 100.0
        );
    }
    println!(
        "  avg unique indices per {batch_size}-sample batch: {:.0}",
        unique_sum as f64 / n_batches as f64
    );
    Ok(())
}
