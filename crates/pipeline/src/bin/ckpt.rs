//! Checkpoint tooling (`cargo xtask ckpt`).
//!
//! Two subcommands over the one framed checkpoint format of DESIGN.md
//! §11, which every writer uses: `el-rec train --checkpoint` (a model and
//! no server), the pipeline trainer's store (both) and the simulator's
//! crash sweeps (a server and no model).
//!
//! * `ckpt verify <path>` — fully verify one `.elck` file (frame trailer,
//!   per-section checksums, payload decode) or, given a store directory,
//!   every checkpoint in it: one line per file with its sequence number,
//!   size, checksum and validity, then the file recovery would pick.
//! * `ckpt bench [--rows N] [--dim D] [--tt] [--dir PATH]` — measure
//!   checkpoint size and save/verify/restore wall time on a
//!   representative model (the numbers EXPERIMENTS.md reports).

use el_dlrm::checkpoint::DlrmCheckpoint;
use el_dlrm::{DlrmConfig, DlrmModel, OptimizerKind};
use el_pipeline::ckpt::{ckpt_seq, fnv1a, verify_bytes, CkptInfo, CkptStore, FsStorage};
use el_pipeline::trainer::PipelineTrainer;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ckpt <command>
  verify <path>               verify one .elck file, or every checkpoint in a store dir
                              (per file: seq, bytes, checksum, validity; recovery pick)
  bench [--rows N] [--dim D] [--tt] [--dir PATH]
                              measure checkpoint size and save/restore time
                              (defaults: --rows 100000 --dim 16, dense tables;
                              --dir keeps the store at PATH for verify)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => match args.get(1) {
            Some(path) => cmd_verify(Path::new(path)),
            None => {
                eprintln!("ckpt verify: missing path\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("ckpt: unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn print_info(info: &CkptInfo) {
    println!("  bytes       {}", info.bytes);
    println!("  checksum    {:#018x} (fnv-1a)", info.checksum);
    for (name, len) in &info.sections {
        println!("  section     {name} ({len} bytes)");
    }
    println!("  next_batch  {}", info.next_batch);
    println!("  server tables captured: {}", info.server_tables);
}

/// Verifies a single file or a whole store directory.
fn cmd_verify(path: &Path) -> ExitCode {
    if path.is_file() {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ckpt verify: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match verify_bytes(&bytes) {
            Ok(info) => {
                println!("{}: VALID", path.display());
                print_info(&info);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: INVALID — {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let store = match FsStorage::open(path).and_then(|fs| CkptStore::open(fs, usize::MAX)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ckpt verify: opening store {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let names = match store.names_newest_first() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("ckpt verify: listing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if names.is_empty() {
        println!("{}: empty store (no ckpt-*.elck files)", path.display());
        return ExitCode::SUCCESS;
    }
    let pick = store.latest_valid();
    let mut bad = 0usize;
    println!("{:<20} {:>8} {:>10}  {:<18} state", "name", "seq", "bytes", "checksum");
    for name in &names {
        let seq = ckpt_seq(name).expect("the store lists checkpoint names");
        let (bytes, verdict) = match std::fs::read(path.join(name)) {
            Ok(bytes) => {
                let verdict = verify_bytes(&bytes);
                (bytes, verdict)
            }
            Err(e) => (Vec::new(), Err(e.into())),
        };
        let state = match verdict {
            Ok(info) => {
                let picked = matches!(&pick, Ok((p, _)) if p == name);
                let mark = if picked { "  <- recovery" } else { "" };
                format!("VALID (next_batch {}){mark}", info.next_batch)
            }
            Err(e) => {
                bad += 1;
                format!("INVALID — {e}")
            }
        };
        println!("{name:<20} {seq:>8} {:>10}  {:#018x} {state}", bytes.len(), fnv1a(&bytes));
    }
    match &pick {
        Ok((name, ckpt)) => {
            println!("recovery would resume from {name} at batch {}", ckpt.next_batch)
        }
        Err(e) => println!("recovery: {e}"),
    }
    if bad == 0 {
        println!("{}: all {} checkpoint(s) valid", path.display(), names.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {bad}/{} checkpoint(s) INVALID", path.display(), names.len());
        ExitCode::FAILURE
    }
}

/// Builds the bench model: four embedding tables, the two largest either
/// dense or TT-factorized (`--tt`), the two smallest hosted on the
/// parameter server — the placement split the trainer tests use.
fn bench_state(
    rows: usize,
    dim: usize,
    tt: bool,
) -> (DlrmModel, Vec<(usize, el_dlrm::embedding_bag::EmbeddingBag)>) {
    let cfg = DlrmConfig {
        num_dense: 13,
        table_cardinalities: vec![rows, rows / 2, rows / 10, rows / 10],
        dim,
        bottom_hidden: vec![64, 32],
        top_hidden: vec![64, 32],
        tt_threshold: if tt { rows / 4 } else { usize::MAX },
        tt_rank: 16,
        lr: 0.05,
        optimizer: OptimizerKind::Adagrad { eps: 1e-8 },
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut model = DlrmModel::new(&cfg, &mut rng);
    // tables 2 and 3 are below any TT threshold
    let host = model.host_dense_tables(|t| t == 2 || t == 3);
    (model, host)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measures checkpoint size and save/verify/restore wall time against a
/// real filesystem store (full atomic protocol including fsyncs).
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut rows = 100_000usize;
    let mut dim = 16usize;
    let mut tt = false;
    let mut keep_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--rows" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => rows = v,
                None => {
                    eprintln!("--rows needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--dim" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => dim = v,
                None => {
                    eprintln!("--dim needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--tt" => tt = true,
            "--dir" => match it.next() {
                Some(v) => keep_dir = Some(v.clone()),
                None => {
                    eprintln!("--dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("ckpt bench: unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "bench: tables [{rows}, {}, {}, {}] dim {dim}, Adagrad, largest tables {}",
        rows / 2,
        rows / 10,
        rows / 10,
        if tt { "TT-factorized" } else { "dense" }
    );
    let (model, host) = bench_state(rows, dim, tt);

    let t = Instant::now();
    let ckpt = PipelineTrainer::capture(&model, &host, 0.05, 128);
    let capture_ms = ms(t.elapsed());

    let t = Instant::now();
    let framed = ckpt.to_framed_bytes();
    let encode_ms = ms(t.elapsed());
    let size = framed.len();

    let dir = match &keep_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("elrec-ckpt-bench-{}", std::process::id())),
    };
    let result = (|| -> Result<(), el_dlrm::checkpoint::CkptError> {
        let mut store = CkptStore::open(FsStorage::open(&dir)?, 2)?;
        let t = Instant::now();
        let name = store.save(&ckpt)?;
        let save_ms = ms(t.elapsed());

        let reopened = CkptStore::open(FsStorage::open(&dir)?, 2)?;
        let t = Instant::now();
        let (_, loaded) = reopened.latest_valid()?;
        let load_ms = ms(t.elapsed());

        let t = Instant::now();
        let restored = loaded.model.map(DlrmCheckpoint::restore).transpose()?;
        let restore_ms = ms(t.elapsed());
        assert_eq!(
            restored.as_ref().map(|m| DlrmCheckpoint::capture(m).to_bytes()),
            ckpt.model.as_ref().map(DlrmCheckpoint::to_bytes),
            "bench round trip must be byte-identical"
        );

        println!("checkpoint {name}: {size} bytes ({:.2} MiB)", size as f64 / (1 << 20) as f64);
        println!("  capture          {capture_ms:>9.2} ms  (model + hosted tables -> checkpoint)");
        println!("  encode           {encode_ms:>9.2} ms  (checkpoint -> framed bytes)");
        println!(
            "  save             {save_ms:>9.2} ms  (atomic protocol: write+fsync+rename+fsync dir)"
        );
        println!("  load + verify    {load_ms:>9.2} ms  (scan, checksums, decode)");
        println!("  restore          {restore_ms:>9.2} ms  (checkpoint -> live model)");
        Ok(())
    })();
    if keep_dir.is_some() {
        println!("store kept at {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ckpt bench: {e}");
            ExitCode::FAILURE
        }
    }
}
