//! Smoke tests of the `el-rec` CLI binary: every subcommand must run end
//! to end, train -> checkpoint -> eval must round-trip, and `eval` refuses
//! a checkpoint it cannot trust with a clean error.

use el_rec::pipeline::ckpt::TrainingCheckpoint;
use el_rec::pipeline::PipelineTrainer;
use std::path::Path;
use std::process::{Command, Output};

fn el_rec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_el-rec"))
}

#[test]
fn help_prints_usage() {
    let out = el_rec().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("train"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = el_rec().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn stats_reports_skew() {
    let out = el_rec()
        .args(["stats", "--dataset", "toy", "--scale", "0.05", "--batch-size", "128"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("accesses"), "missing skew report: {text}");
}

#[test]
fn train_checkpoint_eval_round_trip() {
    let ckpt = std::env::temp_dir().join("el_rec_cli_test.elck");
    let out = el_rec()
        .args([
            "train",
            "--dataset",
            "toy",
            "--batches",
            "6",
            "--batch-size",
            "64",
            "--optimizer",
            "adagrad",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(ckpt.exists(), "checkpoint file missing");

    let out = el_rec()
        .args([
            "eval",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--dataset",
            "toy",
            "--batches",
            "2",
            "--batch-size",
            "64",
        ])
        .output()
        .expect("spawn");
    std::fs::remove_file(&ckpt).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("accuracy"), "{text}");
    assert!(text.contains("auc"));
}

#[test]
fn eval_on_a_mismatched_dataset_fails_cleanly() {
    let ckpt = std::env::temp_dir().join("el_rec_cli_mismatch.elck");
    let path = ckpt.to_str().unwrap();
    let out = el_rec()
        .args(["train", "--dataset", "toy", "--scale", "0.05", "--batches", "2"])
        .args(["--checkpoint", path])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Another schema (dense features, table count), then the same schema
    // at another scale (row counts).
    for data in [&["--dataset", "kaggle"][..], &["--dataset", "toy", "--scale", "0.5"]] {
        let out = el_rec()
            .args(["eval", "--checkpoint", path, "--batches", "1", "--batch-size", "64"])
            .args(data)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{data:?}: {err}");
        assert!(err.contains("error:") && !err.contains("panicked"), "{data:?}: {err}");
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn eval_without_checkpoint_fails_with_message() {
    let out = el_rec().args(["eval"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --checkpoint"));
}

#[test]
fn malformed_size_flags_fail_with_the_flag_name() {
    let ckpt = std::env::temp_dir().join("el_rec_cli_flags.elck");
    let path = ckpt.to_str().unwrap();
    let out = el_rec()
        .args(["train", "--dataset", "toy", "--scale", "0.05", "--batches", "1"])
        .args(["--checkpoint", path])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let train = ["train", "--batches", "2"];
    let eval = ["eval", "--checkpoint", path, "--dataset", "toy", "--scale", "0.05"];
    let cases: [(&[&str], &str, &str); 14] = [
        (&train, "--dim", "13"),
        (&train, "--dim", "0"),
        (&train, "--rank", "0"),
        (&train, "--batch-size", "0"),
        (&eval, "--batch-size", "0"),
        (&eval, "--batches", "0"),
        (&["stats", "--dataset", "toy"], "--batch-size", "0"),
        (&["stats"], "--scale", "inf"),
        (&["stats"], "--scale", "1e12"),
        (&["stats"], "--scale", "0"),
        (&["stats"], "--scale", "-1"),
        (&["stats"], "--scale", "nan"),
        (&train, "--lr", "nan"),
        (&train, "--lr", "-0.1"),
    ];
    for (cmd, flag, value) in cases {
        let out = el_rec().args(cmd).args([flag, value]).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?} {flag} {value}: {err}");
        assert!(err.contains(flag) && !err.contains("panicked"), "{cmd:?} {flag} {value}: {err}");
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn train_refuses_to_checkpoint_a_reordered_model() {
    // The checkpoint does not hold the index bijections, so `eval` would
    // look raw indices up in reordered tables: refuse before training.
    let ckpt = std::env::temp_dir().join("el_rec_cli_reorder.elck");
    std::fs::remove_file(&ckpt).ok();
    let out = el_rec()
        .args(["train", "--dataset", "toy", "--scale", "0.05", "--batches", "2", "--reorder"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn");
    let err = assert_clean_error(&out);
    assert!(err.contains("--reorder") && err.contains("--checkpoint"), "{err}");
    assert!(!ckpt.exists(), "no checkpoint may be written");
    // without a checkpoint, reordered training still runs
    let out = el_rec()
        .args(["train", "--dataset", "toy", "--scale", "0.05", "--batches", "2", "--reorder"])
        .args(["--tt-threshold", "500"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("fitted index bijections"));
}

/// Trains a toy model for two batches and checkpoints it to `path`.
fn train_toy(path: &Path) {
    let out = el_rec()
        .args(["train", "--dataset", "toy", "--scale", "0.05", "--batches", "2"])
        .arg("--checkpoint")
        .arg(path)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Evaluates the checkpoint at `path` on the data it was trained on.
fn eval_toy(path: &Path) -> Output {
    el_rec()
        .args(["eval", "--dataset", "toy", "--scale", "0.05", "--batches", "1"])
        .arg("--checkpoint")
        .arg(path)
        .output()
        .expect("spawn")
}

/// Asserts `out` is a clean failure: exit 1 and an `error:` line.
fn assert_clean_error(out: &Output) -> String {
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("error:") && !err.contains("panicked"), "{err}");
    err
}

#[test]
fn eval_rejects_a_checkpoint_with_one_digit_changed() {
    let ckpt = std::env::temp_dir().join("el_rec_cli_digit.elck");
    train_toy(&ckpt);
    assert!(eval_toy(&ckpt).status.success(), "the untouched checkpoint evaluates");

    // One digit of the first weight array: still well-formed JSON, so only
    // a checksum can tell the model is no longer the one that was trained.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let array = bytes.windows(8).position(|w| w == b"\"data\":[").expect("a weight array") + 8;
    let digit = array + bytes[array..].iter().position(u8::is_ascii_digit).unwrap();
    bytes[digit] = if bytes[digit] == b'9' { b'8' } else { bytes[digit] + 1 };
    std::fs::write(&ckpt, &bytes).unwrap();

    let err = assert_clean_error(&eval_toy(&ckpt));
    std::fs::remove_file(&ckpt).ok();
    assert!(err.contains("checksum"), "{err}");
}

#[test]
fn eval_refuses_a_checkpoint_holding_hosted_tables() {
    // The trainer's store writes the same format; its files keep hosted
    // tables on the parameter server, which `eval` has no way to score.
    let ckpt = std::env::temp_dir().join("el_rec_cli_hosted.elck");
    train_toy(&ckpt);
    let trained = TrainingCheckpoint::from_framed_bytes(&std::fs::read(&ckpt).unwrap()).unwrap();
    let mut model = trained.model.expect("the CLI saves its model").restore().unwrap();
    let hosted = model.host_dense_tables(|t| t == 0);
    let store_file = PipelineTrainer::capture(&model, &hosted, model.lr, 2);
    std::fs::write(&ckpt, store_file.to_framed_bytes()).unwrap();

    let err = assert_clean_error(&eval_toy(&ckpt));
    std::fs::remove_file(&ckpt).ok();
    assert!(err.contains("parameter-server state"), "{err}");
}
