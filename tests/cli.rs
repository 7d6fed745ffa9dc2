//! Smoke tests of the `el-rec` CLI binary: every subcommand must run end
//! to end, and train -> checkpoint -> eval must round-trip.

use std::process::Command;

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
    let ckpt = std::env::temp_dir().join("el_rec_cli_test.json");
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
    let ckpt = std::env::temp_dir().join("el_rec_cli_mismatch.json");
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
    let ckpt = std::env::temp_dir().join("el_rec_cli_flags.json");
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
