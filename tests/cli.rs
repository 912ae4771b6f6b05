//! End-to-end tests of the `mosaic-flow` CLI binary: train → save → info →
//! eval → solve, exercising the model-library workflow the paper
//! envisions.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mosaic-flow"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mf_cli_{}_{name}", std::process::id()))
}

#[test]
fn usage_on_no_args() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn train_info_eval_solve_pipeline() {
    let model = tmp("model.mfn");
    let grid = tmp("grid.csv");

    // Tiny training run — we only need a valid model file.
    let out = cli()
        .args([
            "train",
            "--samples",
            "24",
            "--epochs",
            "2",
            "--m",
            "9",
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = cli()
        .args(["info", "--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parameters"), "info output: {stdout}");
    assert!(stdout.contains("m = 9"));

    let out = cli()
        .args(["eval", "--model", model.to_str().unwrap(), "--samples", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("val MSE"));

    // Solve with the trained model on a 2x1 domain and write the grid.
    let out = cli()
        .args([
            "solve",
            "--domain",
            "2x1",
            "--model",
            model.to_str().unwrap(),
            "--out",
            grid.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "solve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(&grid).unwrap();
    // 2x1 atomic subdomains of m=9: 17 rows of 33 columns.
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), 9);
    assert_eq!(rows[0].split(',').count(), 17);

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&grid);
}

#[test]
fn solve_with_oracle_and_multiple_ranks() {
    let out = cli()
        .args([
            "solve",
            "--domain",
            "2x2",
            "--ranks",
            "4",
            "--boundary",
            "gp:3",
            "--coarse-init",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 rank(s)"), "{stdout}");
    // The oracle solve must be accurate.
    let mae_line = stdout.lines().find(|l| l.contains("MAE")).unwrap();
    let mae: f64 = mae_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(mae < 1e-3, "oracle solve MAE too high: {mae}");
}

#[test]
fn info_rejects_garbage_file() {
    let path = tmp("garbage.mfn");
    std::fs::write(&path, b"definitely not a model").unwrap();
    let out = cli()
        .args(["info", "--model", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

/// A `solve` flag error: exit code 1 (not a panic's 101) and a message
/// naming the flag.
fn assert_solve_usage_error(args: &[&str], flag: &str) {
    let out = cli().arg("solve").args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(flag), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn solve_rejects_zero_ranks() {
    assert_solve_usage_error(&["--domain", "2x1", "--ranks", "0"], "--ranks");
}

#[test]
fn solve_rejects_empty_domain() {
    assert_solve_usage_error(&["--domain", "0x1"], "--domain");
}
