//! The `gnndse` binary reads exactly one model file format, `.gdse`: a JSON
//! model file or arbitrary bytes passed as `--model` must fail with a typed
//! error naming the format (never a panic), and `train` writes models only
//! through `--save` / `--save-quant`.

use gdse_gnn::{ModelConfig, ModelKind};
use gnn_dse::{Normalizer, Predictor};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gnn_dse_cli_model_format_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `gnndse args…`, killing it (and failing the test) if it is still
/// running after a minute — a model file that wrongly loads would make
/// `serve` listen forever.
fn gnndse(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gnndse"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gnndse binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("gnndse {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn assert_rejected(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what}: must exit non-zero\nstderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what}: must not panic\nstderr:\n{stderr}");
    assert!(stderr.contains(needle), "{what}: error must mention `{needle}`\nstderr:\n{stderr}");
}

fn non_artifact_files() -> Vec<(PathBuf, &'static str)> {
    // A model in the retired JSON format, and bytes that are no model at all.
    let predictor = Predictor::untrained(
        ModelKind::Transformer,
        ModelConfig::small(),
        Normalizer::with_factor(1e6),
    );
    let json = scratch("model.json");
    std::fs::write(&json, serde_json::to_string(&predictor).unwrap()).unwrap();
    let garbage = scratch("garbage.bin");
    std::fs::write(&garbage, b"definitely not a model file\n").unwrap();
    vec![(json, "json"), (garbage, "garbage")]
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn dse_and_serve_reject_files_that_are_not_gdse_artifacts() {
    for (path, label) in non_artifact_files() {
        let dse = gnndse(&["dse", "spmv-ellpack", "--model", path_str(&path), "--jobs", "1"]);
        assert_rejected(&dse, ".gdse", &format!("dse --model {label}"));

        let serve = gnndse(&[
            "serve",
            "--model",
            path_str(&path),
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
        ]);
        assert_rejected(&serve, ".gdse", &format!("serve --model {label}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn train_rejects_the_retired_model_positional() {
    // Argument validation happens before the database is read.
    let db = scratch("db.json");
    let model = scratch("positional_model.json");
    let out = gnndse(&["train", path_str(&db), path_str(&model)]);
    assert_rejected(&out, "--save", "train db.json model.json");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: gnndse train"));
    assert!(!model.exists(), "no JSON model may be written");
}
