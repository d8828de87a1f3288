//! End-to-end observability: a faulty rounds campaign must produce a run
//! report whose stage breakdown covers the run, whose oracle accounting
//! matches the harness's own statistics, and which survives a disk round
//! trip — all through the public API, exactly as the `gnndse` CLI uses it.

use gdse_obs::metrics;
use gdse_obs::RunReport;
use gnn_dse::dbgen::{self, fault_injected_harness};
use gnn_dse::harness::RetryPolicy;
use gnn_dse::rounds::{run_rounds, RoundsConfig};
use gnn_dse::ExecEngine;
use hls_ir::kernels;
use merlin_sim::FaultConfig;
use std::time::Instant;

/// Runs a small end-to-end campaign (database generation + 2 faulty rounds
/// with checkpointing) with a fresh metric registry, returning the report
/// and the harness stats it must agree with.
fn run_campaign(dir: &std::path::Path) -> (RunReport, gnn_dse::HarnessStats) {
    metrics::reset();
    let started = Instant::now();
    let ks = vec![kernels::spmv_ellpack()];
    let harness =
        fault_injected_harness(FaultConfig::uniform(0.2, 17), RetryPolicy::with_max_retries(3));
    let engine = ExecEngine::serial();
    let mut db =
        dbgen::generate_database_with(&engine, &harness, &ks, &[("spmv-ellpack", 30)], 30, 5);
    let ck = dir.join("obs_ck.json");
    std::fs::remove_file(&ck).ok();
    let cfg = RoundsConfig { rounds: 2, ..RoundsConfig::quick() };
    run_rounds(&mut db, &ks, &cfg, &harness, Some(&ck), false, &ExecEngine::serial()).unwrap();
    std::fs::remove_file(&ck).ok();
    let report = gnn_dse::build_run_report("rounds", started.elapsed());
    (report, harness.stats())
}

#[test]
fn campaign_report_separates_stages_and_covers_the_runtime() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_stages");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    // Every pipeline stage must have been timed, with oracle (explore /
    // validate), GNN (train), and explorer (dse) time separated.
    for stage in ["explore", "setup", "train", "dse", "validate", "checkpoint"] {
        assert!(report.stage_us(stage) > 0, "stage `{stage}` untimed: {:?}", report.stages);
    }

    // The stage breakdown must account for at least 90% of the wall clock —
    // the acceptance bar for "the report explains where the time went".
    let covered = report.stages_total_us() as f64 / report.total_wall_us as f64;
    assert!(
        covered >= 0.9,
        "stages cover only {:.1}% of {}us: {:?}",
        covered * 100.0,
        report.total_wall_us,
        report.stages
    );
    // ... without double counting (stages never nest in themselves).
    assert!(report.stages_total_us() <= report.total_wall_us, "stage time exceeds wall time");
}

#[test]
fn campaign_report_oracle_section_matches_harness_stats() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_oracle");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, stats) = run_campaign(&dir);

    assert!(report.oracle.attempts > 0);
    assert_eq!(report.oracle.attempts, stats.attempts);
    assert_eq!(report.oracle.transient_failures, stats.transient_failures);
    assert_eq!(report.oracle.permanent_failures, stats.permanent_failures);
    assert_eq!(report.oracle.exhausted, stats.exhausted);
    assert_eq!(report.oracle.lost, stats.losses());
    assert_eq!(report.oracle.virtual_backoff_ms, stats.virtual_backoff_ms);

    // Every recorded failure carries a fault-kind label, so the per-kind
    // breakdown must sum to exactly the failures the harness saw.
    let fault_total: u64 = report.oracle.faults.iter().map(|(_, n)| n).sum();
    assert_eq!(fault_total, stats.transient_failures + stats.permanent_failures);
    assert!(!report.oracle.faults.is_empty(), "20% fault rate must inject something");
}

#[test]
fn campaign_report_counts_surrogate_and_dse_work() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_surrogate");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    let counter = |name: &str| {
        report.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    assert!(counter("dse.points_explored") > 0, "DSE must explore candidates");
    assert!(counter("train.epochs") > 0, "training must run epochs");
    assert!(counter("rounds.completed") == 2, "both rounds must complete");
    assert!(report.surrogate.inferences > 0);
    assert!(report.surrogate.busy_us > 0);
    assert!(report.surrogate.mean_inference_us > 0.0);
    // The paper's pitch, measured on this very run: modelled HLS minutes per
    // evaluation vs. surrogate microseconds per inference.
    assert!(
        report.surrogate.modelled_vs_surrogate_speedup > 1_000.0,
        "speedup {} not plausible",
        report.surrogate.modelled_vs_surrogate_speedup
    );

    let forward = report
        .histograms
        .iter()
        .find(|h| h.name == "gnn.forward_us")
        .expect("gnn.forward_us histogram recorded");
    assert!(forward.count > 0);
    assert_eq!(forward.counts.iter().sum::<u64>(), forward.count);
}

#[test]
fn campaign_report_round_trips_through_disk() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    let path = dir.join("run_report.json");
    gnn_dse::persist::atomic_write(&path, &report.to_json()).unwrap();
    let loaded = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, report);
    assert_eq!(loaded.command, "rounds");
    std::fs::remove_file(&path).ok();
}
