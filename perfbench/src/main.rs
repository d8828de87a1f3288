//! End-to-end benchmark of the GNN-DSE pipeline at the paper's model
//! configuration (hidden 64, 6 TransformerConv layers, 4-layer MLP heads).
//!
//! ```text
//! gdse-perfbench --workload <dse-sweep|train-epochs|serve-closed>
//!                --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the workload through the crates' public entry points
//! and reports the end-to-end metrics. `--trace 1` runs the same untraced
//! measurement, then a traced replay that times each layer's public calls
//! from this crate, checks that the replay reproduces the untraced outputs
//! exactly, and reports the per-layer metrics. The last line of standard
//! output is always the JSON result; see `perfbench/README.md`.

mod dse;
mod ledger;
mod serve;
mod surrogate;
mod train;

use ledger::Metric;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measurement runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where scratch files (the served model artifact) go.
    pub work_dir: PathBuf,
}

/// What a workload run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// The end-to-end metrics every untraced run reports, in report order. Each
/// workload gives them its own meaning (see `perfbench/README.md`).
pub fn end_to_end(setup_s: f64, throughput: f64, p50_us: f64, p99_us: f64) -> Vec<Metric> {
    vec![
        ledger::metric("setup_s", setup_s, "s"),
        ledger::metric("throughput_per_s", throughput, "1/s"),
        ledger::metric("latency_p50_us", p50_us, "us"),
        ledger::metric("latency_p99_us", p99_us, "us"),
    ]
}

/// Every per-layer metric and its unit, in report order. A traced run
/// reports all of them; a layer that is not on a workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("design_space.candidates_us", "us"),
    ("design_space.unique_ratio", "ratio"),
    ("proggraph.build_us", "us"),
    ("gnn.input.lower_us", "us"),
    ("gnn.input.batch_us", "us"),
    ("gnn.batch_nodes", "count"),
    ("gnn.batch_edges", "count"),
    ("gnn.forward.cls_us", "us"),
    ("gnn.forward.reg_us", "us"),
    ("gnn.forward.bram_us", "us"),
    ("gnn.forward.us_per_point", "us"),
    ("gnn.forward.batch_size", "count"),
    ("core.decode_us", "us"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.cache_hit_ratio", "ratio"),
    ("core.dse.bookkeeping_us", "us"),
    ("merlin_sim.validate_us", "us"),
    ("merlin_sim.evals", "count"),
    ("tensor.loss_us", "us"),
    ("tensor.backward_us", "us"),
    ("tensor.clip_us", "us"),
    ("tensor.adam_us", "us"),
    ("serve.ingress_us", "us"),
    ("serve.route_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_wait_us", "us"),
    ("serve.infer_us", "us"),
    ("serve.write_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.client_overhead_us", "us"),
    ("coverage", "ratio"),
    ("trace_overhead_pct", "%"),
    ("trace.untraced_wall_us", "us"),
    ("trace.traced_wall_us", "us"),
];

/// Orders a traced run's metrics as [`PER_LAYER`], filling layers the
/// workload does not touch with 0.
///
/// # Panics
///
/// On a metric name missing from [`PER_LAYER`] or a unit that disagrees
/// with it: the report and `BENCHMARK.json` must name the same metrics.
pub fn complete_layers(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        let known = PER_LAYER.iter().find(|(n, _)| *n == m.name);
        assert_eq!(
            known.map(|k| k.1),
            Some(m.unit),
            "undeclared per-layer metric {}",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    unit,
                })
        })
        .collect()
}

/// Worker threads a workload may use: the host's cores, at most 2.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

const USAGE: &str = "usage: gdse-perfbench --workload <dse-sweep|train-epochs|serve-closed> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !["dse-sweep", "train-epochs", "serve-closed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// The CPU's brand string, read with CPUID (no file outside the checkout is
/// touched).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86_64 CPU; leaves 0x8000_0002..4
    // are only read after leaf 0x8000_0000 reports them.
    let regs = |leaf: u32| unsafe { __cpuid(leaf) };
    if regs(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = regs(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// JSON string literal of `s`.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // Rust's shortest round-trip float formatting: every digit kept,
            // never an exponent, never NaN (checked by the caller).
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdse-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "host: nproc={} cpu={} rustflags={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} model=paper(hidden 64, 6 TransformerConv, 4-layer MLP heads)",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut outcome = match args.workload.as_str() {
        "dse-sweep" => dse::run(&args),
        "train-epochs" => train::run(&args),
        _ => serve::run(&args),
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("gdse-perfbench: metric {} is not finite", bad.name);
        outcome.correct = false;
        for m in &mut outcome.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    outcome.attempted = outcome.attempted.max(1);
    println!("{}", result_json(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload dse-sweep --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dse-sweep", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload dse-sweep --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload dse-sweep --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![ledger::metric("setup_s", 0.5, "s")],
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
    fn declared(doc: &serde::Value, list: &str) -> Vec<(String, String)> {
        let field = |v: &serde::Value, k: &str| {
            v.as_map()
                .unwrap()
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let text = |v: serde::Value| v.as_str().unwrap().to_string();
        field(doc, list)
            .as_seq()
            .unwrap()
            .iter()
            .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let doc: serde::Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e: Vec<(String, String)> = end_to_end(1.0, 1.0, 1.0, 1.0)
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
    }

    #[test]
    fn traced_metrics_are_completed_in_declared_order() {
        let done = complete_layers(vec![ledger::metric("coverage", 0.95, "ratio")]);
        assert_eq!(done.len(), PER_LAYER.len());
        assert!(done
            .iter()
            .zip(PER_LAYER)
            .all(|(m, (n, u))| m.name == n && m.unit == u));
        assert_eq!(
            done.iter().find(|m| m.name == "coverage").unwrap().value,
            0.95
        );
    }
}
