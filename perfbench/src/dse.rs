//! `dse-sweep`: surrogate-driven DSE on three kernels, then oracle
//! validation of each top-M list.
//!
//! The untraced pass calls `gnn_dse::run_dse_with_engine` (default priority
//! sweep, batch 64, top-M 10) on gemm-ncubed and 2mm (heuristic, cut by
//! `max_inferences`) and atax (enumerated exhaustively), then validates each
//! top-M design with the `merlin_sim` oracle. The traced pass replays the
//! same loop from the same public calls — `design_space` candidates and
//! `rules::canonicalize`, the surrogate batch path of [`crate::surrogate`],
//! the same absorb/sort bookkeeping — with a timer around each layer, and
//! must reproduce every top-M list exactly.

use crate::ledger::{alternate, median, metric, percentile, ratio, repeat, Ledger};
use crate::surrogate::{self, predict_ordered_traced, same_bits, CacheKey};
use crate::{Args, Outcome};
use design_space::{order::ordered_slots, rules, DesignPoint, DesignSpace};
use gdse_exec::{ShardedCache, WorkerPool};
use gnn_dse::{run_dse_with_engine, DseConfig, ExecEngine, Prediction, Predictor};
use hls_ir::Kernel;
use merlin_sim::MerlinSimulator;
use proggraph::{build_graph_bidirectional, ProgramGraph};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The swept kernels: two heuristic sweeps (2mm has the largest graph and
/// 14 pragmas) and one exhaustive enumeration (atax, 1,125 points).
const KERNELS: [&str; 3] = ["gemm-ncubed", "2mm", "atax"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The DSE limits: the library defaults (batch 64, top-M 10, latency
/// objective, priority sweep) with an inference cap that sets the cut and a
/// time limit that never does, so every run is deterministic.
pub fn dse_config() -> DseConfig {
    DseConfig {
        exhaustive_limit: 2_000,
        max_inferences: 256,
        time_limit: Duration::from_secs(24 * 3600),
        ..DseConfig::default()
    }
}

/// One kernel ready to explore.
struct Target {
    kernel: Kernel,
    space: DesignSpace,
    graph: ProgramGraph,
}

/// What one kernel's DSE + validation produced.
#[derive(Debug, Clone)]
struct KernelRun {
    top: Vec<(DesignPoint, Prediction)>,
    inferences: usize,
    used_fallback: bool,
    /// Oracle cycles of the best valid top-M design, if any is valid.
    best_valid_cycles: Option<u64>,
    wall: Duration,
}

/// One sweep over the three kernels.
struct Sweep {
    kernels: Vec<KernelRun>,
    wall: Duration,
}

impl Sweep {
    fn points(&self) -> usize {
        self.kernels.iter().map(|k| k.inferences).sum()
    }
}

fn targets() -> Vec<Target> {
    KERNELS
        .iter()
        .map(|name| {
            let kernel = hls_ir::kernels::kernel_by_name(name).expect("built-in kernel");
            let space = DesignSpace::from_kernel(&kernel);
            let graph = build_graph_bidirectional(&kernel, &space);
            Target {
                kernel,
                space,
                graph,
            }
        })
        .collect()
}

fn setup(seed: u64) -> (Predictor, Vec<Target>) {
    (surrogate::trained_predictor(seed), targets())
}

/// Oracle cycles of the best valid design in `top`, validating every entry.
fn validate(sim: &MerlinSimulator, t: &Target, top: &[(DesignPoint, Prediction)]) -> Option<u64> {
    top.iter()
        .map(|(p, _)| sim.evaluate(&t.kernel, &t.space, p))
        .filter(|r| r.is_valid())
        .map(|r| r.cycles)
        .min()
}

/// The untraced sweep: the library's DSE entry point per kernel.
fn sweep(predictor: &Predictor, targets: &[Target], jobs: usize) -> Sweep {
    let cfg = dse_config();
    let sim = MerlinSimulator::new();
    let started = Instant::now();
    let kernels = targets
        .iter()
        .map(|t| {
            // A fresh engine per kernel and sweep: no prediction is ever
            // served from a previous sweep's cache.
            let engine = ExecEngine::with_jobs(jobs);
            let t0 = Instant::now();
            let out = run_dse_with_engine(predictor, &t.kernel, &t.space, &t.graph, &cfg, &engine);
            let best_valid_cycles = validate(&sim, t, &out.top);
            KernelRun {
                top: out.top,
                inferences: out.inferences,
                used_fallback: out.used_fallback,
                best_valid_cycles,
                wall: t0.elapsed(),
            }
        })
        .collect();
    Sweep {
        kernels,
        wall: started.elapsed(),
    }
}

/// The priority-ordered mixed-radix candidate stream of `gnn_dse::dse`: the
/// highest-priority slot varies fastest, the rest stay at their defaults.
fn priority_candidates<'a>(
    kernel: &Kernel,
    space: &'a DesignSpace,
    cfg: &DseConfig,
) -> impl Iterator<Item = DesignPoint> + 'a {
    let order = ordered_slots(kernel, space);
    let limit = (cfg.max_inferences as u128 * 4).min(space.size());
    let default = space.default_point();
    (0..limit).map(move |i| {
        let mut point = default.clone();
        let mut rem = i;
        for &slot in &order {
            let radix = space.slots()[slot].options.len() as u128;
            point.set_value(slot, space.slots()[slot].options[(rem % radix) as usize]);
            rem /= radix;
            if rem == 0 {
                break;
            }
        }
        point
    })
}

/// The traced replay of `run_dse_with_engine` (latency objective, priority
/// sweep or exhaustive enumeration) for one kernel.
fn traced_dse(
    predictor: &Predictor,
    t: &Target,
    cfg: &DseConfig,
    jobs: usize,
    ledger: &Ledger,
) -> KernelRun {
    let start = Instant::now();
    let pool = WorkerPool::new(jobs);
    let cache: ShardedCache<CacheKey, Prediction> = ShardedCache::new(16);
    let objective = cfg.effective_objective();
    let exhaustive = t.space.size() <= cfg.exhaustive_limit;
    let mut top: Vec<(DesignPoint, Prediction)> = Vec::new();
    let mut fallback: Vec<(DesignPoint, Prediction)> = Vec::new();
    let mut inferences = 0usize;
    let mut seen: HashSet<DesignPoint> = HashSet::new();
    let mut pending: Vec<DesignPoint> = Vec::with_capacity(cfg.batch_size);

    let absorb = |pairs: Vec<(DesignPoint, Prediction)>,
                  top: &mut Vec<(DesignPoint, Prediction)>,
                  fallback: &mut Vec<(DesignPoint, Prediction)>| {
        for (p, pred) in pairs {
            if objective.feasible_prediction(&pred) {
                top.push((p, pred));
            } else {
                fallback.push((p, pred));
            }
        }
        top.sort_by_key(|(_, pr)| pr.cycles);
        top.truncate(cfg.top_m.max(64));
        fallback.sort_by_key(|(_, pr)| pr.cycles);
        fallback.truncate(cfg.top_m);
    };
    let flush = |pending: &mut Vec<DesignPoint>,
                 top: &mut Vec<(DesignPoint, Prediction)>,
                 fallback: &mut Vec<(DesignPoint, Prediction)>,
                 inferences: &mut usize| {
        if pending.is_empty() {
            return;
        }
        let preds = predict_ordered_traced(
            &pool,
            &cache,
            predictor,
            &t.graph,
            t.kernel.name(),
            pending,
            ledger,
        );
        *inferences += pending.len();
        ledger.time("core.dse.bookkeeping", || {
            let pairs: Vec<(DesignPoint, Prediction)> = pending.drain(..).zip(preds).collect();
            absorb(pairs, top, fallback);
        });
    };

    let mut candidates: Box<dyn Iterator<Item = DesignPoint>> = if exhaustive {
        Box::new(t.space.iter())
    } else {
        Box::new(priority_candidates(&t.kernel, &t.space, cfg))
    };
    loop {
        let t0 = Instant::now();
        let next = candidates.next();
        ledger.add_duration("design_space.candidates", t0.elapsed());
        let Some(point) = next else { break };
        if start.elapsed() > cfg.time_limit || inferences >= cfg.max_inferences && !exhaustive {
            break;
        }
        ledger.add("design_space.generated", 1);
        let canonical = ledger.time("design_space.candidates", || {
            rules::canonicalize(&t.kernel, &t.space, &point)
        });
        let fresh = ledger.time("core.dse.bookkeeping", || {
            if !seen.insert(canonical.clone()) {
                return false;
            }
            pending.push(canonical);
            true
        });
        if !fresh {
            continue;
        }
        ledger.add("design_space.unique", 1);
        if pending.len() >= cfg.batch_size {
            flush(&mut pending, &mut top, &mut fallback, &mut inferences);
        }
    }
    flush(&mut pending, &mut top, &mut fallback, &mut inferences);

    let used_fallback = ledger.time("core.dse.bookkeeping", || {
        let used_fallback = top.is_empty();
        if used_fallback {
            top = std::mem::take(&mut fallback);
        }
        top.truncate(cfg.top_m);
        used_fallback
    });
    let stats = cache.stats();
    ledger.add("exec.cache_hits", u128::from(stats.hits));
    ledger.add("exec.cache_lookups", u128::from(stats.hits + stats.misses));
    KernelRun {
        top,
        inferences,
        used_fallback,
        best_valid_cycles: None,
        wall: start.elapsed(),
    }
}

/// The traced sweep: [`traced_dse`] plus timed validation per kernel.
fn traced_sweep(predictor: &Predictor, targets: &[Target], jobs: usize, ledger: &Ledger) -> Sweep {
    let cfg = dse_config();
    let sim = MerlinSimulator::new();
    let started = Instant::now();
    let kernels = targets
        .iter()
        .map(|t| {
            let t0 = Instant::now();
            let mut run = traced_dse(predictor, t, &cfg, jobs, ledger);
            run.best_valid_cycles =
                ledger.time("merlin_sim.validate", || validate(&sim, t, &run.top));
            ledger.add("merlin_sim.evals", run.top.len() as u128);
            run.wall = t0.elapsed();
            run
        })
        .collect();
    Sweep {
        kernels,
        wall: started.elapsed(),
    }
}

/// Whether two kernel runs picked the same designs with bit-identical
/// predictions.
fn same_outcome(a: &KernelRun, b: &KernelRun) -> bool {
    a.inferences == b.inferences
        && a.used_fallback == b.used_fallback
        && a.best_valid_cycles == b.best_valid_cycles
        && a.top.len() == b.top.len()
        && a.top
            .iter()
            .zip(&b.top)
            .all(|((pa, ra), (pb, rb))| pa == pb && same_bits(ra, rb))
}

/// Correctness of one sweep against the reference: every kernel returned a
/// non-empty top list to validate (fewer than top-M entries is correct when
/// fewer designs are predicted usable), and it equals the reference's.
/// Returns (validations attempted, failed).
fn check(sweep: &Sweep, reference: &Sweep) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (run, want) in sweep.kernels.iter().zip(&reference.kernels) {
        let entries = run.top.len().max(1) as u64;
        attempted += entries;
        if run.top.is_empty() || !same_outcome(run, want) {
            failed += entries;
        }
    }
    (attempted, failed)
}

/// Geometric mean over the kernels of the oracle-validated best cycles.
fn best_cycles_geomean(sweep: &Sweep) -> f64 {
    let logs: Vec<f64> = sweep
        .kernels
        .iter()
        .filter_map(|k| k.best_valid_cycles)
        .map(|c| (c.max(1) as f64).ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The end-to-end figures of a set of untraced sweeps: points per second
/// over the sum of per-kernel median walls, and percentiles across the
/// kernels' median walls (µs). Medians per kernel keep a burst of host
/// noise during one kernel's run from moving the figures.
fn summarize(sweeps: &[Sweep]) -> (f64, f64, f64) {
    let per_kernel: Vec<f64> = (0..KERNELS.len())
        .map(|k| {
            let walls: Vec<f64> = sweeps
                .iter()
                .map(|s| s.kernels[k].wall.as_secs_f64() * 1e6)
                .collect();
            median(&walls)
        })
        .collect();
    let points = sweeps[0].points() as f64;
    let rate = points / (per_kernel.iter().sum::<f64>() / 1e6);
    (
        rate,
        percentile(&per_kernel, 50.0),
        percentile(&per_kernel, 99.0),
    )
}

fn describe(sweep: &Sweep) {
    for (name, k) in KERNELS.iter().zip(&sweep.kernels) {
        println!(
            "dse {name}: {} points scored, top-{} {}, best validated cycles {}, {:.1} ms",
            k.inferences,
            k.top.len(),
            if k.used_fallback {
                "(fallback: nothing predicted usable)"
            } else {
                "(usable)"
            },
            k.best_valid_cycles
                .map_or("none valid".to_string(), |c| c.to_string()),
            k.wall.as_secs_f64() * 1e3,
        );
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let jobs = crate::jobs();
    let ((predictor, targets), setup_s) =
        surrogate::repeated_setup(SETUPS, || setup(args.seed), drop);
    println!("dse: {jobs} engine jobs, paper-config model, kernels {KERNELS:?}");

    // One untimed sweep first: on a 2-core Xeon host the first sweep in a
    // process ran about a third slower than the rest, a cost a long-running
    // explorer pays once.
    sweep(&predictor, &targets, jobs);
    let ledger = Ledger::default();
    let (sweeps, traced) = if args.trace {
        for t in &targets {
            ledger.time("proggraph.build", || {
                build_graph_bidirectional(&t.kernel, &t.space)
            });
        }
        alternate(
            args.seconds,
            || sweep(&predictor, &targets, jobs),
            || traced_sweep(&predictor, &targets, jobs, &ledger),
        )
    } else {
        (
            repeat(args.seconds, || sweep(&predictor, &targets, jobs)),
            Vec::new(),
        )
    };
    let reference = &sweeps[0];
    describe(reference);
    let (mut attempted, mut failed) = (0, 0);
    for s in &sweeps {
        let (a, f) = check(s, reference);
        attempted += a;
        failed += f;
    }
    let (rate, p50, p99) = summarize(&sweeps);
    let geomean = best_cycles_geomean(reference);
    println!(
        "dse sweep walls (s): {:.3?}",
        sweeps
            .iter()
            .map(|s| s.wall.as_secs_f64())
            .collect::<Vec<_>>()
    );
    println!("dse.points_per_s {rate} 1/s ({} sweeps)", sweeps.len());
    println!("dse.best_cycles_geomean {geomean} cycles");
    println!("dse.kernel_wall_p50_us {p50} us, dse.kernel_wall_p99_us {p99} us");

    if !args.trace {
        return Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: crate::end_to_end(setup_s, rate, p50, p99),
        };
    }

    for s in &traced {
        let (a, f) = check(s, reference);
        attempted += a;
        failed += f;
    }
    println!(
        "dse traced: {} sweeps, top-M lists and predictions {} the untraced ones",
        traced.len(),
        if failed == 0 {
            "bit-identical to"
        } else {
            "DIFFER from"
        }
    );

    let reps = traced.len() as f64;
    let untraced_wall = median(
        &sweeps
            .iter()
            .map(|s| s.wall.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let traced_wall = median(
        &traced
            .iter()
            .map(|s| s.wall.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let covered = ledger.us("design_space.candidates")
        + ledger.us("core.dse.bookkeeping")
        + ledger.us("exec.predict_wall")
        + ledger.us("merlin_sim.validate");
    let mut metrics = vec![
        metric(
            "design_space.candidates_us",
            ledger.us("design_space.candidates") / reps,
            "us",
        ),
        metric(
            "design_space.unique_ratio",
            ratio(
                ledger.get("design_space.unique") as f64,
                ledger.get("design_space.generated") as f64,
            ),
            "ratio",
        ),
        metric("proggraph.build_us", ledger.us("proggraph.build"), "us"),
    ];
    metrics.extend(surrogate::forward_metrics(&ledger, reps));
    metrics.extend([
        metric(
            "exec.parallel_efficiency",
            ratio(
                ledger.us("exec.chunk_busy"),
                jobs as f64 * ledger.us("exec.predict_wall"),
            ),
            "ratio",
        ),
        metric(
            "exec.cache_hit_ratio",
            ratio(
                ledger.get("exec.cache_hits") as f64,
                ledger.get("exec.cache_lookups") as f64,
            ),
            "ratio",
        ),
        metric(
            "core.dse.bookkeeping_us",
            ledger.us("core.dse.bookkeeping") / reps,
            "us",
        ),
        metric(
            "merlin_sim.validate_us",
            ledger.us("merlin_sim.validate") / reps,
            "us",
        ),
        metric(
            "merlin_sim.evals",
            ledger.get("merlin_sim.evals") as f64 / reps,
            "count",
        ),
        metric("coverage", ratio(covered / reps, untraced_wall), "ratio"),
        metric(
            "trace_overhead_pct",
            100.0 * ratio(traced_wall - untraced_wall, untraced_wall),
            "%",
        ),
        metric("trace.untraced_wall_us", untraced_wall, "us"),
        metric("trace.traced_wall_us", traced_wall, "us"),
    ]);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: crate::complete_layers(metrics),
    }
}
