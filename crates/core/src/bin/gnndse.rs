//! `gnndse` — command-line front end for the GNN-DSE framework.
//!
//! ```text
//! gnndse kernels                                   list kernels and design spaces
//! gnndse evaluate <kernel> <index>                 evaluate one design with the HLS model
//! gnndse report <kernel> <index>                   per-loop synthesis report (II, cycles)
//! gnndse emit <kernel> [index]                     Merlin-annotated C (placeholders or filled)
//! gnndse gendb <out.json> [budget] [seed]          generate a training database
//! gnndse train <db.json> --save model.gdse         train the surrogate (M7) into a .gdse
//!                                                  artifact (--save-quant model_q.gdse: int8)
//! gnndse dse <model.gdse> <kernel> [top_m]         surrogate-driven DSE (or --model model.gdse;
//!                                                  --top-m N is the flag form of top_m)
//! gnndse predict <model.gdse> <kernel> <index>     predict one design point locally
//! gnndse predict <kernel> <index> --addr H:P       ... or against a running server
//! gnndse rounds <db.json>                          iterative DSE rounds (Fig. 7);
//!                                                  --model model.gdse seeds round 1
//! gnndse serve --model model.gdse                  serve predictions over JSON-lines TCP
//!                                                  (--quant serves the int8 inference path)
//! gnndse daemon --db db.json --model model.gdse    serve + background fine-tune/hot-swap
//! gnndse admin <addr> <reload|kill-replica N|shutdown>   control a running server
//! gnndse admin <addr> stats [--prom]               live telemetry (JSON or Prometheus text)
//! gnndse admin <addr> trace <id|slow>              span timelines from the flight recorder
//! gnndse admin <addr> learn-status                 continuous-learning driver status
//! gnndse chaos-proxy --upstream H:P                TCP fault-injection proxy (tests/CI)
//! ```
//!
//! Every model file is a binary `.gdse` artifact (written by `train
//! --save`, validated by checksum, byte-identical predictions after load);
//! any other file is rejected with a typed artifact error.
//!
//! `gendb` and `rounds` drive a *fault-injected* oracle when `--fault-rate`
//! is set: evaluations randomly crash / time out / return garbled reports
//! (reproducibly, per `--fault-seed`), a retrying harness absorbs the
//! transient failures (`--max-retries`), and losses are reported instead of
//! aborting the run. `rounds` additionally supports crash-safe
//! `--checkpoint <file>` persistence and `--resume`.
//!
//! `dse` and `rounds` share the multi-objective flags: `--objective
//! latency|weighted|pareto` picks what "better" means (scalar latency, a
//! weighted latency/resource sum, or a true Pareto front over cycles and
//! the four resource axes), `--budget dsp=0.8,bram=0.7` adds per-device
//! resource-budget constraints enforced through the surrogate's validity
//! head, and `--explorer sweep|gflow` chooses between the priority-order
//! candidate sweep and the learned GFlowNet-style trajectory sampler. In
//! `pareto` mode the DSE also logs the predicted front, and every round
//! report carries its validated front.
//!
//! `serve` answers concurrent clients through a supervised pool of
//! `--replicas N` workers, each owning its own copy of the model behind a
//! bounded queue with micro-batched inference (`--queue`, `--batch`); a full
//! queue rejects with a 429-style response instead of stalling, a crashed
//! or wedged replica restarts under supervision while its requests are
//! re-routed to siblings, and `--max-requests N` stops the server
//! gracefully after N answers (useful for smoke tests). `--reload`
//! watches the artifact file and hot-swaps the model with zero downtime
//! whenever it changes (a `gnndse admin <addr> reload`
//! forces the same swap); a corrupt replacement is rejected — checksum
//! plus canary prediction — and the previous model keeps serving.
//! `serve.*` metrics land in `--metrics-out`.
//!
//! Every request is traced end to end: the server adopts the client's
//! `trace_id` (or mints one), stamps `ingress`/`route`/`queue_wait`/
//! `batch_wait`/`infer`/`write` spans, echoes the id on the response, and
//! remembers recent timelines in a bounded in-memory flight recorder
//! (`--trace-capacity N` per replica). `--trace-slow-ms MS` dumps a Warn
//! log line with the full span timeline for any slower request. `admin
//! <addr> stats` reads live per-replica depth/epoch/restart state and
//! interpolated p50/p95/p99 latency quantiles from the *running* server
//! (`--prom` renders Prometheus text exposition); `admin <addr> trace
//! slow` (or a concrete id) fetches remembered span timelines.
//!
//! `daemon` is the continuous-learning mode: the same replicated server as
//! `serve`, plus a background campaign driver that interleaves DSE, oracle
//! validation, and fine-tuning with serving. Each round's freshly validated
//! results enter a bounded, dedup-by-config replay buffer; the fine-tuned
//! model is written atomically over the served `.gdse` artifact and
//! hot-swapped (canary-validated, rolled back on rejection while the old
//! epoch keeps serving). Campaign checkpoint and replay window are
//! crash-safe: a killed daemon restarted on the same paths resumes
//! learning where it stopped. `gnndse admin <addr> learn-status` reads the
//! driver state, and `learn.*` metrics ride the live telemetry plane.
//!
//! `chaos-proxy` places deterministic TCP faults (drop / delay / truncate
//! / mid-response-kill) between a client and a server — how the chaos
//! tests and the CI smoke prove the resilience story end to end.
//!
//! `gendb`, `rounds`, `dse`, `serve` and `daemon` also take the
//! observability flags `--log-level <error|warn|info|debug|trace>`,
//! `--log-json <log.jsonl>` (mirror every log record to a JSONL file) and
//! `--metrics-out <report.json>` (write a [`gdse_obs::RunReport`] with
//! per-stage wall-time, oracle retry/fault counts, and the surrogate's
//! modelled speedup at the end of the run).
//!
//! Each subcommand declares its positionals and flags once, in `COMMANDS`
//! (shared flags once, as groups); one parser reads that table both to
//! accept arguments and to print the usage line, so the two cannot drift.

use design_space::{DesignPoint, DesignSpace};
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_obs as obs;
use gdse_serve::{ChaosConfig, ChaosProxy, Client, ClientConfig, Response, ServeConfig, Server};
use gnn_dse::dse::{run_dse_with_engine, CandidateSampler, DseConfig};
use gnn_dse::harness::{HarnessBuilder, HarnessStats, RetryPolicy};
use gnn_dse::objective::{Objective, ObjectiveKind, ObjectiveWeights, ResourceBudget};
use gnn_dse::parallel::ExecEngine;
use gnn_dse::rounds::{run_rounds, RoundsConfig};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, ArtifactMeta, ArtifactProvider, Database, Predictor, QuantPredictor};
use hls_ir::{kernels, Kernel};
use merlin_sim::{FaultConfig, MerlinSimulator};
use proggraph::build_graph_bidirectional;
use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// One `--flag`: `--name HINT` takes a value; a flag without a hint is a
/// switch.
struct Flag {
    name: &'static str,
    hint: Option<&'static str>,
}

const fn val(name: &'static str, hint: &'static str) -> Flag {
    Flag { name, hint: Some(hint) }
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, hint: None }
}

/// A positional argument and how often it must appear.
struct Positional {
    name: &'static str,
    arity: Arity,
}

enum Arity {
    Required,
    Optional,
    /// Required unless the named flag is given, which takes its place.
    Unless(&'static str),
}

const fn req(name: &'static str) -> Positional {
    Positional { name, arity: Arity::Required }
}

const fn opt(name: &'static str) -> Positional {
    Positional { name, arity: Arity::Optional }
}

const fn unless(name: &'static str, flag: &'static str) -> Positional {
    Positional { name, arity: Arity::Unless(flag) }
}

/// One subcommand: its positionals in order, its flag groups, and the
/// function that runs it on the parsed arguments.
struct Command {
    name: &'static str,
    positionals: &'static [Positional],
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> CliResult,
}

const fn cmd(
    name: &'static str,
    positionals: &'static [Positional],
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> CliResult,
) -> Command {
    Command { name, positionals, flags, run }
}

// Flag groups shared by several subcommands; the `*_args` helpers below
// read them. The tables are laid out one group per line, like the usage.
const OBS: &[Flag] =
    &[val("log-level", "L"), val("log-json", "log.jsonl"), val("metrics-out", "report.json")];
const JOBS: &[Flag] = &[val("jobs", "N")];
const FAULT: &[Flag] = &[val("fault-rate", "F"), val("fault-seed", "S"), val("max-retries", "N")];
#[rustfmt::skip]
const OBJECTIVE: &[Flag] = &[val("objective", "latency|weighted|pareto"),
    val("budget", "dsp=0.8,bram=0.7"), val("explorer", "sweep|gflow")];
#[rustfmt::skip]
const SERVE: &[Flag] = &[val("queue", "N"), val("batch", "N"), val("replicas", "N"),
    val("max-requests", "N"), val("request-timeout", "MS")];
const MODEL: Flag = val("model", "model.gdse");
const ADDR: Flag = val("addr", "HOST:PORT");
const ROUNDS: Flag = val("rounds", "N");
const CHECKPOINT: Flag = val("checkpoint", "ck.json");

/// The positionals of `gnndse admin`.
const ADMIN_VERB: &str = "reload|kill-replica|stats|trace|learn-status|shutdown";
const ADMIN_ARG: &str = "replica|trace-id|slow";

/// Every subcommand, in the order the top-level usage lists them.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    cmd("kernels", &[], &[], cmd_kernels),
    cmd("evaluate", &[req("kernel"), req("index")], &[], cmd_evaluate),
    cmd("report", &[req("kernel"), req("index")], &[], cmd_report),
    cmd("emit", &[req("kernel"), opt("index")], &[], cmd_emit),
    cmd("gendb", &[req("out.json"), opt("budget"), opt("seed")], &[JOBS, FAULT, OBS], cmd_gendb),
    cmd("train", &[req("db.json")], &[
        &[val("epochs", "N"), val("save", "model.gdse"), val("save-quant", "model_q.gdse")],
    ], cmd_train),
    cmd("dse", &[unless("model.gdse", "model"), req("kernel"), opt("top_m")], &[
        &[MODEL, val("top-m", "N")], JOBS, OBJECTIVE, OBS,
    ], cmd_dse),
    cmd("predict", &[unless("model.gdse", "addr"), req("kernel"), req("index")], &[
        &[ADDR, val("id", "N"), val("retries", "N"), val("timeout", "MS")],
        &[val("connect-timeout", "MS")],
    ], cmd_predict),
    cmd("rounds", &[req("db.json")], &[
        &[ROUNDS, val("out", "out.json"), MODEL, CHECKPOINT, switch("resume")],
        &[val("stop-after", "N")], JOBS, FAULT, OBJECTIVE, OBS,
    ], cmd_rounds),
    cmd("serve", &[], &[
        &[MODEL, ADDR, switch("reload"), switch("quant")],
        &[val("idle-timeout", "MS"), val("trace-slow-ms", "MS"), val("trace-capacity", "N")],
        JOBS, SERVE, OBS,
    ], cmd_serve),
    cmd("daemon", &[], &[
        &[val("db", "db.json"), MODEL, ADDR, ROUNDS, CHECKPOINT],
        &[val("replay", "replay.json"), val("replay-capacity", "N")],
        &[val("train-epochs", "N"), val("pause-ms", "MS"), val("watch-ms", "MS")],
        JOBS, SERVE, OBS,
    ], cmd_daemon),
    cmd("admin", &[req("addr"), req(ADMIN_VERB), opt(ADMIN_ARG)], &[&[switch("prom")]], cmd_admin),
    cmd("chaos-proxy", &[], &[
        &[val("upstream", "HOST:PORT"), val("listen", "HOST:PORT"), val("seed", "N")],
        &[val("drop", "F"), val("delay-rate", "F"), val("truncate", "F"), val("kill", "F")],
        &[val("delay-ms", "N"), val("duration-secs", "N")],
    ], cmd_chaos_proxy),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name.as_str()))
    else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!("usage: gnndse <{}> ...", names.join("|"));
        eprintln!("see the crate docs for details");
        return ExitCode::from(2);
    };
    match cmd.parse(&args[1..]).and_then(|parsed| (cmd.run)(&parsed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), String>;

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The usage line, generated from the table.
    fn usage(&self) -> String {
        let mut usage = format!("usage: gnndse {}", self.name);
        for p in self.positionals {
            usage += &match p.arity {
                Arity::Required => format!(" <{}>", p.name),
                Arity::Optional => format!(" [{}]", p.name),
                Arity::Unless(flag) => format!(" <{}|--{flag}>", p.name),
            };
        }
        for f in self.flags() {
            usage += &match f.hint {
                Some(hint) => format!(" [--{} {hint}]", f.name),
                None => format!(" [--{}]", f.name),
            };
        }
        usage
    }

    /// Reads `args` against this command's table: every `--flag` must be
    /// declared (a valued flag takes the next argument), and the
    /// positionals must fit the declared arities. Unknown flags are
    /// rejected so typos fail loudly instead of being silently ignored.
    fn parse(&'static self, args: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positionals.push(arg.clone());
                continue;
            };
            let Some(flag) = self.flags().find(|f| f.name == name) else {
                let known: Vec<String> = self.flags().map(|f| format!("--{}", f.name)).collect();
                return Err(format!("unknown flag --{name} (known: {})", known.join(", ")));
            };
            let value = match flag.hint {
                Some(_) => it.next().ok_or_else(|| format!("--{name} requires a value"))?.clone(),
                None => String::new(),
            };
            values.insert(flag.name, value);
        }
        let slots: Vec<&Positional> = self
            .positionals
            .iter()
            .filter(|p| !matches!(p.arity, Arity::Unless(flag) if values.contains_key(flag)))
            .collect();
        if positionals.len() > slots.len() {
            return Err(format!("unexpected positional arguments\n{}", self.usage()));
        }
        // Optional positionals are trailing, so the first unfilled slot
        // decides whether anything required is missing.
        if let Some(slot) = slots.get(positionals.len()) {
            if !matches!(slot.arity, Arity::Optional) {
                return Err(format!("missing <{}>\n{}", slot.name, self.usage()));
            }
        }
        values.extend(slots.iter().map(|p| p.name).zip(positionals));
        Ok(Args { cmd: self, values })
    }
}

/// A parsed command line: flag and positional values by their table name.
struct Args {
    cmd: &'static Command,
    values: HashMap<&'static str, String>,
}

impl Args {
    fn str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether `name` was given.
    fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// How `name` is spelled on the command line: `--flag` or `<positional>`.
    fn label(&self, name: &str) -> String {
        if self.cmd.positionals.iter().any(|p| p.name == name) {
            format!("<{name}>")
        } else {
            format!("--{name}")
        }
    }

    fn missing(&self, name: &str) -> String {
        format!("missing {}\n{}", self.label(name), self.cmd.usage())
    }

    /// The value of `name`, which the command cannot run without.
    fn need(&self, name: &str) -> Result<&str, String> {
        self.str(name).ok_or_else(|| self.missing(name))
    }

    /// Parses `name` as `T`, if given.
    fn opt<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse =
            |v: &str| v.parse().map_err(|e| format!("bad value for {}: {e}", self.label(name)));
        self.str(name).map(parse).transpose()
    }

    /// Parses `name` as `T`, or returns `default` when absent.
    fn get<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// Parses the required `name` as `T`.
    fn parse<T: FromStr<Err: Display>>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| self.missing(name))
    }

    /// A millisecond duration, if given.
    fn ms(&self, name: &str) -> Result<Option<Duration>, String> {
        Ok(self.opt(name)?.map(Duration::from_millis))
    }

    /// A probability in `[0, 1]` (default 0).
    fn rate(&self, name: &str) -> Result<f64, String> {
        let rate = self.get(name, 0.0)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} must be in [0, 1], got {rate}"));
        }
        Ok(rate)
    }
}

/// The [`OBS`] flags: initializes logging and returns the `--metrics-out`
/// path, if any, with the time the run started.
fn obs_args(args: &Args) -> Result<(Option<PathBuf>, Instant), String> {
    let level: obs::Level = args.get("log-level", obs::Level::Info)?;
    let json_path = args.str("log-json").map(PathBuf::from);
    obs::log::init(obs::LogConfig { level, human: obs::HumanStyle::Plain, json_path })
        .map_err(|e| format!("cannot open --log-json file: {e}"))?;
    Ok((args.str("metrics-out").map(PathBuf::from), Instant::now()))
}

/// Builds the run report from everything the command recorded and writes it
/// atomically to `path`, when `--metrics-out` gave one.
fn write_metrics(path: Option<PathBuf>, command: &str, started: Instant) -> CliResult {
    let Some(path) = path else { return Ok(()) };
    let report = gnn_dse::report::write_run_report(&path, command, started.elapsed())
        .map_err(|e| format!("cannot write --metrics-out file: {e}"))?;
    obs::info!(
        "metrics.written",
        "wrote run report ({} stages, {} counters) to {}",
        report.stages.len(),
        report.counters.len(),
        path.display()
    );
    Ok(())
}

/// `--jobs N` (default: the machine's available parallelism), at least 1.
fn jobs(args: &Args) -> Result<usize, String> {
    let jobs = args.get("jobs", std::thread::available_parallelism().map_or(1, |n| n.get()))?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(jobs)
}

/// The execution engine for `--jobs`. `--jobs 1` runs the same batched code
/// paths serially, so any jobs count produces byte-identical outputs for the
/// same seed.
fn engine(args: &Args) -> Result<ExecEngine, String> {
    let jobs = jobs(args)?;
    obs::debug!("exec.jobs", "running on {jobs} workers"; jobs = jobs);
    Ok(ExecEngine::with_jobs(jobs))
}

/// The [`OBJECTIVE`] flags: what "better" means (`latency`, `weighted`, or a
/// true `pareto` front), the per-device resource budget (`dsp=0.8,bram=0.7`,
/// enforced via the validity head), and which candidate sampler proposes
/// configurations (`sweep` or the learned `gflow` trajectory sampler).
fn objective_args(args: &Args) -> Result<(Objective, CandidateSampler), String> {
    let mut objective = match args.str("objective") {
        None | Some("latency") => Objective::latency(),
        Some("weighted") => Objective::weighted(ObjectiveWeights::default()),
        Some("pareto") => Objective::pareto(),
        Some(other) => {
            return Err(format!("--objective must be latency|weighted|pareto, got '{other}'"))
        }
    };
    if let Some(spec) = args.str("budget") {
        let budget = ResourceBudget::parse(spec).map_err(|e| format!("bad --budget: {e}"))?;
        objective = objective.with_budget(budget);
    }
    let sampler = args.get("explorer", CandidateSampler::default())?;
    Ok((objective, sampler))
}

/// The [`FAULT`] flags, parsed into the harness builder.
fn fault_args(args: &Args) -> Result<(FaultConfig, HarnessBuilder), String> {
    let faults = FaultConfig::uniform(args.rate("fault-rate")?, args.get("fault-seed", 0)?);
    let builder = HarnessBuilder::new()
        .faults(faults)
        .retry_policy(RetryPolicy::with_max_retries(args.get("max-retries", 3)?));
    Ok((faults, builder))
}

/// The [`SERVE`] flags plus `--jobs`, validated: returns the server config
/// and the total worker budget.
fn serve_args(args: &Args) -> Result<(ServeConfig, usize), String> {
    let config = ServeConfig {
        queue_capacity: args.get("queue", 64)?,
        max_batch: args.get("batch", 16)?,
        max_requests: args.opt("max-requests")?,
        replicas: args.get("replicas", 1)?,
        request_timeout: args.ms("request-timeout")?.unwrap_or(Duration::from_secs(60)),
        ..ServeConfig::default()
    };
    if config.max_batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if config.replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    Ok((config, jobs(args)?))
}

/// Logs what the retrying harness absorbed and lost.
fn log_oracle_stats(event: &str, stats: &HarnessStats) {
    obs::info!(
        event,
        "oracle: {} attempts, {} transient failures retried, {} evaluations lost \
         ({} exhausted retries, {} permanent), {:.1}s virtual backoff",
        stats.attempts,
        stats.transient_failures,
        stats.losses(),
        stats.exhausted,
        stats.permanent_failures,
        stats.virtual_backoff_ms as f64 / 1e3;
        attempts = stats.attempts,
        transient_failures = stats.transient_failures,
        lost = stats.losses(),
        exhausted = stats.exhausted,
        permanent_failures = stats.permanent_failures,
        virtual_backoff_ms = stats.virtual_backoff_ms,
    );
}

/// Saves `db` to `out` under the `io` stage and logs it.
fn save_db(db: &Database, out: &str, event: &str) -> CliResult {
    {
        let _io = obs::span::stage("io");
        db.save(Path::new(out)).map_err(|e| e.to_string())?;
    }
    obs::info!(
        event,
        "wrote {} designs ({} valid) to {out}",
        db.len(),
        db.valid_count();
        designs = db.len(),
        valid = db.valid_count(),
        out = out,
    );
    Ok(())
}

/// The known kernels that `db` has entries for.
fn referenced_kernels(db: &Database) -> Vec<Kernel> {
    kernels::all_kernels()
        .into_iter()
        .filter(|k| db.entries().iter().any(|e| e.kernel == k.name()))
        .collect()
}

/// Loads a binary `.gdse` model artifact through the checksummed envelope.
fn load_model(path: &Path) -> Result<Predictor, String> {
    let (predictor, meta) =
        Predictor::load_artifact(path).map_err(|e| format!("{}: {e}", path.display()))?;
    log_model_loaded(path, &meta);
    Ok(predictor)
}

fn log_model_loaded(path: &Path, meta: &ArtifactMeta) {
    obs::info!(
        "model.loaded",
        "loaded artifact {} ({}, {} kernels, {} epochs, seed {}{})",
        path.display(),
        meta.model,
        meta.kernels.len(),
        meta.epochs,
        meta.seed,
        if meta.quant { ", int8" } else { "" };
        model = meta.model.as_str(),
        kernels = meta.kernels.len(),
        epochs = meta.epochs,
        quant = meta.quant,
    );
}

fn cmd_kernels(_: &Args) -> CliResult {
    println!("{:<14} {:>9} {:>18} {:>7} {:>7}", "kernel", "#pragmas", "#configs", "loops", "role");
    for k in kernels::all_kernels() {
        let space = DesignSpace::from_kernel(&k);
        let unseen = kernels::unseen_kernels().iter().any(|u| u.name() == k.name());
        println!(
            "{:<14} {:>9} {:>18} {:>7} {:>7}",
            k.name(),
            space.num_slots(),
            space.size(),
            k.loops().len(),
            if unseen { "unseen" } else { "train" }
        );
    }
    Ok(())
}

fn lookup_kernel(name: &str) -> Result<Kernel, String> {
    if name == "toy" {
        return Ok(kernels::toy());
    }
    kernels::kernel_by_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))
}

/// The `<kernel>`, its design space, and the bounds-checked design point at
/// `<index>`.
fn design(args: &Args) -> Result<(Kernel, DesignSpace, DesignPoint), String> {
    let kernel = lookup_kernel(args.need("kernel")?)?;
    let space = DesignSpace::from_kernel(&kernel);
    let index: u128 = args.parse("index")?;
    if index >= space.size() {
        return Err(format!("index {index} out of space of size {}", space.size()));
    }
    let point = space.point_at(index);
    Ok((kernel, space, point))
}

fn cmd_evaluate(args: &Args) -> CliResult {
    let (kernel, space, point) = design(args)?;
    let r = MerlinSimulator::new().evaluate(&kernel, &space, &point);
    println!("design : {}", point.describe(space.slots()));
    println!("status : {}", r.validity);
    if r.is_valid() {
        println!("cycles : {}", r.cycles);
        println!(
            "counts : {} DSP, {} BRAM18, {} LUT, {} FF",
            r.counts.dsp, r.counts.bram18, r.counts.lut, r.counts.ff
        );
        println!(
            "util   : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3} (fits<0.8: {})",
            r.util.dsp,
            r.util.bram,
            r.util.lut,
            r.util.ff,
            r.util.fits(0.8)
        );
        println!("tool   : {:.1} modelled minutes", r.synth_minutes);
    }
    Ok(())
}

fn cmd_report(args: &Args) -> CliResult {
    let (kernel, space, point) = design(args)?;
    println!("design: {}\n", point.describe(space.slots()));
    let Some(rows) = MerlinSimulator::new().report(&kernel, &space, &point) else {
        return Err("design is invalid; no report".into());
    };
    println!(
        "{:<6} {:>8} {:>9} {:>5} {:>9} {:>6} {:>12}",
        "loop", "trip", "parallel", "tile", "pipeline", "II", "cycles"
    );
    for r in &rows {
        println!(
            "{:<6} {:>8} {:>9} {:>5} {:>9} {:>6} {:>12}",
            r.label, r.trip_count, r.parallel, r.tile, r.pipeline, r.ii, r.cycles
        );
    }
    Ok(())
}

fn cmd_emit(args: &Args) -> CliResult {
    if args.on("index") {
        let (kernel, space, point) = design(args)?;
        print!("{}", design_space::emit::emit_configured(&kernel, &space, &point));
    } else {
        print!("{}", hls_ir::emit::emit_c(&lookup_kernel(args.need("kernel")?)?));
    }
    Ok(())
}

fn cmd_gendb(args: &Args) -> CliResult {
    let out = args.need("out.json")?;
    let budget: usize = args.get("budget", 60)?;
    let seed: u64 = args.get("seed", 42)?;
    let (metrics_out, started) = obs_args(args)?;
    let (faults, harness_builder) = fault_args(args)?;
    let engine = engine(args)?;
    let ks = kernels::training_kernels();
    let db = if faults.is_disabled() {
        dbgen::generate_database_with(&engine, &MerlinSimulator::new(), &ks, &[], budget, seed)
    } else {
        let harness = harness_builder.build();
        let db = dbgen::generate_database_with(&engine, &harness, &ks, &[], budget, seed);
        log_oracle_stats("gendb.oracle", &harness.stats());
        db
    };
    save_db(&db, out, "gendb.done")?;
    write_metrics(metrics_out, "gendb", started)
}

fn cmd_rounds(args: &Args) -> CliResult {
    let db_path = args.need("db.json")?;
    let n_rounds: usize = args.get("rounds", 4)?;
    let out = args.str("out").unwrap_or(db_path);
    let (metrics_out, started) = obs_args(args)?;
    let (faults, harness_builder) = fault_args(args)?;
    let checkpoint = args.str("checkpoint");
    let resume = args.on("resume");
    if resume && checkpoint.is_none() {
        return Err("--resume requires --checkpoint <file>".into());
    }
    let stop_after = args.opt("stop-after")?;
    let model_ignored = resume && args.on("model");
    let initial_model = match args.str("model") {
        Some(p) if resume => {
            obs::warn!(
                "rounds.model",
                "--model {p} is ignored when resuming: the checkpoint already \
                 carries the training state"
            );
            None
        }
        Some(p) => Some(load_model(Path::new(p))?),
        None => None,
    };

    let mut db = {
        let _io = obs::span::stage("io");
        Database::load(Path::new(db_path)).map_err(|e| e.to_string())?
    };
    let ks = referenced_kernels(&db);
    if ks.is_empty() {
        return Err(format!("{db_path} contains no known kernels"));
    }
    let (objective, sampler) = objective_args(args)?;
    let mut cfg =
        RoundsConfig { rounds: n_rounds, stop_after, initial_model, ..RoundsConfig::quick() };
    cfg.dse.objective = objective;
    cfg.dse.sampler = sampler;

    obs::info!(
        "rounds.start",
        "running {n_rounds} rounds over {} kernels ({} designs to start)...",
        ks.len(),
        db.len();
        rounds = n_rounds,
        kernels = ks.len(),
        designs = db.len(),
    );
    let engine = engine(args)?;
    let harness = harness_builder.build();
    run_rounds(&mut db, &ks, &cfg, &harness, checkpoint.map(Path::new), resume, &engine)
        .map_err(|e| e.to_string())?;
    if model_ignored {
        // Surface the ignored flag in run_report.json too, not only on
        // stderr — scripted runs read the report, not the log. Booked
        // *after* the campaign: resuming restores the checkpoint's metrics
        // snapshot, which would wipe a counter booked earlier.
        obs::metrics::counter_inc("rounds.model_ignored");
    }

    let stats = harness.stats();
    if stats.attempts > 0 && !faults.is_disabled() {
        log_oracle_stats("rounds.oracle", &stats);
    }
    save_db(&db, out, "rounds.done")?;
    write_metrics(metrics_out, "rounds", started)
}

fn cmd_train(args: &Args) -> CliResult {
    let db_path = args.need("db.json")?;
    let epochs: usize = args.get("epochs", 40)?;
    let save = args.str("save").map(PathBuf::from);
    let save_quant = args.str("save-quant").map(PathBuf::from);
    if save.is_none() && save_quant.is_none() {
        return Err(format!(
            "nothing to write: give --save model.gdse or --save-quant model_q.gdse\n{}",
            args.cmd.usage()
        ));
    }
    let db = Database::load(Path::new(db_path)).map_err(|e| e.to_string())?;
    let referenced = referenced_kernels(&db);
    let cfg = TrainConfig { epochs, ..TrainConfig::paper() };
    println!("training M7 on {} designs for {epochs} epochs...", db.len());
    let model_cfg = ModelConfig { hidden: 32, gnn_layers: 4, mlp_layers: 4, seed: 42 };
    let (p, _) = Predictor::train(&db, &referenced, ModelKind::Full, model_cfg, &cfg);
    let trained_on: Vec<String> = referenced.iter().map(|k| k.name().to_string()).collect();
    let meta = ArtifactMeta::describe(&p, &trained_on, epochs);
    if let Some(path) = save {
        p.save_artifact(&path, &meta).map_err(|e| e.to_string())?;
        println!(
            "saved artifact ({}, {} kernels, schema v{}) to {}",
            meta.model,
            meta.kernels.len(),
            meta.schema_version,
            path.display()
        );
    }
    if let Some(path) = save_quant {
        let qp = QuantPredictor::quantize(&p);
        qp.save_artifact(&path, &meta).map_err(|e| e.to_string())?;
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "saved int8-quantized artifact ({}, {} kernels, {} KiB) to {} \
             — serve it with `gnndse serve --quant`",
            meta.model,
            meta.kernels.len(),
            size / 1024,
            path.display()
        );
    }
    Ok(())
}

fn cmd_dse(args: &Args) -> CliResult {
    let model_path = args.str("model").map_or_else(|| args.need("model.gdse"), Ok)?;
    let top_m: usize = args.opt("top_m")?.map_or_else(|| args.get("top-m", 10), Ok)?;
    let (metrics_out, started) = obs_args(args)?;
    let predictor = {
        let _io = obs::span::stage("io");
        load_model(Path::new(model_path))?
    };
    let kernel = lookup_kernel(args.need("kernel")?)?;
    let space = DesignSpace::from_kernel(&kernel);
    let (objective, sampler) = objective_args(args)?;
    let cfg = DseConfig { top_m, objective, sampler, ..DseConfig::default() };
    let engine = engine(args)?;
    let graph = build_graph_bidirectional(&kernel, &space);
    let outcome = run_dse_with_engine(&predictor, &kernel, &space, &graph, &cfg, &engine);
    obs::info!(
        "dse.summary",
        "{} inferences in {:?} ({})",
        outcome.inferences,
        outcome.wall,
        if outcome.exhaustive { "exhaustive" } else { "heuristic" };
        kernel = kernel.name(),
        inferences = outcome.inferences,
        wall_us = outcome.wall,
        exhaustive = outcome.exhaustive,
    );
    let sim = MerlinSimulator::new();
    let _validate = obs::span::stage("validate");
    for (rank, (point, pred)) in outcome.top.iter().enumerate() {
        let truth = sim.evaluate(&kernel, &space, point);
        obs::info!(
            "dse.candidate",
            "#{:<3} predicted {:>10} | actual {:>10} ({}) | {}",
            rank + 1,
            pred.cycles,
            truth.cycles,
            truth.validity,
            point.describe(space.slots());
            rank = rank + 1,
            predicted_cycles = pred.cycles,
            actual_cycles = truth.cycles,
            validity = truth.validity.to_string(),
        );
    }
    drop(_validate);
    if objective.kind == ObjectiveKind::Pareto {
        obs::info!(
            "dse.front",
            "predicted Pareto front: {} mutually non-dominated designs",
            outcome.front.len();
            front_points = outcome.front.len(),
        );
        for (point, pred) in &outcome.front {
            obs::info!(
                "dse.front_point",
                "front: {:>10} cycles | dsp {:.2} bram {:.2} lut {:.2} ff {:.2} | {}",
                pred.cycles,
                pred.util.dsp,
                pred.util.bram,
                pred.util.lut,
                pred.util.ff,
                point.describe(space.slots());
                predicted_cycles = pred.cycles,
            );
        }
    }
    write_metrics(metrics_out, "dse", started)
}

fn cmd_predict(args: &Args) -> CliResult {
    let Some(addr) = args.str("addr") else {
        let predictor = load_model(Path::new(args.need("model.gdse")?))?;
        let (kernel, space, point) = design(args)?;
        let graph = build_graph_bidirectional(&kernel, &space);
        let start = Instant::now();
        let pred = predictor.predict(&graph, &point);
        println!("design    : {}", point.describe(space.slots()));
        println!("valid prob: {:.3}", pred.valid_prob);
        println!("cycles    : {}", pred.cycles);
        println!(
            "util      : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3}",
            pred.util.dsp, pred.util.bram, pred.util.lut, pred.util.ff
        );
        println!("latency   : {:?} (surrogate wall-clock)", start.elapsed());
        return Ok(());
    };
    let index: u128 = args.parse("index")?;
    let client_config = ClientConfig {
        connect_timeout: args.ms("connect-timeout")?.unwrap_or(Duration::from_secs(5)),
        read_timeout: Some(args.ms("timeout")?.unwrap_or(Duration::from_secs(30))),
        retries: args.get("retries", 3)?,
        ..ClientConfig::default()
    };
    let id: u64 = args.get("id", 1)?;
    let mut client = Client::connect_with(addr, client_config).map_err(|e| e.to_string())?;
    let start = Instant::now();
    match client.predict(id, args.need("kernel")?, index).map_err(|e| e.to_string())? {
        Response::Ok { id, epoch, row } => {
            println!("id        : {id}");
            println!("epoch     : {epoch}");
            println!("valid prob: {:.3}", row.valid_prob);
            println!("cycles    : {}", row.cycles);
            println!(
                "util      : dsp {:.3}, bram {:.3}, lut {:.3}, ff {:.3}",
                row.dsp, row.bram, row.lut, row.ff
            );
            println!("latency   : {:?} (round trip)", start.elapsed());
            Ok(())
        }
        Response::Rejected { retry_after_ms, .. } => {
            Err(format!("rejected (429): prediction queue full, retry in {retry_after_ms} ms"))
        }
        Response::Error { code, message, .. } => Err(format!("server error {code}: {message}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn cmd_serve(args: &Args) -> CliResult {
    let model_path = args.need("model")?;
    let addr = args.str("addr").unwrap_or("127.0.0.1:7878");
    let (metrics_out, started) = obs_args(args)?;
    let (base, total_jobs) = serve_args(args)?;
    let watch = args.on("reload");
    let config = ServeConfig {
        idle_timeout: args.ms("idle-timeout")?,
        reload_watch: watch.then(|| Duration::from_millis(500)),
        trace_slow: args.ms("trace-slow-ms")?,
        trace_capacity: args.get("trace-capacity", 256)?,
        ..base
    };
    let (replicas, queue, batch) = (config.replicas, config.queue_capacity, config.max_batch);
    // Split the worker budget across replicas: each replica owns a private
    // engine, so N replicas × per-replica jobs ≈ the machine budget.
    let per_replica_jobs = (total_jobs / replicas).max(1);

    let provider = {
        let _io = obs::span::stage("io");
        if args.on("quant") {
            ArtifactProvider::open_quant(Path::new(model_path), per_replica_jobs)?
        } else {
            ArtifactProvider::open(Path::new(model_path), per_replica_jobs)?
        }
    };
    log_model_loaded(Path::new(model_path), &provider.meta());
    let server = Server::bind_with_provider(addr, config, std::sync::Arc::new(provider))
        .map_err(|e| e.to_string())?;
    let local = server.local_addr();
    obs::info!(
        "serve.listening",
        "serving predictions on {local} ({replicas} replica(s) × {per_replica_jobs} job(s), \
         queue {queue}, batch {batch}{})",
        if watch { ", watching artifact for hot swap" } else { "" };
        addr = local.to_string(),
        replicas = replicas,
        queue = queue,
        batch = batch,
    );
    announce(&format!("listening on {local}"));

    let stats = {
        let _serve = obs::span::stage("serve");
        server.run()
    };
    obs::info!(
        "serve.done",
        "served {} predictions ({} rejected, {} errors, {} rerouted, \
         {} replica restarts, {} reloads, {} reload failures)",
        stats.served,
        stats.rejected,
        stats.errors,
        stats.rerouted,
        stats.replica_restarts,
        stats.reloads,
        stats.reload_failures;
        served = stats.served,
        rejected = stats.rejected,
        errors = stats.errors,
        rerouted = stats.rerouted,
        replica_restarts = stats.replica_restarts,
        reloads = stats.reloads,
        reload_failures = stats.reload_failures,
    );
    write_metrics(metrics_out, "serve", started)
}

/// `gnndse daemon` — the continuous-learning service: the replicated
/// prediction server plus a background DSE/fine-tune driver that hot-swaps
/// the served artifact after every round.
fn cmd_daemon(args: &Args) -> CliResult {
    let db = args.need("db")?;
    let model = args.need("model")?;
    let (metrics_out, started) = obs_args(args)?;
    let (serve, jobs) = serve_args(args)?;
    let rounds = RoundsConfig {
        rounds: args.get("rounds", 4)?,
        train_cfg: gnn_dse::TrainConfig::quick().with_epochs(args.get("train-epochs", 4)?),
        ..RoundsConfig::quick()
    };
    let cfg = gnn_dse::DaemonConfig {
        addr: args.str("addr").unwrap_or("127.0.0.1:7878").to_string(),
        db: PathBuf::from(db),
        artifact: PathBuf::from(model),
        checkpoint: args
            .str("checkpoint")
            .map_or_else(|| format!("{model}.ck.json"), String::from)
            .into(),
        replay: args
            .str("replay")
            .map_or_else(|| format!("{model}.replay.json"), String::from)
            .into(),
        replay_capacity: args.get("replay-capacity", 512)?,
        rounds,
        serve: ServeConfig { reload_watch: args.ms("watch-ms")?, ..serve },
        jobs,
        round_pause: args.ms("pause-ms")?.unwrap_or(Duration::from_millis(500)),
    };
    let daemon = gnn_dse::Daemon::start(cfg)?;
    announce(&format!("listening on {}", daemon.addr()));
    let report = daemon.run()?;
    obs::info!(
        "daemon.done",
        "served {} predictions ({} errors, {} reloads, {} reload failures); \
         completed {} learning round(s){}",
        report.serve.served,
        report.serve.errors,
        report.serve.reloads,
        report.serve.reload_failures,
        report.rounds.len(),
        match &report.learner_error {
            Some(e) => format!("; learner failed: {e}"),
            None => String::new(),
        };
        served = report.serve.served,
        errors = report.serve.errors,
        reloads = report.serve.reloads,
        rounds = report.rounds.len(),
    );
    write_metrics(metrics_out, "daemon", started)?;
    match report.learner_error {
        Some(e) => Err(format!("learning plane failed: {e}")),
        None => Ok(()),
    }
}

/// Prints the line scripts block on to learn the (possibly ephemeral) port.
fn announce(line: &str) {
    println!("{line}");
    std::io::stdout().flush().ok();
}

/// Prints a protocol response body as pretty JSON.
fn print_json(body: &impl serde::Serialize, what: &str) -> CliResult {
    let text = serde_json::to_string_pretty(body).map_err(|e| format!("{what} serialize: {e}"))?;
    println!("{text}");
    Ok(())
}

/// `gnndse admin <addr> <command>` — poke a running server over its own
/// protocol: force a hot swap, run a kill drill, read live telemetry and
/// traces, or stop it.
fn cmd_admin(args: &Args) -> CliResult {
    let verb = args.need(ADMIN_VERB)?;
    let mut client = Client::connect(args.need("addr")?).map_err(|e| e.to_string())?;
    match (verb, args.str(ADMIN_ARG), args.on("prom")) {
        ("stats", None, prom) => {
            let body = client.stats().map_err(|e| e.to_string())?;
            if !prom {
                return print_json(&body, "stats");
            }
            // The snapshot rides inside the stats document; re-render it as
            // Prometheus text exposition for scrapers.
            let metrics = body
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "metrics"))
                .map(|(_, v)| v.clone())
                .ok_or("stats response carries no `metrics` snapshot")?;
            let json = serde_json::to_string(&metrics)
                .map_err(|e| format!("metrics re-serialize: {e}"))?;
            let snap: obs::MetricsSnapshot =
                serde_json::from_str(&json).map_err(|e| format!("metrics snapshot decode: {e}"))?;
            print!("{}", obs::prom::render(&snap));
            Ok(())
        }
        ("learn-status", None, false) => {
            print_json(&client.learn_status().map_err(|e| e.to_string())?, "learn-status")
        }
        ("trace", Some(query), false) => {
            print_json(&client.trace(query).map_err(|e| e.to_string())?, "trace")
        }
        ("reload", None, false) => match client.reload_server().map_err(|e| e.to_string())? {
            Response::Reloaded { epoch } => {
                println!("reloaded: serving epoch {epoch}");
                Ok(())
            }
            Response::Error { code, message, .. } => {
                Err(format!("reload rejected ({code}): {message}"))
            }
            other => Err(format!("unexpected response: {other:?}")),
        },
        ("kill-replica", Some(_), false) => {
            let replica: usize = args.parse(ADMIN_ARG)?;
            match client.kill_replica(replica).map_err(|e| e.to_string())? {
                Response::Killed { replica } => {
                    println!("killed replica {replica} (it will restart under supervision)");
                    Ok(())
                }
                Response::Error { code, message, .. } => {
                    Err(format!("kill rejected ({code}): {message}"))
                }
                other => Err(format!("unexpected response: {other:?}")),
            }
        }
        ("shutdown", None, false) => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server is shutting down");
            Ok(())
        }
        _ => Err(args.cmd.usage()),
    }
}

/// `gnndse chaos-proxy` — a TCP fault-injection proxy between a client and
/// a running server, for chaos tests and the CI smoke.
fn cmd_chaos_proxy(args: &Args) -> CliResult {
    let upstream = args.need("upstream")?;
    let listen = args.str("listen").unwrap_or("127.0.0.1:0");
    let config = ChaosConfig {
        drop_rate: args.rate("drop")?,
        delay_rate: args.rate("delay-rate")?,
        truncate_rate: args.rate("truncate")?,
        kill_rate: args.rate("kill")?,
        delay: Duration::from_millis(args.get("delay-ms", 100)?),
        seed: args.get("seed", 7)?,
    };
    let duration_secs: u64 = args.get("duration-secs", 0)?;
    let mut proxy = ChaosProxy::start(listen, upstream, config).map_err(|e| e.to_string())?;
    announce(&format!("proxying on {} -> {upstream}", proxy.addr()));
    if duration_secs == 0 {
        // Run until killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration_secs));
    let stats = proxy.stats();
    proxy.shutdown();
    println!(
        "proxied {} connection(s): {} dropped, {} delayed, {} truncated, {} killed",
        stats.connections, stats.dropped, stats.delayed, stats.truncated, stats.killed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("command in the table")
    }

    fn parse(name: &str, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        command(name).parse(&args)
    }

    fn parse_err(name: &str, args: &[&str]) -> String {
        match parse(name, args) {
            Ok(_) => panic!("`{name} {args:?}` must be rejected"),
            Err(e) => e,
        }
    }

    /// The flags each subcommand accepted before the table existed:
    /// (subcommand, valued flags, switches).
    const GOLDEN: &[(&str, &str, &str)] = &[
        ("kernels", "", ""),
        ("evaluate", "", ""),
        ("report", "", ""),
        ("emit", "", ""),
        ("gendb", "jobs fault-rate fault-seed max-retries log-level log-json metrics-out", ""),
        (
            "rounds",
            "rounds out jobs model fault-rate fault-seed max-retries checkpoint stop-after \
             objective budget explorer log-level log-json metrics-out",
            "resume",
        ),
        ("train", "save save-quant epochs", ""),
        ("dse", "top-m jobs model objective budget explorer log-level log-json metrics-out", ""),
        ("predict", "addr id retries timeout connect-timeout", ""),
        (
            "serve",
            "model addr jobs queue batch max-requests replicas request-timeout idle-timeout \
             trace-slow-ms trace-capacity log-level log-json metrics-out",
            "reload quant",
        ),
        (
            "daemon",
            "db model addr rounds checkpoint replay replay-capacity train-epochs pause-ms jobs \
             queue batch replicas max-requests request-timeout watch-ms log-level log-json \
             metrics-out",
            "",
        ),
        ("admin", "", "prom"),
        (
            "chaos-proxy",
            "listen upstream drop delay-rate delay-ms truncate kill seed duration-secs",
            "",
        ),
    ];

    fn sorted<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
        let mut names: Vec<_> = names.into_iter().collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn every_subcommand_accepts_exactly_its_golden_flags() {
        assert_eq!(sorted(COMMANDS.iter().map(|c| c.name)), sorted(GOLDEN.iter().map(|g| g.0)));
        for (name, valued, switches) in GOLDEN {
            let cmd = command(name);
            let (v, s): (Vec<&Flag>, Vec<&Flag>) = cmd.flags().partition(|f| f.hint.is_some());
            assert_eq!(
                sorted(v.iter().map(|f| f.name)),
                sorted(valued.split_whitespace()),
                "{name}"
            );
            assert_eq!(
                sorted(s.iter().map(|f| f.name)),
                sorted(switches.split_whitespace()),
                "{name}"
            );
            // No name is declared twice, as a flag or a positional.
            let mut names =
                sorted(cmd.flags().map(|f| f.name).chain(cmd.positionals.iter().map(|p| p.name)));
            let declared = names.len();
            names.dedup();
            assert_eq!(names.len(), declared, "{name} declares a name twice");
        }
    }

    #[test]
    fn usage_names_every_accepted_flag_and_positional() {
        for cmd in COMMANDS {
            let usage = cmd.usage();
            assert!(usage.starts_with(&format!("usage: gnndse {}", cmd.name)));
            for f in cmd.flags() {
                let shown = match f.hint {
                    Some(hint) => format!("[--{} {hint}]", f.name),
                    None => format!("[--{}]", f.name),
                };
                assert!(usage.contains(&shown), "{}: usage lacks {shown}: {usage}", cmd.name);
            }
            for p in cmd.positionals {
                assert!(usage.contains(p.name), "{}: usage lacks {}", cmd.name, p.name);
            }
        }
        assert!(command("dse").usage().contains("[--top-m N]"));
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_known_list() {
        let err = parse_err("gendb", &["db.json", "--job", "2"]);
        assert!(err.starts_with("unknown flag --job (known: "), "{err}");
        for f in command("gendb").flags() {
            assert!(err.contains(&format!("--{}", f.name)), "{err}");
        }
        parse_err("evaluate", &["aes", "3", "--prom"]);
    }

    #[test]
    fn a_valued_flag_without_a_value_is_rejected() {
        assert_eq!(parse_err("serve", &["--model"]), "--model requires a value");
        // A switch takes no value: what follows it stays positional.
        let args = parse("rounds", &["--resume", "db.json"]).expect("switch then positional");
        assert!(args.on("resume"));
        assert_eq!(args.str("db.json"), Some("db.json"));
    }

    #[test]
    fn non_numeric_values_name_the_flag_or_positional() {
        let args = parse("serve", &["--model", "m.gdse", "--jobs", "two", "--idle-timeout", "1s"]);
        let args = args.unwrap();
        assert!(jobs(&args).unwrap_err().starts_with("bad value for --jobs: "));
        assert!(args.ms("idle-timeout").unwrap_err().starts_with("bad value for --idle-timeout: "));

        let args = parse("gendb", &["db.json", "6O", "4x"]).unwrap();
        let err = args.get::<usize>("budget", 60).unwrap_err();
        assert_eq!(err, "bad value for <budget>: invalid digit found in string");
        assert!(args.get::<u64>("seed", 42).unwrap_err().starts_with("bad value for <seed>: "));
        let args = parse("dse", &["m.gdse", "aes", "ten"]).unwrap();
        assert!(args.opt::<usize>("top_m").unwrap_err().starts_with("bad value for <top_m>: "));
    }

    #[test]
    fn extra_positionals_produce_the_usage_error() {
        for (name, args) in [
            ("kernels", &["x"][..]),
            ("emit", &["aes", "1", "2"]),
            ("gendb", &["db.json", "60", "42", "7"]),
            ("rounds", &["db.json", "extra"]),
            ("dse", &["m.gdse", "aes", "10", "extra"]),
            ("dse", &["aes", "10", "extra", "--model", "m.gdse"]),
            ("train", &["db.json", "model.json"]),
            ("serve", &["m.gdse"]),
        ] {
            let usage = command(name).usage();
            assert_eq!(parse_err(name, args), format!("unexpected positional arguments\n{usage}"));
        }
    }

    #[test]
    fn missing_positionals_and_flags_that_replace_them() {
        assert!(parse_err("evaluate", &["aes"]).starts_with("missing <index>\nusage: gnndse"));
        let flag = parse("dse", &["aes", "5", "--model", "m.gdse"]).unwrap();
        assert_eq!(
            (flag.str("model"), flag.str("kernel"), flag.str("top_m")),
            (Some("m.gdse"), Some("aes"), Some("5"))
        );
        assert_eq!(flag.str("model.gdse"), None);
        let remote = parse("predict", &["aes", "5", "--addr", "127.0.0.1:1"]).unwrap();
        assert_eq!((remote.str("kernel"), remote.str("index")), (Some("aes"), Some("5")));
        let err = parse("serve", &[]).unwrap().need("model").unwrap_err();
        assert!(err.starts_with("missing --model\nusage: gnndse serve"), "{err}");
    }
}
