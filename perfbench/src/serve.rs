//! `serve-closed`: the prediction server under two closed-loop clients.
//!
//! Set-up trains the paper-config model, saves it as a `.gdse` artifact,
//! serves it from an in-process `Server` over `ArtifactProvider` (one replica
//! per core, at most 2, each with a serial engine) and warms every kernel
//! once. The timed window runs two clients, each on its own connection,
//! each sending its next request as soon as the previous answer arrives (no
//! think time). The protocol allows one request in flight per connection,
//! so two clients cannot build a queue the way an arrival schedule would;
//! the load is closed-loop by construction.
//!
//! Every response is checked bit for bit against `Predictor::predict_batch`
//! on the trained model for the same (kernel, index). The traced run serves
//! the same artifact through a provider of this crate whose backend replays
//! `PredictService`'s path with timers ([`crate::surrogate`]), and reads the
//! server's own span histograms through the public `stats` verb.

use crate::ledger::{median, metric, percentile, ratio, Ledger, Metric};
use crate::surrogate::{self, predict_ordered_traced, same_bits, CacheKey, SETUP_EPOCHS};
use crate::{Args, Outcome};
use design_space::{DesignPoint, DesignSpace};
use gdse_exec::{ShardedCache, WorkerPool};
use gdse_serve::{
    BatchPredictor, Client, ModelProvider, PredictionRow, Response, ServeConfig, ServeStats, Server,
};
use gnn_dse::{ArtifactMeta, ArtifactProvider, Prediction, Predictor};
use proggraph::ProgramGraph;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The request mix: the smallest and largest graphs plus two mid-sized ones.
const KERNELS: [&str; 4] = ["gemm-ncubed", "2mm", "aes", "stencil"];

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;

/// Size of each kernel's hot set.
const HOT_PER_KERNEL: u64 = 8;

/// Share of requests drawn from the hot sets; the rest are uniform over the
/// kernel's whole space.
const HOT_SHARE: f64 = 0.5;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Equal slices of the timed window. Throughput and latency percentiles are
/// taken per slice and reported as their median across slices, so a burst
/// of host noise inside one slice does not move them.
const SLICES: usize = 5;

/// Untraced/traced window pairs in a traced run.
const TRACE_PAIRS: usize = 2;

/// The server's span stages, in pipeline order.
const STAGES: [&str; 6] = [
    "ingress",
    "route",
    "queue_wait",
    "batch_wait",
    "infer",
    "write",
];

/// SplitMix64 step: the request generator's PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded request mix.
struct Mix {
    sizes: Vec<u128>,
    hot: Vec<Vec<u128>>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut state = seed ^ 0x5e7e_c10d;
        let sizes: Vec<u128> = KERNELS
            .iter()
            .map(|k| {
                DesignSpace::from_kernel(&hls_ir::kernels::kernel_by_name(k).expect("kernel"))
                    .size()
            })
            .collect();
        let hot = sizes
            .iter()
            .map(|&n| {
                (0..HOT_PER_KERNEL)
                    .map(|_| u128::from(splitmix(&mut state)) % n)
                    .collect()
            })
            .collect();
        Mix { sizes, hot }
    }

    /// Client `client`'s request stream: (kernel slot, design-point index).
    fn stream(&self, seed: u64, client: usize) -> impl FnMut() -> (usize, u128) + '_ {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (client as u64 + 1);
        move || {
            let k = (splitmix(&mut state) % KERNELS.len() as u64) as usize;
            let pick = splitmix(&mut state);
            let index = if (pick >> 11) as f64 / (1u64 << 53) as f64 <= HOT_SHARE {
                self.hot[k][(splitmix(&mut state) % HOT_PER_KERNEL) as usize]
            } else {
                u128::from(splitmix(&mut state)) % self.sizes[k]
            };
            (k, index)
        }
    }
}

/// One answered (or failed) request of the timed window.
struct Sample {
    kernel: usize,
    index: u128,
    /// When it was sent, seconds into the window.
    sent_s: f64,
    rtt_us: f64,
    row: Option<PredictionRow>,
}

/// A running server with the model it serves.
struct Running {
    predictor: Predictor,
    addr: String,
    thread: JoinHandle<ServeStats>,
}

impl Running {
    /// Shuts the server down and waits for it to drain and exit.
    fn stop(self) {
        Client::connect(&self.addr)
            .and_then(|mut admin| admin.shutdown_server())
            .expect("shutdown request");
        self.thread.join().expect("server thread");
    }
}

/// Set-up: train, save the artifact, serve it, warm every kernel once.
fn start(seed: u64, work_dir: &Path, traced: Option<&Arc<Ledger>>) -> Running {
    let predictor = surrogate::trained_predictor(seed);
    std::fs::create_dir_all(work_dir).expect("work dir");
    let name = if traced.is_some() {
        "traced"
    } else {
        "untraced"
    };
    let path: PathBuf = work_dir.join(format!("serve-{seed}-{name}.gdse"));
    let names: Vec<String> = KERNELS.iter().map(|k| k.to_string()).collect();
    predictor
        .save_artifact(
            &path,
            &ArtifactMeta::describe(&predictor, &names, SETUP_EPOCHS),
        )
        .expect("artifact saves");
    let provider: Arc<dyn ModelProvider> = match traced {
        None => Arc::new(ArtifactProvider::open(&path, 1).expect("artifact opens")),
        Some(ledger) => Arc::new(TracedProvider {
            predictor: Predictor::load_artifact(&path).expect("artifact loads").0,
            ledger: Arc::clone(ledger),
        }),
    };
    let config = ServeConfig {
        replicas: crate::jobs(),
        ..ServeConfig::default()
    };
    let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    for (i, kernel) in KERNELS.iter().enumerate() {
        match client.predict(i as u64, kernel, 0) {
            Ok(Response::Ok { .. }) => {}
            other => panic!("warm-up of {kernel} failed: {other:?}"),
        }
    }
    Running {
        predictor,
        addr,
        thread,
    }
}

/// The timed window: `CLIENTS` closed-loop clients for `seconds`.
fn drive(addr: &str, mix: &Mix, seed: u64, seconds: f64) -> (Vec<Sample>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let started = Mutex::new(None::<Instant>);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, started) = (&barrier, &started);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut next = mix.stream(seed, c);
                    let mut samples = Vec::new();
                    barrier.wait();
                    let t0 = *started
                        .lock()
                        .expect("start lock")
                        .get_or_insert_with(Instant::now);
                    while t0.elapsed().as_secs_f64() < seconds {
                        let (kernel, index) = next();
                        let id = (c as u64) << 32 | samples.len() as u64;
                        let sent = Instant::now();
                        let sent_s = (sent - t0).as_secs_f64();
                        let answer = client.predict(id, KERNELS[kernel], index);
                        let rtt_us = sent.elapsed().as_nanos() as f64 / 1e3;
                        let row = match answer {
                            Ok(Response::Ok { row, .. }) => Some(row),
                            other => {
                                eprintln!(
                                    "serve: client {c} {}#{index}: {other:?}",
                                    KERNELS[kernel]
                                );
                                None
                            }
                        };
                        samples.push(Sample {
                            kernel,
                            index,
                            sent_s,
                            rtt_us,
                            row,
                        });
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = started
        .into_inner()
        .expect("start lock")
        .map_or(0.0, |t| t.elapsed().as_secs_f64());
    (per_client.into_iter().flatten().collect(), wall)
}

/// Responses that failed or differ (bitwise) from offline
/// `Predictor::predict_batch` on the same points.
fn mismatches(predictor: &Predictor, samples: &[Sample]) -> u64 {
    let mut wanted: BTreeMap<usize, Vec<u128>> = BTreeMap::new();
    for s in samples {
        wanted.entry(s.kernel).or_default().push(s.index);
    }
    let pool = WorkerPool::new(crate::jobs());
    let mut offline: HashMap<(usize, u128), Prediction> = HashMap::new();
    for (k, mut indices) in wanted {
        indices.sort_unstable();
        indices.dedup();
        let kernel = hls_ir::kernels::kernel_by_name(KERNELS[k]).expect("kernel");
        let space = DesignSpace::from_kernel(&kernel);
        let graph = proggraph::build_graph_bidirectional(&kernel, &space);
        let points: Vec<DesignPoint> = indices.iter().map(|&i| space.point_at(i)).collect();
        let chunks: Vec<&[DesignPoint]> = points.chunks(64).collect();
        let preds = pool.map(&chunks, |_, chunk| predictor.predict_batch(&graph, chunk));
        offline.extend(
            indices
                .into_iter()
                .map(|i| (k, i))
                .zip(preds.into_iter().flatten()),
        );
    }
    samples
        .iter()
        .filter(|s| {
            let Some(row) = s.row else { return true };
            let served = Prediction {
                valid_prob: row.valid_prob,
                cycles: row.cycles,
                util: merlin_sim::Utilization {
                    dsp: row.dsp,
                    bram: row.bram,
                    lut: row.lut,
                    ff: row.ff,
                },
            };
            !same_bits(&served, &offline[&(s.kernel, s.index)])
        })
        .count() as u64
}

/// A provider serving one fixed model through [`TracedService`] backends.
struct TracedProvider {
    predictor: Predictor,
    ledger: Arc<Ledger>,
}

impl ModelProvider for TracedProvider {
    fn epoch(&self) -> u64 {
        1
    }

    fn build(&self) -> Result<(Box<dyn BatchPredictor>, u64), String> {
        let service = TracedService {
            predictor: self.predictor.clone(),
            pool: WorkerPool::serial(),
            cache: ShardedCache::new(16),
            kernels: Mutex::new(HashMap::new()),
            ledger: Arc::clone(&self.ledger),
        };
        Ok((Box::new(service), 1))
    }

    fn reload(&self) -> Result<u64, String> {
        Err("the benchmark serves one fixed model".into())
    }
}

/// The traced replay of `PredictService`: resolve the kernel (building its
/// program graph on first use), bounds-check indices, score through the
/// traced `predict_ordered` on a serial pool with a private cache.
struct TracedService {
    predictor: Predictor,
    pool: WorkerPool,
    cache: ShardedCache<CacheKey, Prediction>,
    kernels: Mutex<HashMap<String, Arc<(DesignSpace, ProgramGraph)>>>,
    ledger: Arc<Ledger>,
}

impl TracedService {
    fn resolve(&self, kernel: &str) -> Result<Arc<(DesignSpace, ProgramGraph)>, String> {
        let mut cache = self.kernels.lock().expect("kernel cache lock");
        if let Some(entry) = cache.get(kernel) {
            return Ok(Arc::clone(entry));
        }
        let k = hls_ir::kernels::kernel_by_name(kernel)
            .ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
        let space = DesignSpace::from_kernel(&k);
        let graph = self.ledger.time("proggraph.build", || {
            proggraph::build_graph_bidirectional(&k, &space)
        });
        let entry = Arc::new((space, graph));
        cache.insert(kernel.to_string(), Arc::clone(&entry));
        Ok(entry)
    }
}

impl BatchPredictor for TracedService {
    fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
        let entry = self.resolve(kernel)?;
        let (space, graph) = (&entry.0, &entry.1);
        let points: Vec<DesignPoint> = indices
            .iter()
            .map(|&i| {
                if i >= space.size() {
                    Err(format!(
                        "index {i} out of range for `{kernel}` (space size {})",
                        space.size()
                    ))
                } else {
                    Ok(space.point_at(i))
                }
            })
            .collect::<Result<_, _>>()?;
        let before = self.cache.stats();
        let preds = predict_ordered_traced(
            &self.pool,
            &self.cache,
            &self.predictor,
            graph,
            kernel,
            &points,
            &self.ledger,
        );
        let after = self.cache.stats();
        self.ledger
            .add("exec.cache_hits", u128::from(after.hits - before.hits));
        self.ledger.add(
            "exec.cache_lookups",
            u128::from(after.hits + after.misses - before.hits - before.misses),
        );
        self.ledger.add("serve.backend_calls", 1);
        self.ledger.add("serve.backend_rows", indices.len() as u128);
        Ok(preds
            .into_iter()
            .map(|p| PredictionRow {
                valid_prob: p.valid_prob,
                cycles: p.cycles,
                dsp: p.util.dsp,
                bram: p.util.bram,
                lut: p.util.lut,
                ff: p.util.ff,
            })
            .collect())
    }
}

/// `(count, sum µs)` of every `serve.trace.*` histogram in a live `stats`
/// document.
fn span_totals(addr: &str) -> HashMap<String, (f64, f64)> {
    let body = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats verb");
    let num = |v: &serde::Value| match v {
        serde::Value::Int(i) => *i as f64,
        serde::Value::Float(f) => *f,
        _ => 0.0,
    };
    let field = |h: &[(String, serde::Value)], k: &str| {
        h.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
    };
    let hists = body
        .as_map()
        .and_then(|m| field(m, "histograms"))
        .expect("stats carries histograms");
    hists
        .as_seq()
        .unwrap_or_default()
        .iter()
        .filter_map(|h| {
            let h = h.as_map()?;
            let name = field(h, "name")?.as_str()?.to_string();
            if !name.starts_with("serve.trace.") {
                return None;
            }
            Some((name, (num(&field(h, "count")?), num(&field(h, "sum")?))))
        })
        .collect()
}

/// Mean µs per request of span `name` between two `stats` documents.
fn span_mean(
    before: &HashMap<String, (f64, f64)>,
    after: &HashMap<String, (f64, f64)>,
    name: &str,
) -> f64 {
    let (c0, s0) = before.get(name).copied().unwrap_or_default();
    let (c1, s1) = after.get(name).copied().unwrap_or_default();
    ratio(s1 - s0, c1 - c0)
}

/// What one timed window measured.
struct Window {
    samples: Vec<Sample>,
    wall: f64,
    failed: u64,
}

impl Window {
    /// Round trips (µs) of the answered requests in each of [`SLICES`]
    /// equal slices of the window, by send time.
    fn slices(&self, seconds: f64) -> Vec<Vec<f64>> {
        let width = seconds / SLICES as f64;
        let mut slices = vec![Vec::new(); SLICES];
        for s in self.samples.iter().filter(|s| s.row.is_some()) {
            slices[((s.sent_s / width) as usize).min(SLICES - 1)].push(s.rtt_us);
        }
        slices
    }

    /// (requests/s, p50 µs, p99 µs), each the median across slices.
    fn sliced(&self, seconds: f64) -> (f64, f64, f64) {
        let slices = self.slices(seconds);
        let width = seconds / SLICES as f64;
        let rps: Vec<f64> = slices.iter().map(|r| r.len() as f64 / width).collect();
        let p50: Vec<f64> = slices.iter().map(|r| percentile(r, 50.0)).collect();
        let p99: Vec<f64> = slices.iter().map(|r| percentile(r, 99.0)).collect();
        println!("serve slices: requests/s {rps:.1?}, p50 us {p50:.1?}, p99 us {p99:.1?}");
        (median(&rps), median(&p50), median(&p99))
    }

    /// Mean round trip (µs), the median across slices of each slice's mean.
    fn mean_rtt(&self, seconds: f64) -> f64 {
        let means: Vec<f64> = self
            .slices(seconds)
            .iter()
            .map(|r| ratio(r.iter().sum(), r.len() as f64))
            .collect();
        median(&means)
    }
}

fn window(running: &Running, mix: &Mix, seed: u64, seconds: f64) -> Window {
    let (samples, wall) = drive(&running.addr, mix, seed, seconds);
    let failed = mismatches(&running.predictor, &samples);
    Window {
        samples,
        wall,
        failed,
    }
}

/// Prints and returns a window's end-to-end figures: (requests/s, p50 µs,
/// p99 µs).
fn summarize(w: &Window, seconds: f64) -> (f64, f64, f64) {
    let (rps, p50, p99) = w.sliced(seconds);
    println!(
        "serve: closed loop, {CLIENTS} clients on {CLIENTS} connections, no think time, \
         {} replicas; {} requests ({} failed or mismatched) over {:.2} s",
        crate::jobs(),
        w.samples.len(),
        w.failed,
        w.wall
    );
    println!(
        "serve.p50_us {p50} us, serve.p99_us {p99} us ({} samples in {SLICES} slices, median across slices)",
        w.samples.len()
    );
    println!("serve.rps {rps} 1/s");
    (rps, p50, p99)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mix = Mix::new(args.seed);
    let (running, setup_s) = surrogate::repeated_setup(
        SETUPS,
        || start(args.seed, &args.work_dir, None),
        Running::stop,
    );
    if !args.trace {
        let w = window(&running, &mix, args.seed, args.seconds);
        running.stop();
        let (rps, p50, p99) = summarize(&w, args.seconds);
        return Outcome {
            correct: w.failed == 0,
            attempted: w.samples.len() as u64,
            failed: w.failed,
            metrics: crate::end_to_end(setup_s, rps, p50, p99),
        };
    }

    // The traced run serves the same model from a second, traced server and
    // alternates windows between the two, each pair on its own part of the
    // request stream, so both see the same host conditions.
    let ledger = Arc::new(Ledger::default());
    let traced_server = start(args.seed, &args.work_dir, Some(&ledger));
    let build_us = ledger.us("proggraph.build");
    ledger.reset();
    let seconds = args.seconds / (2 * TRACE_PAIRS) as f64;
    let before = span_totals(&traced_server.addr);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..TRACE_PAIRS as u64 {
        untraced.push(window(
            &running,
            &mix,
            args.seed.wrapping_add(pair),
            seconds,
        ));
        traced.push(window(
            &traced_server,
            &mix,
            args.seed.wrapping_add(pair),
            seconds,
        ));
    }
    let after = span_totals(&traced_server.addr);
    running.stop();
    traced_server.stop();
    summarize(&untraced[0], seconds);
    let all = untraced.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|w| w.samples.len() as u64).sum();
    let failed: u64 = all.map(|w| w.failed).sum();
    let n: f64 = traced.iter().map(|w| w.samples.len() as f64).sum();
    println!(
        "serve traced: {n} requests; {failed} of {attempted} requests in both servers failed or \
         differ from the offline predictor"
    );
    let mean_rtt =
        |ws: &[Window]| median(&ws.iter().map(|w| w.mean_rtt(seconds)).collect::<Vec<_>>());
    let (untraced_rtt, traced_rtt) = (mean_rtt(&untraced), mean_rtt(&traced));

    let stage_means: Vec<f64> = STAGES
        .iter()
        .map(|s| span_mean(&before, &after, &format!("serve.trace.{s}_us")))
        .collect();
    let server_total = span_mean(&before, &after, "serve.trace.total_us");
    let traced_mean = ratio(
        traced
            .iter()
            .flat_map(|w| &w.samples)
            .map(|s| s.rtt_us)
            .sum(),
        n,
    );
    let mut metrics: Vec<Metric> = vec![metric("proggraph.build_us", build_us, "us")];
    metrics.extend(surrogate::forward_metrics(&ledger, n));
    metrics.extend([
        metric(
            "exec.parallel_efficiency",
            ratio(ledger.us("exec.chunk_busy"), ledger.us("exec.predict_wall")),
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
        metric("serve.ingress_us", stage_means[0], "us"),
        metric("serve.route_us", stage_means[1], "us"),
        metric("serve.queue_wait_us", stage_means[2], "us"),
        metric("serve.batch_wait_us", stage_means[3], "us"),
        metric("serve.infer_us", stage_means[4], "us"),
        metric("serve.write_us", stage_means[5], "us"),
        metric(
            "serve.batch_size_mean",
            ratio(
                ledger.get("serve.backend_rows") as f64,
                ledger.get("serve.backend_calls") as f64,
            ),
            "count",
        ),
        metric("serve.client_overhead_us", traced_mean - server_total, "us"),
        metric(
            "coverage",
            ratio(stage_means.iter().sum(), untraced_rtt),
            "ratio",
        ),
        metric(
            "trace_overhead_pct",
            100.0 * ratio(traced_rtt - untraced_rtt, untraced_rtt),
            "%",
        ),
        metric("trace.untraced_wall_us", untraced_rtt, "us"),
        metric("trace.traced_wall_us", traced_rtt, "us"),
    ]);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: crate::complete_layers(metrics),
    }
}
