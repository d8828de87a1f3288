//! The paper-config surrogate every workload shares, and the traced replica
//! of its batch-scoring path.
//!
//! [`predict_ordered_traced`] and [`predict_batch_traced`] make the same
//! public calls, in the same order, as `ExecEngine::predict_ordered` and
//! `Predictor::predict_batch`, with a timer around each layer's call. The
//! results are bit-identical; the DSE and serve workloads check that.

use crate::ledger::Ledger;
use design_space::DesignPoint;
use gdse_exec::{evaluate_cached, ShardedCache, WorkerPool};
use gdse_gnn::{GraphBatch, GraphInput, ModelConfig, ModelKind};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, Database, DbEntry, Prediction, Predictor};
use hls_ir::Kernel;
use merlin_sim::Utilization;
use proggraph::ProgramGraph;
use std::time::Instant;

/// The model every workload measures: TransformerConv, paper width/depth.
pub const KIND: ModelKind = ModelKind::Transformer;

/// Designs per training kernel (of which invalid) in the database the DSE
/// and serve model is trained on during set-up.
pub const SETUP_DESIGNS: (usize, usize) = (12, 2);

/// Epochs of that set-up training.
pub const SETUP_EPOCHS: usize = 2;

/// Prediction-cache key shape, as in `gnn_dse::parallel`.
pub type CacheKey = (String, DesignPoint);

/// `TrainConfig::paper()` (batch 32, lr 1e-3) cut to `epochs` epochs.
pub fn paper_train_config(epochs: usize) -> TrainConfig {
    TrainConfig::paper().with_epochs(epochs)
}

/// A seeded `dbgen` database over `kernels` with a fixed composition: per
/// kernel, `per_kernel` designs of which `invalid` are invalid (fewer when
/// the generated designs hold fewer; valid ones fill the gap).
///
/// Graph size depends only on the kernel, so a fixed per-kernel count of
/// valid and invalid samples keeps the work per epoch the same across
/// seeds; only the designs, and so the numbers, change.
pub fn seeded_database(
    kernels: &[Kernel],
    per_kernel: usize,
    invalid: usize,
    seed: u64,
) -> Database {
    let generated = dbgen::generate_database(kernels, &[], 2 * per_kernel, seed);
    let mut db = Database::new();
    for k in kernels {
        let (bad, good): (Vec<&DbEntry>, Vec<&DbEntry>) = generated
            .of_kernel(k.name())
            .partition(|e| !e.result.is_valid());
        let n_bad = invalid.min(bad.len());
        let picked = good
            .iter()
            .take(per_kernel - n_bad)
            .chain(bad.iter().take(n_bad));
        for e in picked {
            db.insert(&e.kernel, e.point.clone(), e.result);
        }
    }
    db
}

/// Set-up of the DSE and serve workloads: a seeded database and a
/// paper-config predictor trained on it.
pub fn trained_predictor(seed: u64) -> Predictor {
    let kernels = hls_ir::kernels::training_kernels();
    let db = seeded_database(&kernels, SETUP_DESIGNS.0, SETUP_DESIGNS.1, seed);
    let cfg = paper_train_config(SETUP_EPOCHS);
    Predictor::train(&db, &kernels, KIND, ModelConfig::paper(), &cfg).0
}

/// Runs `setup` `times` times and returns the last result with the median
/// set-up time in seconds. Earlier results go to `discard`, untimed.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let started = Instant::now();
        last = Some(setup());
        walls.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::ledger::median(&walls),
    )
}

/// Traced `ExecEngine::predict_ordered`: cached points come from `cache`,
/// misses are split into one contiguous chunk per worker of `pool`, and each
/// chunk is scored by [`predict_batch_traced`].
///
/// Books `exec.predict_wall` (ns of the whole call, on the calling thread)
/// and `exec.chunk_busy` (ns summed over chunks, on the workers).
pub fn predict_ordered_traced(
    pool: &WorkerPool,
    cache: &ShardedCache<CacheKey, Prediction>,
    predictor: &Predictor,
    graph: &ProgramGraph,
    kernel_name: &str,
    points: &[DesignPoint],
    ledger: &Ledger,
) -> Vec<Prediction> {
    let started = Instant::now();
    let chunked = |items: &[DesignPoint]| -> Vec<Prediction> {
        if items.is_empty() {
            return Vec::new();
        }
        let per_worker = items.len().div_ceil(pool.jobs()).max(1);
        let chunks: Vec<&[DesignPoint]> = items.chunks(per_worker).collect();
        pool.map(&chunks, |_, chunk| {
            let busy = Instant::now();
            let preds = predict_batch_traced(predictor, graph, chunk, ledger);
            ledger.add_duration("exec.chunk_busy", busy.elapsed());
            preds
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let preds = evaluate_cached(
        &chunked,
        cache,
        |p| (kernel_name.to_string(), p.clone()),
        points,
    );
    ledger.add_duration("exec.predict_wall", started.elapsed());
    preds
}

/// Traced `Predictor::predict_batch`: lowering, batch assembly, the three
/// model forwards and decoding, each timed.
pub fn predict_batch_traced(
    predictor: &Predictor,
    graph: &ProgramGraph,
    points: &[DesignPoint],
    ledger: &Ledger,
) -> Vec<Prediction> {
    if points.is_empty() {
        return Vec::new();
    }
    let inputs: Vec<(GraphInput, &DesignPoint)> = ledger.time("gnn.input.lower", || {
        points
            .iter()
            .map(|p| (GraphInput::from_graph(graph, Some(p)), p))
            .collect()
    });
    let batch = ledger.time("gnn.input.batch", || {
        let refs: Vec<(&GraphInput, &DesignPoint)> =
            inputs.iter().map(|(gi, p)| (gi, *p)).collect();
        GraphBatch::new(&refs)
    });
    ledger.add("gnn.batch_nodes", batch.num_nodes() as u128);
    ledger.add("gnn.batch_edges", batch.src.len() as u128);
    ledger.add("gnn.forwards", 1);
    ledger.add("gnn.points", points.len() as u128);

    let cls = ledger.time("gnn.forward.cls", || predictor.classifier().forward(&batch));
    let reg = ledger.time("gnn.forward.reg", || predictor.regressor().forward(&batch));
    let bram = ledger.time("gnn.forward.bram", || {
        predictor.bram_model().forward(&batch)
    });

    ledger.time("core.decode", || {
        (0..points.len())
            .map(|i| {
                let logit = cls.graph.value(cls.outputs[0]).get(i, 0);
                let valid_prob = f64::from(1.0 / (1.0 + (-logit).exp()));
                let t_lat = f64::from(reg.graph.value(reg.outputs[0]).get(i, 0));
                let util = Utilization {
                    dsp: f64::from(reg.graph.value(reg.outputs[1]).get(i, 0)),
                    lut: f64::from(reg.graph.value(reg.outputs[2]).get(i, 0)),
                    ff: f64::from(reg.graph.value(reg.outputs[3]).get(i, 0)),
                    bram: f64::from(bram.graph.value(bram.outputs[0]).get(i, 0)),
                };
                Prediction {
                    valid_prob,
                    cycles: predictor.normalizer().inverse(t_lat),
                    util,
                }
            })
            .collect()
    })
}

/// Whether two predictions are bit-identical (`Prediction`'s `==` would
/// treat `-0.0 == 0.0` and is false on NaN).
pub fn same_bits(a: &Prediction, b: &Prediction) -> bool {
    a.cycles == b.cycles
        && a.valid_prob.to_bits() == b.valid_prob.to_bits()
        && a.util.dsp.to_bits() == b.util.dsp.to_bits()
        && a.util.bram.to_bits() == b.util.bram.to_bits()
        && a.util.lut.to_bits() == b.util.lut.to_bits()
        && a.util.ff.to_bits() == b.util.ff.to_bits()
}

/// Forward-pass metrics shared by the workloads that score design points:
/// per-repetition layer times and per-forward batch shape.
pub fn forward_metrics(ledger: &Ledger, reps: f64) -> Vec<crate::ledger::Metric> {
    use crate::ledger::{metric, ratio};
    let forwards = ledger.get("gnn.forwards") as f64;
    let points = ledger.get("gnn.points") as f64;
    let forward_us =
        ledger.us("gnn.forward.cls") + ledger.us("gnn.forward.reg") + ledger.us("gnn.forward.bram");
    vec![
        metric(
            "gnn.input.lower_us",
            ledger.us("gnn.input.lower") / reps,
            "us",
        ),
        metric(
            "gnn.input.batch_us",
            ledger.us("gnn.input.batch") / reps,
            "us",
        ),
        metric(
            "gnn.batch_nodes",
            ratio(ledger.get("gnn.batch_nodes") as f64, forwards),
            "count",
        ),
        metric(
            "gnn.batch_edges",
            ratio(ledger.get("gnn.batch_edges") as f64, forwards),
            "count",
        ),
        metric(
            "gnn.forward.cls_us",
            ledger.us("gnn.forward.cls") / reps,
            "us",
        ),
        metric(
            "gnn.forward.reg_us",
            ledger.us("gnn.forward.reg") / reps,
            "us",
        ),
        metric(
            "gnn.forward.bram_us",
            ledger.us("gnn.forward.bram") / reps,
            "us",
        ),
        metric("gnn.forward.us_per_point", ratio(forward_us, points), "us"),
        metric("gnn.forward.batch_size", ratio(points, forwards), "count"),
        metric("core.decode_us", ledger.us("core.decode") / reps, "us"),
    ]
}
