//! `train-epochs`: paper-config training of the surrogate's three models.
//!
//! The untraced pass trains a fresh validity classifier, main regressor and
//! BRAM regressor exactly as `Predictor::train` does — models built as in
//! `Predictor::untrained`, then `train_classifier` on every sample and
//! `train_regression` twice on the valid ones — with `TrainConfig::paper()`
//! batch size and learning rate. The epoch count stays at or below 6, so the
//! trainer's stall-restart check never fires and every repetition is
//! deterministic. The traced pass replays the trainer's epoch loop from the
//! same public calls (`Dataset::batch`/`targets`, `PredictionModel::forward`,
//! the tape's loss and `backward`, `clip_global_norm`, `Adam::step`) with a
//! timer around each, and must reproduce every per-epoch loss bit for bit.

use crate::ledger::{alternate, median, metric, percentile, ratio, repeat, Ledger, Metric};
use crate::surrogate::{self, paper_train_config, seeded_database, KIND};
use crate::{Args, Outcome};
use gdse_gnn::{ModelConfig, PredictionModel};
use gdse_tensor::Adam;
use gnn_dse::dataset::{BRAM_TARGET, CLASS_TARGET, MAIN_TARGETS};
use gnn_dse::trainer::{train_classifier, train_regression, TrainConfig};
use gnn_dse::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Designs per training kernel in the seeded database, and how many of
/// them are invalid (the classifier trains on all, the regressors on the
/// valid ones).
const DESIGNS: (usize, usize) = (20, 4);

/// Epochs per training repetition (at most 6: no stall restarts).
const EPOCHS: usize = 2;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// The three models, in training order.
const MODELS: [&str; 3] = ["classifier", "regressor", "bram"];

/// Ledger key of each model's forward time, in [`MODELS`] order.
const FORWARD_KEYS: [&str; 3] = ["gnn.forward.cls", "gnn.forward.reg", "gnn.forward.bram"];

/// The untrained models, seeded as `Predictor::untrained` seeds them.
#[derive(Clone)]
struct Models([PredictionModel; 3]);

impl Models {
    fn untrained() -> Self {
        let config = ModelConfig::paper();
        Models([
            PredictionModel::new(
                KIND,
                config.clone().with_seed(config.seed ^ 1),
                &CLASS_TARGET,
            ),
            PredictionModel::new(KIND, config.clone(), &MAIN_TARGETS),
            PredictionModel::new(
                KIND,
                config.clone().with_seed(config.seed ^ 2),
                &BRAM_TARGET,
            ),
        ])
    }
}

/// What the workload trains on.
struct Setup {
    ds: Dataset,
    all: Vec<usize>,
    valid: Vec<usize>,
    models: Models,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let kernels = hls_ir::kernels::training_kernels();
        let db = seeded_database(&kernels, DESIGNS.0, DESIGNS.1, seed);
        let ds = Dataset::from_database(&db, &kernels);
        let all = (0..ds.len()).collect();
        let valid = ds.valid_indices();
        Setup {
            ds,
            all,
            valid,
            models: Models::untrained(),
        }
    }

    /// The samples each model trains on, in [`MODELS`] order.
    fn indices(&self, model: usize) -> &[usize] {
        if model == 0 {
            &self.all
        } else {
            &self.valid
        }
    }

    /// Samples visited by one repetition: every epoch of every model.
    fn sample_visits(&self) -> usize {
        (0..MODELS.len())
            .map(|m| self.indices(m).len())
            .sum::<usize>()
            * EPOCHS
    }
}

/// One repetition: per-model epoch losses and training walls.
struct Rep {
    losses: [Vec<f32>; 3],
    walls: [f64; 3],
    wall: f64,
}

impl Rep {
    /// Sum of the three models' last-epoch mean losses.
    fn final_loss(&self) -> f64 {
        self.losses
            .iter()
            .map(|l| f64::from(*l.last().expect("EPOCHS >= 1")))
            .sum()
    }
}

/// Trains all three models once, `train` doing one model.
fn rep(setup: &Setup, mut train: impl FnMut(usize, &mut PredictionModel) -> Vec<f32>) -> Rep {
    let mut models = setup.models.clone();
    let started = Instant::now();
    let mut losses: [Vec<f32>; 3] = Default::default();
    let mut walls = [0.0; 3];
    for (m, model) in models.0.iter_mut().enumerate() {
        let t0 = Instant::now();
        losses[m] = train(m, model);
        walls[m] = t0.elapsed().as_secs_f64();
    }
    Rep {
        losses,
        walls,
        wall: started.elapsed().as_secs_f64(),
    }
}

/// The untraced repetition: the library's training entry points.
fn untraced_rep(setup: &Setup, cfg: &TrainConfig) -> Rep {
    rep(setup, |m, model| {
        if m == 0 {
            train_classifier(model, &setup.ds, setup.indices(m), cfg)
        } else {
            train_regression(model, &setup.ds, setup.indices(m), cfg)
        }
    })
}

/// The traced replay of the trainer's epoch loop for one model (MSE on
/// every head for the regressors, BCE on logits for the classifier).
fn traced_epochs(
    model: &mut PredictionModel,
    ds: &Dataset,
    idxs: &[usize],
    cfg: &TrainConfig,
    bce: bool,
    forward_key: &'static str,
    ledger: &Ledger,
) -> Vec<f32> {
    /// Linear learning-rate warm-up length, as in the trainer.
    const WARMUP_EPOCHS: usize = 2;
    let head_names: Vec<String> = model.head_names().to_vec();
    let mut adam = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order = idxs.to_vec();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let warm = ((epoch + 1) as f32 / WARMUP_EPOCHS as f32).min(1.0);
        adam.set_learning_rate(cfg.lr * warm);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let batch = ledger.time("gnn.input.batch", || ds.batch(chunk));
            ledger.add("gnn.batch_nodes", batch.num_nodes() as u128);
            ledger.add("gnn.batch_edges", batch.src.len() as u128);
            ledger.add("gnn.forwards", 1);
            ledger.add("gnn.points", chunk.len() as u128);
            let mut out = ledger.time(forward_key, || model.forward(&batch));
            let mut total = None;
            for (h, name) in head_names.iter().enumerate() {
                let target = ledger.time("gnn.input.batch", || ds.targets(chunk, name));
                let head = out.outputs[h];
                let l = ledger.time("tensor.loss", || {
                    if bce {
                        out.graph.bce_logits_loss(head, target)
                    } else {
                        out.graph.mse_loss(head, target)
                    }
                });
                total = Some(match total {
                    None => l,
                    Some(t) => ledger.time("tensor.loss", || out.graph.add(t, l)),
                });
            }
            let total = total.expect("at least one head");
            epoch_loss += ledger.time("tensor.loss", || out.graph.value(total).scalar());
            batches += 1;

            let mut grads = ledger.time("tensor.clip", || model.store().zero_grads());
            ledger.time("tensor.backward", || out.graph.backward(total, &mut grads));
            ledger.time("tensor.clip", || grads.clip_global_norm(cfg.grad_clip));
            ledger.time("tensor.adam", || adam.step(model.store_mut(), &grads));
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
    }
    epoch_losses
}

fn traced_rep(setup: &Setup, cfg: &TrainConfig, ledger: &Ledger) -> Rep {
    rep(setup, |m, model| {
        traced_epochs(
            model,
            &setup.ds,
            setup.indices(m),
            cfg,
            m == 0,
            FORWARD_KEYS[m],
            ledger,
        )
    })
}

/// Epochs of `rep` whose loss is non-finite or differs (bitwise) from the
/// reference's.
fn wrong_epochs(rep: &Rep, reference: &Rep) -> u64 {
    rep.losses
        .iter()
        .zip(&reference.losses)
        .map(|(got, want)| {
            let mismatched = got
                .iter()
                .zip(want)
                .filter(|(a, b)| a.to_bits() != b.to_bits());
            let non_finite = got.iter().filter(|l| !l.is_finite()).count();
            (mismatched.count().max(non_finite) + want.len().abs_diff(got.len())) as u64
        })
        .sum()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let cfg = paper_train_config(EPOCHS);
    let setup = Setup::new(args.seed);
    println!(
        "train: {} samples ({} valid), {EPOCHS} epochs x {} models, batch {}, lr {}",
        setup.all.len(),
        setup.valid.len(),
        MODELS.len(),
        cfg.batch_size,
        cfg.lr
    );

    // One untimed repetition first: on a 2-core Xeon host the first one in
    // a process ran about a quarter slower than the rest. Set-up is timed
    // after it, because a set-up takes milliseconds and the first ones in a
    // process read up to twice as long as later ones.
    untraced_rep(&setup, &cfg);
    let setup_s = surrogate::repeated_setup(SETUPS, || Setup::new(args.seed), drop).1;
    let ledger = Ledger::default();
    let (reps, traced) = if args.trace {
        for kernel in hls_ir::kernels::training_kernels() {
            let space = design_space::DesignSpace::from_kernel(&kernel);
            ledger.time("proggraph.build", || {
                proggraph::build_graph_bidirectional(&kernel, &space)
            });
        }
        alternate(
            args.seconds,
            || untraced_rep(&setup, &cfg),
            || traced_rep(&setup, &cfg, &ledger),
        )
    } else {
        (
            repeat(args.seconds, || untraced_rep(&setup, &cfg)),
            Vec::new(),
        )
    };
    let reference = &reps[0];
    let per_rep = (EPOCHS * MODELS.len()) as u64;
    let mut attempted = per_rep * reps.len() as u64;
    let mut failed: u64 = reps.iter().map(|r| wrong_epochs(r, reference)).sum();
    // Per-model median wall across repetitions, so a burst of host noise
    // during one model's training does not move the figures; throughput
    // over their sum, epoch-time percentiles across the three models.
    let model_walls: Vec<f64> = (0..MODELS.len())
        .map(|m| median(&reps.iter().map(|r| r.walls[m]).collect::<Vec<_>>()))
        .collect();
    let rate = setup.sample_visits() as f64 / model_walls.iter().sum::<f64>();
    let epoch_us: Vec<f64> = model_walls
        .iter()
        .map(|w| w / EPOCHS as f64 * 1e6)
        .collect();
    let (p50, p99) = (percentile(&epoch_us, 50.0), percentile(&epoch_us, 99.0));
    for (m, name) in MODELS.iter().enumerate() {
        println!(
            "train {name}: epoch losses {:?}, {:.1} ms per epoch",
            reference.losses[m],
            epoch_us[m] / 1e3
        );
    }
    println!(
        "train repetition walls (s): {:.3?}",
        reps.iter().map(|r| r.wall).collect::<Vec<_>>()
    );
    println!(
        "train.samples_per_s {rate} 1/s ({} repetitions)",
        reps.len()
    );
    println!("train.final_loss {}", reference.final_loss());

    if !args.trace {
        return Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: crate::end_to_end(setup_s, rate, p50, p99),
        };
    }

    attempted += per_rep * traced.len() as u64;
    let traced_failed: u64 = traced.iter().map(|r| wrong_epochs(r, reference)).sum();
    failed += traced_failed;
    println!(
        "train traced: {} repetitions, per-epoch losses {} the untraced ones",
        traced.len(),
        if traced_failed == 0 {
            "bit-identical to"
        } else {
            "DIFFER from"
        }
    );

    let n = traced.len() as f64;
    let untraced_wall = median(&reps.iter().map(|r| r.wall * 1e6).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall * 1e6).collect::<Vec<_>>());
    let layers = [
        "gnn.input.batch",
        "gnn.forward.cls",
        "gnn.forward.reg",
        "gnn.forward.bram",
        "tensor.loss",
        "tensor.backward",
        "tensor.clip",
        "tensor.adam",
    ];
    let covered: f64 = layers.iter().map(|l| ledger.us(l)).sum::<f64>() / n;
    let mut metrics: Vec<Metric> = vec![metric(
        "proggraph.build_us",
        ledger.us("proggraph.build"),
        "us",
    )];
    metrics.extend(surrogate::forward_metrics(&ledger, n));
    metrics.extend([
        metric("tensor.loss_us", ledger.us("tensor.loss") / n, "us"),
        metric("tensor.backward_us", ledger.us("tensor.backward") / n, "us"),
        metric("tensor.clip_us", ledger.us("tensor.clip") / n, "us"),
        metric("tensor.adam_us", ledger.us("tensor.adam") / n, "us"),
        metric("coverage", ratio(covered, untraced_wall), "ratio"),
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
