//! The tape-free evaluator (`PredictionModel::predict`) against the autodiff
//! tape (`PredictionModel::forward`): every head of every model kind must
//! produce the same bits on every paper kernel, at the small test config
//! for batch sizes 1, 3 and 17, and at the paper config on the two largest
//! graphs at batch 64.

use design_space::{DesignPoint, DesignSpace};
use gdse_gnn::{GraphBatch, GraphInput, ModelConfig, ModelKind, PredictionModel};
use proggraph::build_graph_bidirectional;
use proptest::prelude::*;

const HEADS: [&str; 4] = ["latency", "dsp", "lut", "ff"];

/// A model with seeded weights, every parameter scaled by `gain` and
/// jittered (so the zero-initialized biases are not zero): the cases cover
/// saturated attention, negative ELU inputs, large logits and every bias.
fn model(kind: ModelKind, config: ModelConfig, gain: f32) -> PredictionModel {
    let mut z = config.seed;
    let mut m = PredictionModel::new(kind, config, &HEADS);
    let ids: Vec<_> = m.store().ids().collect();
    for id in ids {
        for v in m.store_mut().value_mut(id).as_mut_slice() {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2;
            *v = *v * gain + jitter;
        }
    }
    m
}

/// Lowers `n` design points of `kernel`, starting at `offset` in its space.
fn batch(kernel: &hls_ir::Kernel, n: usize, offset: u128) -> GraphBatch {
    let space = DesignSpace::from_kernel(kernel);
    let graph = build_graph_bidirectional(kernel, &space);
    let points: Vec<DesignPoint> = (0..n as u128)
        .map(|i| space.point_at((offset + i * 7919) % space.size()))
        .collect();
    let inputs: Vec<GraphInput> = points
        .iter()
        .map(|p| GraphInput::from_graph(&graph, Some(p)))
        .collect();
    let items: Vec<(&GraphInput, &DesignPoint)> = inputs.iter().zip(&points).collect();
    GraphBatch::new(&items)
}

fn assert_bitwise(model: &PredictionModel, batch: &GraphBatch, what: &str) {
    let tape = model.forward(batch);
    let eval = model.predict(batch);
    assert_eq!(eval.len(), tape.outputs.len(), "{what}: head count");
    for ((head, got), &want) in HEADS.iter().zip(&eval).zip(&tape.outputs) {
        let want = tape.graph.value(want);
        assert_eq!(got.shape(), (batch.num_graphs, 1), "{what} {head}: shape");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what} {head} sample {i}: eval {g} vs tape {w}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn evaluator_matches_the_tape_on_every_kind_and_kernel(
        seed in 0u64..1_000_000,
        gain in 0.5f32..2.5,
        offset in 0u64..1_000_000,
    ) {
        for kind in ModelKind::ALL {
            let m = model(kind, ModelConfig::small().with_seed(seed), gain);
            for kernel in hls_ir::kernels::all_kernels() {
                for n in [1, 3, 17] {
                    let what = format!("{kind:?} {} batch {n}", kernel.name());
                    assert_bitwise(&m, &batch(&kernel, n, u128::from(offset)), &what);
                }
            }
        }
    }
}

#[test]
fn evaluator_matches_the_tape_at_the_paper_config() {
    for name in ["gemm-ncubed", "2mm"] {
        let kernel = hls_ir::kernels::kernel_by_name(name).expect("paper kernel");
        let b = batch(&kernel, 64, 11);
        for kind in [ModelKind::Transformer, ModelKind::Full] {
            let m = model(kind, ModelConfig::paper(), 1.0);
            assert_bitwise(&m, &b, &format!("paper {kind:?} {}", kernel.name()));
        }
    }
}
