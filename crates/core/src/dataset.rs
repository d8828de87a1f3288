//! Dataset construction and target pre-processing (§5.2.1).
//!
//! Utilizations are already fractions of the available resources; the
//! latency is transformed with eq. 11,
//! `T_latency = log2(NormalizationFactor / latency)`, so low-latency
//! (high-performance) designs map to *large* targets and dominate the loss.
//! BRAM correlates weakly with the other objectives, so it is predicted by
//! a separate model.

use crate::db::Database;
use design_space::{DesignPoint, DesignSpace};
use gdse_gnn::{GraphBatch, GraphInput};
use gdse_tensor::Matrix;
use hls_ir::Kernel;
use proggraph::{build_graph_bidirectional, ProgramGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Regression target names of the main model, in head order.
pub const MAIN_TARGETS: [&str; 4] = ["latency", "dsp", "lut", "ff"];
/// Target of the separate BRAM model.
pub const BRAM_TARGET: [&str; 1] = ["bram"];
/// Head of the validity classifier.
pub const CLASS_TARGET: [&str; 1] = ["valid"];

/// The latency normalization of eq. 11.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    norm_factor: f64,
}

impl Normalizer {
    /// Builds a normalizer whose factor is the largest valid latency of the
    /// database (so the slowest design maps to `T = 0`).
    pub fn from_database(db: &Database) -> Self {
        let max = db.latency_range().map(|(_, hi)| hi).unwrap_or(1).max(1);
        Self { norm_factor: max as f64 }
    }

    /// A normalizer with an explicit factor.
    pub fn with_factor(norm_factor: f64) -> Self {
        Self { norm_factor }
    }

    /// The normalization factor.
    pub fn factor(&self) -> f64 {
        self.norm_factor
    }

    /// `T_latency = log2(factor / latency)` (eq. 11).
    pub fn transform(&self, cycles: u64) -> f64 {
        (self.norm_factor / cycles.max(1) as f64).log2()
    }

    /// Inverse of [`Normalizer::transform`].
    ///
    /// A non-finite `t` (NaN, +inf or -inf) carries no latency information
    /// and decodes to `u64::MAX` cycles, the worst possible design, never
    /// to a plausible value. Finite `t` decodes to at least 1 cycle.
    pub fn inverse(&self, t: f64) -> u64 {
        if !t.is_finite() {
            return u64::MAX;
        }
        (self.norm_factor / 2f64.powf(t)).round().max(1.0) as u64
    }
}

/// One training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Kernel name.
    pub kernel: String,
    /// Design configuration.
    pub point: DesignPoint,
    /// Synthesized successfully.
    pub valid: bool,
    /// `[T_latency, dsp, lut, ff]` (meaningful only when valid).
    pub main_targets: [f32; 4],
    /// BRAM utilization (meaningful only when valid).
    pub bram: f32,
}

/// A dataset: samples plus the per-kernel program graphs they lower onto.
#[derive(Debug, Clone)]
pub struct Dataset {
    graphs: HashMap<String, ProgramGraph>,
    samples: Vec<Sample>,
    normalizer: Normalizer,
}

impl Dataset {
    /// Builds a dataset from a database and the kernels it references,
    /// deriving the latency normalizer from the database itself.
    ///
    /// # Panics
    ///
    /// Panics if the database references a kernel not in `kernels`.
    pub fn from_database(db: &Database, kernels: &[Kernel]) -> Self {
        Self::from_database_with_normalizer(db, kernels, Normalizer::from_database(db))
    }

    /// Builds a dataset with an explicit latency normalizer — required when
    /// fine-tuning an existing model, whose targets must stay on the scale
    /// it was originally trained with.
    ///
    /// # Panics
    ///
    /// Panics if the database references a kernel not in `kernels`.
    pub fn from_database_with_normalizer(
        db: &Database,
        kernels: &[Kernel],
        normalizer: Normalizer,
    ) -> Self {
        let mut graphs = HashMap::new();
        for k in kernels {
            let space = DesignSpace::from_kernel(k);
            graphs.insert(k.name().to_string(), build_graph_bidirectional(k, &space));
        }
        let samples = db
            .entries()
            .iter()
            .map(|e| {
                assert!(graphs.contains_key(&e.kernel), "unknown kernel {}", e.kernel);
                Sample {
                    kernel: e.kernel.clone(),
                    point: e.point.clone(),
                    valid: e.result.is_valid(),
                    main_targets: [
                        normalizer.transform(e.result.cycles) as f32,
                        e.result.util.dsp as f32,
                        e.result.util.lut as f32,
                        e.result.util.ff as f32,
                    ],
                    bram: e.result.util.bram as f32,
                }
            })
            .collect();
        Self { graphs, samples, normalizer }
    }

    /// The latency normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Indices of valid samples (regression trains only on these).
    pub fn valid_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.samples[i].valid).collect()
    }

    /// The program graph of a kernel.
    pub fn graph(&self, kernel: &str) -> &ProgramGraph {
        &self.graphs[kernel]
    }

    /// Lowers the given samples into one batch.
    pub fn batch(&self, idxs: &[usize]) -> GraphBatch {
        let inputs: Vec<(GraphInput, &DesignPoint)> = idxs
            .iter()
            .map(|&i| {
                let s = &self.samples[i];
                (GraphInput::from_graph(&self.graphs[&s.kernel], Some(&s.point)), &s.point)
            })
            .collect();
        let refs: Vec<(&GraphInput, &DesignPoint)> =
            inputs.iter().map(|(gi, p)| (gi, *p)).collect();
        GraphBatch::new(&refs)
    }

    /// Target column `[B, 1]` for one head name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown head name.
    pub fn targets(&self, idxs: &[usize], head: &str) -> Matrix {
        let col: Vec<f32> = idxs
            .iter()
            .map(|&i| {
                let s = &self.samples[i];
                match head {
                    "latency" => s.main_targets[0],
                    "dsp" => s.main_targets[1],
                    "lut" => s.main_targets[2],
                    "ff" => s.main_targets[3],
                    "bram" => s.bram,
                    "valid" => {
                        if s.valid {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    other => panic!("unknown target head `{other}`"),
                }
            })
            .collect();
        Matrix::col_vector(&col)
    }

    /// Deterministic shuffled train/test split (§5.1: 80/20).
    pub fn split(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        split_indices(self.len(), train_frac, seed)
    }

    /// Deterministic k-fold cross-validation splits (§5.1: 3-fold).
    pub fn kfold(&self, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
        assert!(k >= 2, "k-fold needs k >= 2");
        let mut idxs: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idxs.shuffle(&mut rng);
        let fold_size = self.len().div_ceil(k);
        (0..k)
            .map(|f| {
                let lo = f * fold_size;
                let hi = ((f + 1) * fold_size).min(self.len());
                let test: Vec<usize> = idxs[lo..hi].to_vec();
                let train: Vec<usize> =
                    idxs[..lo].iter().chain(&idxs[hi..]).copied().collect();
                (train, test)
            })
            .collect()
    }
}

/// Shuffled index split shared by dataset and tests.
pub fn split_indices(n: usize, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut idxs: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idxs.shuffle(&mut rng);
    let cut = ((n as f64) * train_frac).round() as usize;
    let (train, test) = idxs.split_at(cut.min(n));
    (train.to_vec(), test.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use hls_ir::kernels;

    fn tiny_dataset() -> Dataset {
        let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
        let db = generate_database(&ks, &[], 30, 11);
        Dataset::from_database(&db, &ks)
    }

    #[test]
    fn normalizer_round_trip() {
        let n = Normalizer::with_factor(1_000_000.0);
        for cycles in [660u64, 12_345, 999_999] {
            let t = n.transform(cycles);
            let back = n.inverse(t);
            let err = (back as i64 - cycles as i64).unsigned_abs();
            assert!(err <= 1, "{cycles} -> {t} -> {back}");
        }
    }

    #[test]
    fn non_finite_inverse_is_the_worst_design() {
        let n = Normalizer::with_factor(1e6);
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(n.inverse(t), u64::MAX, "t = {t}");
        }
        // Finite extremes keep their saturating decode.
        assert_eq!(n.inverse(f64::MAX), 1);
        assert_eq!(n.inverse(-f64::MAX), u64::MAX);
    }

    #[test]
    fn slowest_valid_design_maps_to_zero() {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 25, 3);
        let norm = Normalizer::from_database(&db);
        let (_, hi) = db.latency_range().unwrap();
        assert!(norm.transform(hi).abs() < 1e-9);
        // Faster designs get larger targets.
        let (lo, _) = db.latency_range().unwrap();
        assert!(norm.transform(lo) >= 0.0);
    }

    #[test]
    fn dataset_targets_align_with_samples() {
        let ds = tiny_dataset();
        assert!(!ds.is_empty());
        let idxs: Vec<usize> = (0..ds.len().min(5)).collect();
        let lat = ds.targets(&idxs, "latency");
        assert_eq!(lat.shape(), (idxs.len(), 1));
        let valid = ds.targets(&idxs, "valid");
        for (row, &i) in idxs.iter().enumerate() {
            assert_eq!(valid.get(row, 0) == 1.0, ds.samples()[i].valid);
        }
    }

    #[test]
    fn batch_covers_requested_samples() {
        let ds = tiny_dataset();
        let idxs = vec![0, ds.len() - 1];
        let batch = ds.batch(&idxs);
        assert_eq!(batch.num_graphs, 2);
        assert_eq!(batch.pragma_x.rows(), 2);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.8, 42);
        assert_eq!(train.len() + test.len(), ds.len());
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ds.len());
    }

    #[test]
    fn kfold_partitions_test_sets() {
        let ds = tiny_dataset();
        let folds = ds.kfold(3, 7);
        assert_eq!(folds.len(), 3);
        let mut seen: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ds.len(), "every sample appears in exactly one test fold");
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), ds.len());
        }
    }

    #[test]
    #[should_panic(expected = "unknown target head")]
    fn unknown_head_panics() {
        let ds = tiny_dataset();
        let _ = ds.targets(&[0], "nope");
    }
}
