//! The forward-only evaluator's weight access: one linear step for f32 and
//! int8 inference.
//!
//! Every layer has an `eval` method next to its tape `forward`. `eval`
//! reads the same [`ParamId`]s, writes plain [`Matrix`] buffers from
//! [`gdse_tensor::arena`], records nothing for backward, and produces the
//! same bits as `forward` for every output. It gets there by calling the
//! same kernels in the same order:
//!
//! - [`Weights::matmul`] and [`Weights::linear`] stand where `forward`
//!   calls `Graph::matmul` / `Graph::linear` on a parameter;
//! - nonlinear ops go through [`gdse_tensor::ops`], which the tape's op
//!   bodies also call;
//! - gathers, scatters and broadcasts are fused into loops that keep the
//!   tape's per-element operations and accumulation order.
//!
//! In f32 mode the evaluator also fuses products the tape runs separately
//! where that keeps every output column's float-op sequence (the
//! TransformerConv query/key/value/skip GEMM, the gate logits), and it skips
//! the zero entries of the one-hot input features
//! ([`Weights::matmul_sparse`]), which changes no bit.
//!
//! In int8 mode every weight that the [`QuantParamSet`] calibrated goes
//! through [`gdse_tensor::quant::linear`], one call per weight, with no
//! fusion and no zero-skip. That is the only thing quantization changes.

use gdse_tensor::gemm::{self, Activation};
use gdse_tensor::quant::{self, QuantMatrix};
use gdse_tensor::{Matrix, ParamId, ParamStore, QuantParamSet};

/// The weights an evaluation reads: the f32 store, optionally with int8
/// replacements for the calibrated weight matrices.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a> {
    store: &'a ParamStore,
    quant: Option<&'a QuantParamSet>,
}

impl<'a> Weights<'a> {
    /// Plain f32 weights.
    pub fn f32(store: &'a ParamStore) -> Self {
        Self { store, quant: None }
    }

    /// Int8 weights: every parameter in `quant` runs through the int8
    /// kernel, the rest (biases) stay f32.
    pub fn int8(store: &'a ParamStore, quant: &'a QuantParamSet) -> Self {
        Self {
            store,
            quant: Some(quant),
        }
    }

    /// Whether this is the f32 mode, where layers may fuse weight products.
    pub fn is_f32(&self) -> bool {
        self.quant.is_none()
    }

    /// The f32 value of a parameter.
    pub fn value(&self, id: ParamId) -> &'a Matrix {
        self.store.value(id)
    }

    fn quantized(&self, id: ParamId) -> Option<&'a QuantMatrix> {
        self.quant.and_then(|q| q.get(id))
    }

    /// `x * w`: the evaluator's `Graph::matmul` against a parameter.
    pub fn matmul(&self, x: &Matrix, w: ParamId) -> Matrix {
        match self.quantized(w) {
            Some(q) => quant::linear(x, q, None, Activation::None),
            None => gemm::gemm(x, self.value(w)),
        }
    }

    /// `x * w` for a mostly-zero `x` (the one-hot node and edge features):
    /// f32 mode skips the zero entries, which changes no bit of the result
    /// (see [`gemm::gemm_sparse_lhs`]); int8 mode is [`matmul`](Self::matmul).
    pub fn matmul_sparse(&self, x: &Matrix, w: ParamId) -> Matrix {
        match self.quantized(w) {
            Some(q) => quant::linear(x, q, None, Activation::None),
            None => gemm::gemm_sparse_lhs(x, self.value(w)),
        }
    }

    /// `act(x * w + b)`: the evaluator's `Graph::linear`.
    pub fn linear(&self, x: &Matrix, w: ParamId, b: ParamId, act: Activation) -> Matrix {
        let bias = Some(self.value(b).row(0));
        match self.quantized(w) {
            Some(q) => quant::linear(x, q, bias, act),
            None => gemm::gemm_bias_act(x, self.value(w), bias, act),
        }
    }

    /// Adds the `[1, F]` bias parameter `b` to every row of `x` in place
    /// (the tape's `add_bias`).
    pub fn add_bias(&self, x: &mut Matrix, b: ParamId) {
        let bias = self.value(b).row(0);
        for r in 0..x.rows() {
            for (v, bv) in x.row_mut(r).iter_mut().zip(bias) {
                *v += bv;
            }
        }
    }
}

/// Self-loop-extended edge lists (`src ++ 0..n`, `dst ++ 0..n`), as the GCN
/// and GAT layers build them.
pub(crate) fn with_self_loops(src: &[usize], dst: &[usize], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut s: Vec<usize> = Vec::with_capacity(src.len() + n);
    let mut d: Vec<usize> = Vec::with_capacity(dst.len() + n);
    s.extend_from_slice(src);
    d.extend_from_slice(dst);
    s.extend(0..n);
    d.extend(0..n);
    (s, d)
}

/// `out[seg[r]] += coeff[r] * rows[r]` over `r` in order, into a zeroed
/// `[n, rows.cols()]` buffer, where `rows[r]` is `x.row(gather[r])`: the
/// tape's gather → `mul_col_broadcast` → `scatter_add_rows` chain without
/// its two `[E, D]` intermediates.
pub(crate) fn gather_scale_scatter(
    x: &Matrix,
    gather: &[usize],
    coeff: &[f32],
    seg: &[usize],
    n: usize,
) -> Matrix {
    let mut out = gdse_tensor::arena::zeros(n, x.cols());
    for ((&s, &d), &c) in gather.iter().zip(seg).zip(coeff) {
        for (o, v) in out.row_mut(d).iter_mut().zip(x.row(s)) {
            *o += v * c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_tensor::{Init, QuantMatrix};

    #[test]
    fn int8_weights_dispatch_calibrated_params_to_the_quant_kernel() {
        let mut store = ParamStore::new(67);
        let w = store.add("w", 6, 4, Init::XavierUniform);
        let b = store.add("b", 1, 4, Init::Uniform(0.2));
        let plain = store.add("plain", 6, 2, Init::XavierUniform);
        let mut qs = QuantParamSet::new();
        qs.insert(w, QuantMatrix::quantize(store.value(w)));
        let x = Matrix::from_fn(3, 6, |i, j| ((i + j) as f32 * 0.21).cos());

        let before = gdse_obs::metrics::counter_value("tensor.quant_calls");
        let yq = Weights::int8(&store, &qs).linear(&x, w, b, Activation::Relu);
        assert_eq!(
            gdse_obs::metrics::counter_value("tensor.quant_calls"),
            before + 1
        );
        let yf = Weights::f32(&store).linear(&x, w, b, Activation::Relu);

        // Quantized output approximates the f32 output but is not (in
        // general) identical; with 8 bits over small Xavier weights the
        // relative drift stays small.
        let num: f32 = yq
            .as_slice()
            .iter()
            .zip(yf.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f32 = yf.as_slice().iter().map(|v| v * v).sum::<f32>().max(1e-12);
        assert!((num / den).sqrt() < 0.05, "rel rmse {}", (num / den).sqrt());

        // A parameter outside the set still runs in f32, bit for bit.
        let q = Weights::int8(&store, &qs).matmul(&x, plain);
        assert_eq!(q, Weights::f32(&store).matmul(&x, plain));
    }

    #[test]
    fn sparse_matmul_is_bit_identical_to_dense_on_one_hot_rows() {
        let mut store = ParamStore::new(5);
        let w = store.add("w", 9, 7, Init::XavierUniform);
        let x = Matrix::from_fn(11, 9, |i, j| match (i + 2 * j) % 5 {
            0 => 1.0,
            1 => -0.0,
            2 => 0.37 * i as f32,
            _ => 0.0,
        });
        let wts = Weights::f32(&store);
        let (sparse, dense) = (wts.matmul_sparse(&x, w), wts.matmul(&x, w));
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
