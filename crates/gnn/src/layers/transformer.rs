//! TransformerConv layer (eq. 8 of the paper; Shi et al. 2021) with edge
//! embeddings and a gated residual connection.

use crate::eval::Weights;
use gdse_tensor::{arena, gemm, ops, Graph, Init, Matrix, NodeId, ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Edges (attention logits) and nodes (gate logits) whose independent sums
/// the evaluator interleaves.
const LANES: usize = 8;

/// `L` gate logits `[aggr || root || aggr - root] * W_g`, each summed over
/// the `3 D` inputs in order from `+0.0` exactly as the GEMM sums that
/// product.
fn gate_logits<const L: usize>(aggr: [&[f32]; L], root: [&[f32]; L], wg: &[f32]) -> [f32; L] {
    let d = aggr[0].len();
    assert!(aggr.iter().chain(&root).all(|r| r.len() == d) && wg.len() == 3 * d);
    let mut acc = [0.0f32; L];
    for c in 0..d {
        for l in 0..L {
            acc[l] += aggr[l][c] * wg[c];
        }
    }
    for c in 0..d {
        for l in 0..L {
            acc[l] += root[l][c] * wg[d + c];
        }
    }
    for c in 0..d {
        for l in 0..L {
            acc[l] += (aggr[l][c] - root[l][c]) * wg[2 * d + c];
        }
    }
    acc
}

/// Transformer-style graph convolution:
///
/// `alpha_ij = softmax((W1 h_i)^T (W2 h_j + W3 e_ij) / sqrt(D))`
///
/// with messages `W2 h_j + W3 e_ij` aggregated by attention, and a gated
/// residual `out = beta * (W_r h_i) + (1 - beta) * aggregated` where
/// `beta = sigmoid(W_g [aggr || root || aggr - root])` — the mechanism the
/// paper credits with preventing over-smoothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerConv {
    w_query: ParamId,
    w_key: ParamId,
    w_value: ParamId,
    w_edge: ParamId,
    w_root: ParamId,
    w_gate: ParamId,
    b: ParamId,
    out_dim: usize,
}

impl TransformerConv {
    /// Registers a TransformerConv layer mapping `in_dim -> out_dim` with
    /// `edge_dim`-dimensional edge features.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        edge_dim: usize,
    ) -> Self {
        Self {
            w_query: store.add(format!("{name}.lin_query"), in_dim, out_dim, Init::XavierUniform),
            w_key: store.add(format!("{name}.lin_key"), in_dim, out_dim, Init::XavierUniform),
            w_value: store.add(format!("{name}.lin_value"), in_dim, out_dim, Init::XavierUniform),
            w_edge: store.add(format!("{name}.lin_edge"), edge_dim, out_dim, Init::XavierUniform),
            w_root: store.add(format!("{name}.lin_skip"), in_dim, out_dim, Init::XavierUniform),
            w_gate: store.add(format!("{name}.lin_beta"), 3 * out_dim, 1, Init::XavierUniform),
            b: store.add(format!("{name}.bias"), 1, out_dim, Init::Zeros),
            out_dim,
        }
    }

    /// Forward pass with edge attributes (activation applied by the caller).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        edge_attr: NodeId,
        src: &[usize],
        dst: &[usize],
    ) -> NodeId {
        let n = g.value(x).rows();
        let wq = g.param(store, self.w_query);
        let wk = g.param(store, self.w_key);
        let wv = g.param(store, self.w_value);
        let we = g.param(store, self.w_edge);
        let wr = g.param(store, self.w_root);

        let q = g.matmul(x, wq); // [N, D]
        let k = g.matmul(x, wk); // [N, D]
        let v = g.matmul(x, wv); // [N, D]
        let e = g.matmul(edge_attr, we); // [E, D]

        let q_e = g.gather_rows(q, dst); // query of the receiving node
        let k_src = g.gather_rows(k, src);
        let k_e = g.add(k_src, e); // W2 h_j + W3 e_ij

        let dots = g.row_dot(q_e, k_e); // [E, 1]
        let scaled = g.scale(dots, 1.0 / (self.out_dim as f32).sqrt());
        let alpha = g.segment_softmax(scaled, dst);

        let v_src = g.gather_rows(v, src);
        let msg = g.add(v_src, e); // value also carries the edge embedding
        let weighted = g.mul_col_broadcast(msg, alpha);
        let aggr = g.scatter_add_rows(weighted, dst, n);

        // Gated residual.
        let root = g.matmul(x, wr);
        let diff = g.sub(aggr, root);
        let gate_in = g.concat_cols(&[aggr, root, diff]);
        let wg = g.param(store, self.w_gate);
        let beta_logit = g.matmul(gate_in, wg); // [N, 1]
        let beta = g.sigmoid(beta_logit);
        let gated_root = g.mul_col_broadcast(root, beta);
        let ones = g.input(Matrix::filled(n, 1, 1.0));
        let inv_beta = g.sub(ones, beta);
        let gated_aggr = g.mul_col_broadcast(aggr, inv_beta);
        let out = g.add(gated_root, gated_aggr);
        let bv = g.param(store, self.b);
        g.add_bias(out, bv)
    }

    /// Forward-only [`forward`](Self::forward), bit-identical to it.
    ///
    /// In f32 mode the four node projections run as one `x * [W_query |
    /// W_key | W_value | W_skip]` GEMM (each output column keeps its own
    /// full-`k`, increasing-order sum), and `sparse_x` marks `x` as the
    /// one-hot input features whose zero entries the product may skip. Each
    /// edge then computes `dot(q[dst], k[src] + e)` and accumulates
    /// `alpha * (v[src] + e)` straight from those rows, and each node's
    /// gate `beta = sigmoid(W_g [aggr || root || aggr - root])` is summed
    /// in registers.
    pub fn eval(
        &self,
        w: &Weights,
        x: &Matrix,
        sparse_x: bool,
        edge_attr: &Matrix,
        src: &[usize],
        dst: &[usize],
    ) -> Matrix {
        let (n, d) = (x.rows(), self.out_dim);
        // Row layout of `proj`: [query | key | value | root], `d` each.
        let proj = if w.is_f32() {
            let ids = [self.w_query, self.w_key, self.w_value, self.w_root];
            let wide = Matrix::hcat(&ids.map(|id| w.value(id)));
            let proj = if sparse_x {
                gemm::gemm_sparse_lhs(x, &wide)
            } else {
                gemm::gemm(x, &wide)
            };
            arena::recycle(wide);
            proj
        } else {
            let parts = [self.w_query, self.w_key, self.w_value, self.w_root]
                .map(|id| w.matmul(x, id));
            let proj = Matrix::hcat(&parts.each_ref());
            parts.into_iter().for_each(arena::recycle);
            proj
        };
        let e = w.matmul_sparse(edge_attr, self.w_edge); // [E, D]

        // Attention logits `dot(q[dst], k[src] + e) / sqrt(D)`, LANES edges
        // at a time, normalized per destination.
        let scale = 1.0 / (d as f32).sqrt();
        let mut keys = vec![0.0f32; LANES * d];
        let mut logits = arena::zeros(src.len(), 1);
        for (c, (srcs, dsts)) in src.chunks(LANES).zip(dst.chunks(LANES)).enumerate() {
            for (r, (key, &s)) in keys.chunks_exact_mut(d).zip(srcs).enumerate() {
                let k = proj.row(s)[d..2 * d].iter().zip(e.row(c * LANES + r));
                for (kv, (&k, &ev)) in key.iter_mut().zip(k) {
                    *kv = k + ev;
                }
            }
            let q = |l: usize| &proj.row(dsts[l])[..d];
            let key = |l: usize| &keys[l * d..(l + 1) * d];
            let out = &mut logits.as_mut_slice()[c * LANES..c * LANES + srcs.len()];
            if srcs.len() == LANES {
                let dots = ops::dots::<LANES>(std::array::from_fn(q), std::array::from_fn(key));
                for (o, v) in out.iter_mut().zip(dots) {
                    *o = v * scale;
                }
            } else {
                for (l, o) in out.iter_mut().enumerate() {
                    *o = ops::dot(q(l), key(l)) * scale;
                }
            }
        }
        let alpha = ops::segment_softmax(&logits, dst);
        arena::recycle(logits);

        // Attention-weighted messages `v[src] + e`, summed per destination.
        let mut aggr = arena::zeros(n, d);
        for (r, (&s, &t)) in src.iter().zip(dst).enumerate() {
            let a = alpha.get(r, 0);
            let msg = proj.row(s)[2 * d..3 * d].iter().zip(e.row(r));
            for (o, (&v, &ev)) in aggr.row_mut(t).iter_mut().zip(msg) {
                *o += (v + ev) * a;
            }
        }
        arena::recycle(alpha);
        arena::recycle(e);

        // Gate logits: in registers for f32, through the int8 kernel on the
        // materialized `[aggr || root || aggr - root]` otherwise.
        let quant_gate = (!w.is_f32()).then(|| {
            let mut gate_in = arena::zeros(n, 3 * d);
            for i in 0..n {
                let (ag, root) = (aggr.row(i), &proj.row(i)[3 * d..]);
                let row = gate_in.row_mut(i);
                row[..d].copy_from_slice(ag);
                row[d..2 * d].copy_from_slice(root);
                for ((o, &a), &rt) in row[2 * d..].iter_mut().zip(ag).zip(root) {
                    *o = a - rt;
                }
            }
            let logits = w.matmul(&gate_in, self.w_gate);
            arena::recycle(gate_in);
            logits
        });
        let wg = w.value(self.w_gate).as_slice();
        let bias = w.value(self.b).row(0);
        let mut out = arena::zeros(n, d);
        let mut logits = [0.0f32; LANES];
        for i0 in (0..n).step_by(LANES) {
            let lanes = LANES.min(n - i0);
            let ag = |l: usize| aggr.row(i0 + l);
            let root = |l: usize| &proj.row(i0 + l)[3 * d..];
            match &quant_gate {
                Some(q) => logits[..lanes].copy_from_slice(&q.as_slice()[i0..i0 + lanes]),
                None if lanes == LANES => {
                    logits =
                        gate_logits::<LANES>(std::array::from_fn(ag), std::array::from_fn(root), wg);
                }
                None => {
                    for (l, logit) in logits[..lanes].iter_mut().enumerate() {
                        *logit = gate_logits([ag(l)], [root(l)], wg)[0];
                    }
                }
            }
            for (l, &logit) in logits[..lanes].iter().enumerate() {
                let beta = ops::stable_sigmoid(logit);
                let inv_beta = 1.0 - beta;
                let (ag, root) = (ag(l), root(l));
                for (c, o) in out.row_mut(i0 + l).iter_mut().enumerate() {
                    *o = root[c] * beta + ag[c] * inv_beta + bias[c];
                }
            }
        }
        if let Some(l) = quant_gate {
            arena::recycle(l);
        }
        arena::recycle(aggr);
        arena::recycle(proj);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_forward(edge_val: f32, store_seed: u64) -> Vec<f32> {
        let mut store = ParamStore::new(store_seed);
        let conv = TransformerConv::new(&mut store, "t0", 4, 8, 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(3, 4, |i, j| ((i + 2 * j) % 3) as f32 * 0.4));
        let e = g.input(Matrix::from_fn(2, 3, |_, j| edge_val * (j as f32 + 1.0)));
        let y = conv.forward(&mut g, &store, x, e, &[0, 1], &[2, 2]);
        g.value(y).row(2).to_vec()
    }

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new(7);
        let conv = TransformerConv::new(&mut store, "t0", 4, 8, 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(5, 4, |i, j| (i * j) as f32 * 0.1));
        let e = g.input(Matrix::zeros(4, 3));
        let y = conv.forward(&mut g, &store, x, e, &[0, 1, 2, 3], &[1, 2, 3, 4]);
        assert_eq!(g.value(y).shape(), (5, 8));
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn edge_features_influence_output() {
        // Unlike GCN/GAT, edge embeddings must matter (the paper's reason
        // for choosing TransformerConv).
        assert_ne!(toy_forward(0.0, 7), toy_forward(2.0, 7));
    }

    #[test]
    fn nodes_without_incoming_edges_keep_root_path() {
        let mut store = ParamStore::new(8);
        let conv = TransformerConv::new(&mut store, "t0", 2, 4, 2);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, -1.0], &[0.3, 0.7]]));
        let e = g.input(Matrix::from_rows(&[&[1.0, 0.0]]));
        // Only node 1 receives a message; node 0 must still produce output
        // through the gated residual (root) path.
        let y = conv.forward(&mut g, &store, x, e, &[0], &[1]);
        assert!(g.value(y).row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut store = ParamStore::new(9);
        let conv = TransformerConv::new(&mut store, "t0", 3, 4, 2);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(4, 3, |i, j| (i as f32 * 0.3) - (j as f32 * 0.2)));
        let e = g.input(Matrix::from_fn(4, 2, |i, _| i as f32 * 0.5));
        // Destinations with several in-edges, so the attention softmax is
        // non-degenerate and the query weights receive gradient.
        let y = conv.forward(&mut g, &store, x, e, &[0, 1, 2, 0], &[3, 3, 3, 2]);
        let s = g.sum_rows(y);
        let loss = g.mse_loss(s, Matrix::filled(1, 4, 1.0));
        let mut grads = store.zero_grads();
        g.backward(loss, &mut grads);
        for id in store.ids() {
            assert!(
                grads.grad(id).frobenius_norm() > 0.0,
                "no gradient for {}",
                store.name(id)
            );
        }
    }
}
