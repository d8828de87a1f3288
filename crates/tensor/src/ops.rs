//! Forward kernels shared by the autodiff tape and the forward-only
//! evaluator.
//!
//! Each function here is the one definition of an op's forward float
//! arithmetic. The [`crate::Graph`] op bodies call them to compute node
//! values, and inference code that runs without a tape (the GNN evaluator)
//! calls the same functions, so the two paths cannot drift apart: every
//! value is produced by the same sequence of `f32` operations.

use crate::arena;
use crate::matrix::Matrix;

/// Exponential linear unit: `x` for `x > 0`, else `alpha * (e^x - 1)`.
#[inline]
pub fn elu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * (x.exp() - 1.0)
    }
}

/// Leaky ReLU: `x` for `x > 0`, else `slope * x`.
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// Logistic sigmoid, evaluated without overflow for large `|x|`.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Dot product of two equal-length slices: the products summed in index
/// order, starting from `-0.0` (the identity of `Iterator::sum`).
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dots([a], [b])[0]
}

/// `L` independent [`dot`]s computed together. Each result has exactly
/// `dot`'s operation sequence; interleaving the `L` sums only lets their
/// additions overlap in the pipeline.
///
/// # Panics
///
/// Panics if any slice length differs from `a[0].len()`.
#[inline]
pub fn dots<const L: usize>(a: [&[f32]; L], b: [&[f32]; L]) -> [f32; L] {
    let n = a[0].len();
    assert!(
        a.iter().chain(&b).all(|s| s.len() == n),
        "dot length mismatch"
    );
    let mut acc = [-0.0f32; L];
    for i in 0..n {
        for l in 0..L {
            acc[l] += a[l][i] * b[l][i];
        }
    }
    acc
}

/// Row-wise layer normalization in place: each row of `m` is shifted to zero
/// mean and scaled to unit variance (`eps` keeps constant rows finite).
/// Returns every row's inverse standard deviation.
///
/// Per row: `mean = sum(x) / d`, `var = sum((x - mean)^2) / d` (sums in
/// index order from `-0.0`), `istd = 1 / sqrt(var + eps)`, then
/// `x = (x - mean) * istd`. Rows are processed in interleaved groups, which
/// changes no row's operation sequence.
pub fn layer_norm_rows(m: &mut Matrix, eps: f32) -> Vec<f32> {
    const L: usize = 8;
    let cols = m.cols();
    if cols == 0 {
        return (0..m.rows())
            .map(|_| layer_norm_group([&mut [][..]], eps)[0])
            .collect();
    }
    let mut inv_std = Vec::with_capacity(m.rows());
    let mut groups = m.as_mut_slice().chunks_exact_mut(L * cols);
    for group in &mut groups {
        let mut rows = group.chunks_exact_mut(cols);
        let rows: [&mut [f32]; L] = std::array::from_fn(|_| rows.next().expect("L rows"));
        inv_std.extend(layer_norm_group(rows, eps));
    }
    for row in groups.into_remainder().chunks_exact_mut(cols) {
        inv_std.extend(layer_norm_group([row], eps));
    }
    inv_std
}

// The index loops walk `L` rows in lockstep, which is the point.
#[allow(clippy::needless_range_loop)]
#[inline]
fn layer_norm_group<const L: usize>(mut rows: [&mut [f32]; L], eps: f32) -> [f32; L] {
    let n = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == n));
    let d = n as f32;
    let mut mean = [-0.0f32; L];
    for i in 0..n {
        for l in 0..L {
            mean[l] += rows[l][i];
        }
    }
    let mean = mean.map(|s| s / d);
    let mut var = [-0.0f32; L];
    for i in 0..n {
        for l in 0..L {
            let x = rows[l][i];
            var[l] += (x - mean[l]) * (x - mean[l]);
        }
    }
    let istd = var.map(|v| 1.0 / (v / d + eps).sqrt());
    for (l, row) in rows.iter_mut().enumerate() {
        for x in row.iter_mut() {
            *x = (*x - mean[l]) * istd[l];
        }
    }
    istd
}

/// Scatter-add of rows: `out[idx[r]] += a[r]`, accumulated in `r` order into
/// a zeroed `rows x a.cols()` output.
///
/// # Panics
///
/// Panics if `idx.len() != a.rows()` or any index is `>= rows`.
pub fn scatter_add_rows(a: &Matrix, idx: &[usize], rows: usize) -> Matrix {
    assert_eq!(
        idx.len(),
        a.rows(),
        "scatter_add_rows: one index per input row"
    );
    let mut out = arena::zeros(rows, a.cols());
    for (r, &i) in idx.iter().enumerate() {
        assert!(i < rows, "scatter_add_rows: index {i} out of {rows} rows");
        for (o, x) in out.row_mut(i).iter_mut().zip(a.row(r)) {
            *o += x;
        }
    }
    out
}

/// Column-wise softmax within row segments: rows sharing `seg[r]` form one
/// softmax group per column.
///
/// Per segment and column: the maximum is found with strict `>` from
/// `-inf`, the shifted exponentials are summed in row order from `0.0`, and
/// each exponential is divided by that sum.
///
/// # Panics
///
/// Panics if `seg.len() != a.rows()`.
pub fn segment_softmax(a: &Matrix, seg: &[usize]) -> Matrix {
    assert_eq!(seg.len(), a.rows(), "segment_softmax: one segment per row");
    let num_seg = seg.iter().copied().max().map_or(0, |m| m + 1);
    let cols = a.cols();
    // Per-segment, per-column max for numerical stability.
    let mut seg_max = vec![f32::NEG_INFINITY; num_seg * cols];
    for (r, &s) in seg.iter().enumerate() {
        let maxes = &mut seg_max[s * cols..(s + 1) * cols];
        for (m, &v) in maxes.iter_mut().zip(a.row(r)) {
            if v > *m {
                *m = v;
            }
        }
    }
    let mut out = arena::zeros(a.rows(), cols);
    let mut seg_sum = vec![0.0f32; num_seg * cols];
    for (r, &s) in seg.iter().enumerate() {
        let (maxes, sums) = (
            &seg_max[s * cols..(s + 1) * cols],
            &mut seg_sum[s * cols..(s + 1) * cols],
        );
        for (c, (o, &v)) in out.row_mut(r).iter_mut().zip(a.row(r)).enumerate() {
            let e = (v - maxes[c]).exp();
            *o = e;
            sums[c] += e;
        }
    }
    for (r, &s) in seg.iter().enumerate() {
        let sums = &seg_sum[s * cols..(s + 1) * cols];
        for (o, &denom) in out.row_mut(r).iter_mut().zip(sums) {
            *o /= denom;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_softmax_normalizes_each_segment_and_column() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 5.0], &[0.5, -1.0], &[3.0, 2.0]]);
        let y = segment_softmax(&a, &[0, 1, 0, 1]);
        for c in 0..2 {
            assert!((y.get(0, c) + y.get(2, c) - 1.0).abs() < 1e-6);
            assert!((y.get(1, c) + y.get(3, c) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_norm_rows_return_inverse_std_per_row() {
        let mut m = Matrix::from_fn(11, 2, |i, j| (i + 2 * j) as f32);
        let istd = layer_norm_rows(&mut m, 0.0);
        assert_eq!(istd, vec![1.0; 11]);
        for r in 0..11 {
            assert_eq!(m.row(r), &[-1.0, 1.0]);
        }
    }

    #[test]
    fn interleaved_dots_match_single_dots_bitwise() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        let single: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let [x, y] = dots([&a, &b], [&b, &a]);
        assert_eq!(x.to_bits(), single.to_bits());
        assert_eq!(y.to_bits(), single.to_bits());
        assert!(
            dot(&[-0.0], &[1.0]).is_sign_negative(),
            "sum starts at -0.0"
        );
    }

    #[test]
    fn scatter_add_accumulates_in_order() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let y = scatter_add_rows(&a, &[1, 0, 1], 2);
        assert_eq!(y, Matrix::from_rows(&[&[2.0], &[5.0]]));
    }

    #[test]
    fn sigmoid_is_symmetric_and_finite_at_extremes() {
        assert_eq!(stable_sigmoid(0.0), 0.5);
        assert!((stable_sigmoid(3.0) + stable_sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert_eq!(stable_sigmoid(-1000.0), 0.0);
        assert_eq!(stable_sigmoid(1000.0), 1.0);
    }
}
