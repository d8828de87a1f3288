//! Cache-blocked, autovectorization-friendly dense GEMM.
//!
//! This is the single dense kernel behind [`Matrix::matmul`] and the fused
//! [`crate::Graph::linear`] op. It replaces the branchy i-k-j triple loop
//! (kept as [`Matrix::matmul_reference`] for parity tests and benchmarks)
//! with the classic pack-and-tile scheme:
//!
//! - `B` is packed into `NR`-column-wide, k-major panels so the microkernel
//!   reads one contiguous `NR`-float row per `k` step (tail panels are
//!   zero-padded; the padded lanes are computed and discarded).
//! - The microkernel holds an `MR x NR` block of `C` in register
//!   accumulators, broadcasting `a[i][k]` against the panel row. There is no
//!   per-element zero test, so the inner loop is straight-line multiply-add
//!   code the compiler can vectorize.
//! - Row tails run a 1 x `NR` variant; small or skinny products fall back to
//!   a scalar i-k-j loop, which [`gemm_sparse_lhs`] also uses to skip the
//!   zeros of one-hot inputs.
//! - The bias + activation epilogue is a separate pass over the finished
//!   output, so every caller shares one accumulation loop.
//!
//! **Bit-identity contract:** every output element is accumulated over the
//! full `k` extent in increasing-`k` order with individual `f32` adds — the
//! exact float-op sequence of the reference kernel — so results are
//! bit-identical to the pre-blocking implementation for finite inputs (the
//! reference kernel's `a[i][k] == 0.0` skip only changes results when a zero
//! meets a non-finite `b` entry, which finite-weight models never produce).
//! There is deliberately no k-splitting of the accumulation and no FMA
//! contraction. The bias+activation epilogue applies after the full sum,
//! matching the unfused `matmul -> add_bias -> relu` chain exactly.
//!
//! Packing scratch and output buffers come from the thread-local
//! [`crate::arena`], so steady-state forward passes do not touch the global
//! allocator.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Matrix::matmul_reference`]: crate::Matrix::matmul_reference

use crate::arena;
use crate::matrix::Matrix;

/// Microkernel tile width (output columns per packed panel).
///
/// 16 f32 lanes = one AVX-512 register or two AVX2 registers per panel row —
/// wide enough to saturate either vector unit from straight-line code.
pub const NR: usize = 16;
/// Microkernel tile height (output rows per register block).
pub const MR: usize = 4;
/// Square tile edge shared by the blocked transpose and panel packing.
pub const TILE: usize = 32;

/// Epilogue applied element-wise after the full-`k` accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity: `y = acc (+ bias)`.
    None,
    /// Rectified linear unit: `y = max(acc (+ bias), 0)`.
    Relu,
}

#[inline]
fn apply_epilogue(v: f32, bias: f32, act: Activation) -> f32 {
    let v = v + bias;
    match act {
        Activation::None => v,
        Activation::Relu => v.max(0.0),
    }
}

/// Matrix product `a * b` through the blocked kernel.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    gemm_bias_act(a, b, None, Activation::None)
}

/// Fused `act(a * b + bias)`.
///
/// `bias`, when present, must have one entry per output column and is added
/// after the full-`k` sum, followed by the activation — the same float-op
/// sequence as the unfused `matmul` / `add_bias` / `relu` chain.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or `bias.len() != b.cols()`.
pub fn gemm_bias_act(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f32]>,
    act: Activation,
) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} * {:?}",
        a.shape(),
        b.shape()
    );
    if let Some(bs) = bias {
        assert_eq!(bs.len(), b.cols(), "gemm bias length mismatch");
    }
    let started = std::time::Instant::now();
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = arena::zeros(m, n);
    if m > 0 && n > 0 {
        // Packing pays for itself once enough rows reuse the panels; skinny
        // or tiny products take the branchless scalar path instead.
        if m >= MR && n >= 4 && k >= 4 && m * n * k >= 2048 {
            gemm_packed(a, b, &mut out);
        } else {
            gemm_scalar(a, b, false, &mut out);
        }
        // The epilogue runs as its own pass over the finished sums: keeping
        // it out of the kernels leaves one accumulation loop for every
        // caller, which the compiler keeps in registers (a runtime epilogue
        // inside the tiles measured ~2x slower).
        if bias.is_some() || act != Activation::None {
            for row in out.as_mut_slice().chunks_exact_mut(n) {
                match bias {
                    Some(bs) => {
                        for (o, &bv) in row.iter_mut().zip(bs) {
                            *o = apply_epilogue(*o, bv, act);
                        }
                    }
                    None => row.iter_mut().for_each(|o| *o = apply_epilogue(*o, 0.0, act)),
                }
            }
        }
    }
    book_gemm(started);
    out
}

/// Books one GEMM call into `tensor.gemm_ns` / `tensor.gemm_calls`.
fn book_gemm(started: std::time::Instant) {
    gdse_obs::metrics::counter_add("tensor.gemm_ns", started.elapsed().as_nanos() as u64);
    gdse_obs::metrics::counter_inc("tensor.gemm_calls");
}

/// Matrix product `a * b` for a mostly-zero `a` (one-hot feature rows):
/// zero entries of `a` are skipped instead of multiplied.
///
/// Bit-identical to [`gemm`] whenever `b` is finite. Each output element is
/// still summed in increasing-`k` order from `+0.0`, and a skipped term is
/// `±0.0`. Adding `±0.0` leaves a nonzero accumulator unchanged and turns a
/// `+0.0` accumulator into `+0.0` again, and an accumulator that starts at
/// `+0.0` can never become `-0.0`, so skipping those terms changes no bit.
/// A non-finite `b` (where `0 * inf` would be NaN) falls back to [`gemm`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm_sparse_lhs(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm shape mismatch: {:?} * {:?}",
        a.shape(),
        b.shape()
    );
    if b.has_non_finite() {
        return gemm(a, b);
    }
    let started = std::time::Instant::now();
    let mut out = arena::zeros(a.rows(), b.cols());
    gemm_scalar(a, b, true, &mut out);
    book_gemm(started);
    out
}

/// Scalar i-k-j product (same accumulation order as the packed path),
/// optionally skipping zero entries of `a`.
fn gemm_scalar(a: &Matrix, b: &Matrix, skip_zeros: bool, out: &mut Matrix) {
    let n = b.cols();
    let bd = b.as_slice();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if skip_zeros && a_ik == 0.0 {
                continue;
            }
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// Packed panel + register-tiled main path.
fn gemm_packed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let npanels = n.div_ceil(NR);
    let mut packed = arena::take(npanels * k * NR);
    pack_b(b, &mut packed);

    let ad = a.as_slice();
    let full_blocks = m / MR;
    for blk in 0..full_blocks {
        let i0 = blk * MR;
        let rows: [&[f32]; MR] = [
            &ad[i0 * k..(i0 + 1) * k],
            &ad[(i0 + 1) * k..(i0 + 2) * k],
            &ad[(i0 + 2) * k..(i0 + 3) * k],
            &ad[(i0 + 3) * k..(i0 + 4) * k],
        ];
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = micro_mr(&rows, panel);
            for (r, acc_row) in acc.iter().enumerate() {
                store_row(out, acc_row, i0 + r, p, n);
            }
        }
    }
    for i in full_blocks * MR..m {
        let row = &ad[i * k..(i + 1) * k];
        for p in 0..npanels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = micro_1(row, panel);
            store_row(out, &acc, i, p, n);
        }
    }
    arena::give(packed);
}

/// Packs `b` into `NR`-wide k-major panels (`panel[k * NR + jj] = b[k][p*NR + jj]`),
/// zero-padding tail columns. Shares the [`TILE`]-row blocking of
/// [`transpose_into`] so wide matrices stream `b`'s rows cache-tile by
/// cache-tile instead of one full sweep per panel.
fn pack_b(b: &Matrix, packed: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    let npanels = n.div_ceil(NR);
    let bd = b.as_slice();
    for k0 in (0..k).step_by(TILE) {
        let k1 = (k0 + TILE).min(k);
        for p in 0..npanels {
            let jb = p * NR;
            let w = NR.min(n - jb);
            let base = p * k * NR;
            for kk in k0..k1 {
                let src = &bd[kk * n + jb..kk * n + jb + w];
                packed[base + kk * NR..base + kk * NR + w].copy_from_slice(src);
            }
        }
    }
}

/// `MR x NR` register-tiled microkernel: full-`k`, in-order accumulation.
#[inline]
fn micro_mr(rows: &[&[f32]; MR], panel: &[f32]) -> [[f32; NR]; MR] {
    let kc = rows[0].len();
    for r in rows.iter() {
        assert_eq!(r.len(), kc);
    }
    assert!(panel.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, bp) in panel.chunks_exact(NR).take(kc).enumerate() {
        for r in 0..MR {
            let av = rows[r][kk];
            for j in 0..NR {
                acc[r][j] += av * bp[j];
            }
        }
    }
    acc
}

/// `1 x NR` row-tail microkernel.
#[inline]
fn micro_1(row: &[f32], panel: &[f32]) -> [f32; NR] {
    let kc = row.len();
    assert!(panel.len() >= kc * NR);
    let mut acc = [0.0f32; NR];
    for (kk, bp) in panel.chunks_exact(NR).take(kc).enumerate() {
        let av = row[kk];
        for j in 0..NR {
            acc[j] += av * bp[j];
        }
    }
    acc
}

/// Copies one accumulator row into columns `p * NR ..` of output row `i`
/// (tail panels keep only their valid lanes).
fn store_row(out: &mut Matrix, acc: &[f32; NR], i: usize, p: usize, n: usize) {
    let jb = p * NR;
    let w = NR.min(n - jb);
    out.as_mut_slice()[i * n + jb..i * n + jb + w].copy_from_slice(&acc[..w]);
}

/// Blocked out-of-place transpose: `dst[j * rows + i] = src[i * cols + j]`,
/// walked in [`TILE`] x [`TILE`] tiles so both the strided writes and the
/// contiguous reads stay within a cache-resident working set.
///
/// # Panics
///
/// Panics if the buffer lengths do not match `rows * cols`.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            let j1 = (j0 + TILE).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
        // SplitMix64-driven values in [-2, 2), deterministic per seed.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Matrix::from_fn(rows, cols, |_, _| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            ((x >> 40) as f32 / (1u64 << 22) as f32) - 2.0
        })
    }

    #[test]
    fn matches_reference_bitwise_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (4, 8, 8),
            (5, 7, 9),
            (17, 33, 12),
            (64, 124, 64),
            (3, 0, 5),
            (4, 1, 8),
            (1, 64, 1),
            (40, 16, 3),
        ] {
            let a = pseudo(m, k, (m * 1000 + k * 10 + n) as u64);
            let b = pseudo(k, n, (n * 777 + k) as u64);
            let fast = gemm(&a, &b);
            let slow = a.matmul_reference(&b);
            assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn zeros_in_a_do_not_change_result() {
        // The reference kernel skips zero entries of `a`; the blocked kernel
        // multiplies through. For finite inputs both round identically.
        let mut a = pseudo(9, 13, 3);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
            if i % 7 == 0 {
                *v = -0.0;
            }
        }
        let b = pseudo(13, 11, 4);
        let fast = gemm(&a, &b);
        let slow = a.matmul_reference(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_chain_bitwise() {
        let a = pseudo(10, 24, 5);
        let b = pseudo(24, 17, 6);
        let bias = pseudo(1, 17, 7);
        let fused = gemm_bias_act(&a, &b, Some(bias.row(0)), Activation::Relu);
        let mut unfused = a.matmul(&b);
        for r in 0..unfused.rows() {
            for (x, bv) in unfused.row_mut(r).iter_mut().zip(bias.row(0)) {
                *x += bv;
            }
        }
        let unfused = unfused.map(|x| x.max(0.0));
        for (x, y) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn k_zero_with_bias_still_applies_epilogue() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let bias = [1.0, -2.0, 3.0, -4.0];
        let y = gemm_bias_act(&a, &b, Some(&bias), Activation::Relu);
        assert_eq!(y.shape(), (3, 4));
        for r in 0..3 {
            assert_eq!(y.row(r), &[1.0, 0.0, 3.0, 0.0]);
        }
    }

    #[test]
    fn transpose_into_matches_naive() {
        for &(r, c) in &[(1, 1), (3, 5), (33, 64), (70, 31)] {
            let a = pseudo(r, c, (r * 31 + c) as u64);
            let mut dst = vec![0.0f32; r * c];
            transpose_into(a.as_slice(), r, c, &mut dst);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(dst[j * r + i], a.get(i, j));
                }
            }
        }
    }

    #[test]
    fn books_gemm_counters() {
        let before = gdse_obs::metrics::counter_value("tensor.gemm_calls");
        let a = pseudo(8, 8, 1);
        let b = pseudo(8, 8, 2);
        let _ = gemm(&a, &b);
        assert_eq!(
            gdse_obs::metrics::counter_value("tensor.gemm_calls"),
            before + 1
        );
    }
}
