//! The execution seam for the dense kernels underneath the tape.
//!
//! Every [`crate::Graph`] op that does real arithmetic (matmul and its two
//! transposed variants, axpy, scaling, reductions) dispatches through a
//! [`Backend`] carried by the graph's [`crate::pool::Workspace`]. The one
//! implementation is [`Scalar`]: every output runs the same IEEE sequence
//! as the original `Matrix` kernels, so training is bit-identical to the
//! pre-backend code (pinned by the golden-checksum tests). `Workspace::new`
//! uses it; code that wants another implementation (a test that counts
//! kernel calls, say) passes one to [`crate::pool::Workspace::with_backend`].

use crate::Matrix;
use std::cell::RefCell;

/// Dense kernels the autodiff tape dispatches through.
///
/// `out` buffers follow the convention of the original `Matrix` kernels:
/// accumulating kernels (`matmul`, `matmul_tn`) require a zeroed `out`,
/// fully-overwriting kernels (`matmul_nt`, `row_sum_sq`) accept stale
/// contents. Shape checking is the caller's job (the graph ops assert before
/// dispatching), so implementations may assume conforming shapes.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Short stable identifier (`"scalar"`).
    fn name(&self) -> &'static str;

    /// `out += a · b` with `out` pre-zeroed: the forward matmul.
    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out = a · bᵀ` (fully overwrites `out`): the `dA` of matmul backward.
    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out += aᵀ · b` with `out` pre-zeroed: the `dB` of matmul backward,
    /// computed without materializing the transpose.
    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// Elementwise `out += a`.
    fn add_assign(&self, out: &mut Matrix, a: &Matrix) {
        self.add_scaled(out, a, 1.0);
    }

    /// Elementwise axpy `out += a * s` — the core of gradient accumulation,
    /// every optimizer and the server aggregation.
    fn add_scaled(&self, out: &mut Matrix, a: &Matrix, s: f32) {
        for (o, &v) in out.iter_mut().zip(a.iter()) {
            *o += v * s;
        }
    }

    /// Elementwise `out *= s`.
    fn scale(&self, out: &mut Matrix, s: f32) {
        for o in out.iter_mut() {
            *o *= s;
        }
    }

    /// Sum of all elements.
    fn sum(&self, a: &Matrix) -> f32 {
        a.iter().sum()
    }

    /// Per-row sum of squares written into a pre-shaped `(rows, 1)` column.
    fn row_sum_sq(&self, a: &Matrix, out: &mut Matrix) {
        for r in 0..a.rows() {
            let s: f32 = a.row(r).iter().map(|v| v * v).sum();
            out.set(r, 0, s);
        }
    }

    /// Squared Euclidean distance between two equal-length slices — the
    /// kmeans assignment kernel.
    fn squared_distance(&self, a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum()
    }

    /// Slice-level axpy `out += a * s` — the kmeans centroid-update kernel.
    fn axpy(&self, out: &mut [f32], a: &[f32], s: f32) {
        for (o, &v) in out.iter_mut().zip(a.iter()) {
            *o += v * s;
        }
    }
}

/// The backend every [`crate::pool::Workspace::new`] uses. Per output
/// element each kernel runs the same IEEE operation sequence as the
/// original `Matrix` kernels, so training under it is bit-identical to
/// pre-backend training.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scalar;

impl Backend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of `b` and `out`; skipping zero a_ik terms is exact
        // (x + 0·b == x in f32 for finite b).
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * bv;
                }
            }
        }
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // Every output is the dot product of `Matrix::matmul_transpose`:
        // `acc = +0.0; acc += a[i][k] * b[j][k]` for k ascending, with no
        // zero skip (0·inf is NaN) and one accumulator, so every output is
        // bit-identical to it, ±0 and ±inf included; a NaN output stays
        // NaN (Rust leaves NaN sign and payload unspecified). Only the
        // schedule changes: the first `n - n % NT_TILE` columns run NT_TILE
        // dot products side by side, reading a packed transpose of `b` so
        // the k-th terms of all of them are one contiguous load; the
        // remaining columns run the plain dot.
        let (inner, n) = (a.cols(), b.rows());
        let tiled = n - n % NT_TILE;
        NT_PANELS.with_borrow_mut(|panels| {
            pack_nt_panels(b, tiled, panels);
            let (panels, _) = panels.as_chunks::<NT_TILE>();
            for i in 0..a.rows() {
                let a_row = a.row(i);
                let (out_tiles, out_tail) = out.row_mut(i).as_chunks_mut::<NT_TILE>();
                for (t, out_tile) in out_tiles.iter_mut().enumerate() {
                    let panel = panels.get(t * inner..(t + 1) * inner).unwrap_or_default();
                    let mut acc = [0.0f32; NT_TILE];
                    for (&x, b_k) in a_row.iter().zip(panel) {
                        for (s, &y) in acc.iter_mut().zip(b_k) {
                            *s += x * y;
                        }
                    }
                    *out_tile = acc;
                }
                for (o, j) in out_tail.iter_mut().zip(tiled..n) {
                    let mut acc = 0.0;
                    for (&x, &y) in a_row.iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        });
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // Per out element this accumulates a[k][i]·b[k][j] in increasing-k
        // order with the same zero skip as `a.transpose().matmul(b)`, so the
        // result is bit-identical to the transpose-then-matmul path while
        // touching `a` row-major.
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += aki * bv;
                }
            }
        }
    }
}

/// Output columns per register tile of [`Scalar::matmul_nt`]: sixteen
/// independent accumulators hide the add latency a single dot product is
/// bound by.
const NT_TILE: usize = 16;

thread_local! {
    /// The packed transpose [`Scalar::matmul_nt`] reads. It grows to the
    /// largest operand this thread has seen and is reused from then on, so
    /// the training loop's steady state allocates nothing.
    static NT_PANELS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Packs the first `tiled` rows of `b` (a multiple of [`NT_TILE`]) into
/// column panels: panel `t` holds `b[t·NT_TILE + l][k]` at
/// `(t·inner + k)·NT_TILE + l`, so one step of the reduction over `k` reads
/// the NT_TILE terms it needs from one contiguous run.
fn pack_nt_panels(b: &Matrix, tiled: usize, panels: &mut Vec<f32>) {
    let inner = b.cols();
    panels.clear();
    panels.resize(tiled * inner, 0.0);
    let (rows, _) = panels.as_chunks_mut::<NT_TILE>();
    for (t, panel) in rows.chunks_mut(inner.max(1)).enumerate() {
        for (k, terms) in panel.iter_mut().enumerate() {
            for (l, term) in terms.iter_mut().enumerate() {
                *term = b.get(t * NT_TILE + l, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use crate::Workspace;

    #[test]
    fn scalar_matmul_is_bitwise_identical_to_matrix_matmul() {
        let mut r = rng::seeded(5);
        let a = rng::normal_matrix(&mut r, 7, 13, 1.0);
        let b = rng::normal_matrix(&mut r, 13, 9, 1.0);
        let mut out = Matrix::zeros(7, 9);
        Scalar.matmul(&a, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn scalar_tn_matches_transpose_then_matmul_bitwise() {
        let mut r = rng::seeded(6);
        let a = rng::normal_matrix(&mut r, 11, 5, 1.0);
        let g = rng::normal_matrix(&mut r, 11, 8, 1.0);
        let mut out = Matrix::zeros(5, 8);
        Scalar.matmul_tn(&a, &g, &mut out);
        assert_eq!(out, a.transpose().matmul(&g));
    }

    #[test]
    fn scalar_nt_matches_matmul_transpose_bitwise() {
        // 20 output columns: one full register tile plus a 4-column tail.
        let mut r = rng::seeded(7);
        let a = rng::normal_matrix(&mut r, 6, 10, 1.0);
        let b = rng::normal_matrix(&mut r, 20, 10, 1.0);
        let mut out = Matrix::full(6, 20, f32::NAN);
        Scalar.matmul_nt(&a, &b, &mut out);
        assert_eq!(out, a.matmul_transpose(&b));
    }

    #[test]
    fn scalar_nt_with_empty_inner_dim_writes_positive_zeros() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(17, 0);
        let mut out = Matrix::full(3, 17, f32::NAN);
        Scalar.matmul_nt(&a, &b, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0), "{out:?}");
    }

    #[test]
    fn workspace_defaults_to_scalar() {
        assert_eq!(Workspace::new().backend().name(), "scalar");
    }
}
