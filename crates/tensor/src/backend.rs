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
/// pre-backend training. The three matmuls run sixteen output columns side
/// by side in registers; only the schedule differs from the original
/// loops, never an output's terms or their order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scalar;

impl Backend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        PACKED.with_borrow_mut(|packed| matmul_rows(a.as_slice(), b, out, &mut packed.panels));
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // Every output is the dot product of `Matrix::matmul_transpose`:
        // `acc = +0.0; acc += a[i][k] * b[j][k]` for k ascending, with no
        // zero skip (0·inf is NaN) and one accumulator, so every output is
        // bit-identical to it, ±0 and ±inf included; a NaN output stays
        // NaN (Rust leaves NaN sign and payload unspecified). Only the
        // schedule changes: TILE dot products run side by side, reading
        // `b` packed into column panels so the k-th terms of all of them
        // are one contiguous load.
        let (inner, n) = (a.cols(), b.rows());
        PACKED.with_borrow_mut(|packed| {
            pack_panels(0..n, inner, |k, j| b.get(j, k), &mut packed.panels);
            let panel = |t: usize| {
                let panel = packed.panels.get(t * inner..(t + 1) * inner);
                panel.unwrap_or_default().iter()
            };
            for (i, out_row) in out.as_mut_slice().chunks_exact_mut(n.max(1)).enumerate() {
                let a_row = a.row(i);
                let (out_tiles, out_tail) = out_row.as_chunks_mut::<TILE>();
                for (t, out_tile) in out_tiles.iter_mut().enumerate() {
                    let mut acc = [0.0f32; TILE];
                    tile::<false>(&mut acc, a_row, panel(t));
                    *out_tile = acc;
                }
                out_tail.fill(0.0);
                tail_tile::<false>(out_tail, a_row, panel(out_tiles.len()));
            }
        });
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // `aᵀ · b` is `matmul` on the transpose of `a`, packed so that each
        // output row reads its left operand as one contiguous run; every
        // output still sums its terms for k ascending.
        PACKED.with_borrow_mut(|packed| {
            let Packed { lhs, panels } = packed;
            pack_transpose(a, lhs);
            matmul_rows(lhs, b, out, panels);
        });
    }
}

/// Output columns per register tile of the three matmul kernels: sixteen
/// independent accumulators hide the add latency a single running sum is
/// bound by.
const TILE: usize = 16;

/// Per-thread packed operands of the matmul kernels. They grow to the
/// largest operands the thread has seen and are reused from then on, so
/// the training loop's steady state allocates nothing.
struct Packed {
    /// The transpose of `matmul_tn`'s left operand.
    lhs: Vec<f32>,
    /// Zero-padded column panels of a right operand: all of `bᵀ` for
    /// `matmul_nt`, the last `n % TILE` columns of `b` for the others.
    panels: Vec<[f32; TILE]>,
}

thread_local! {
    static PACKED: RefCell<Packed> = const {
        RefCell::new(Packed {
            lhs: Vec::new(),
            panels: Vec::new(),
        })
    };
}

/// Adds `x_row[k] · b_k` into the TILE accumulators for every k in
/// ascending order, `b_k` being the k-th item of `b`: the one inner loop
/// of all three matmuls. With `ZERO_TEST`, terms whose left factor is zero
/// are skipped.
#[inline]
fn tile<'a, const ZERO_TEST: bool>(
    acc: &mut [f32; TILE],
    x_row: &[f32],
    b: impl Iterator<Item = &'a [f32; TILE]>,
) {
    for (&x, b_k) in x_row.iter().zip(b) {
        if ZERO_TEST && x == 0.0 {
            continue;
        }
        for (s, &y) in acc.iter_mut().zip(b_k) {
            *s += x * y;
        }
    }
}

/// `out += lhs · b`, where `lhs` holds `out.rows()` rows of `b.rows()`
/// entries, row-major: the body of [`Scalar::matmul`] and
/// [`Scalar::matmul_tn`]. `panels` is scratch for the last `n % TILE`
/// columns of `b`.
///
/// The original loop (i-k-j, an axpy per row of `b`) skipped every term
/// whose left factor is zero. Skipping `0·y` leaves a running sum `s` as it
/// is unless `0·y` is NaN (`y` infinite or NaN) or `s` is `-0.0` (then
/// `s + 0.0` is `+0.0`). A sum holds `-0.0` only while it still holds a
/// `-0.0` from `out`, because an exact cancellation rounds to `+0.0`. So
/// the skip is exact, and [`axpy_tiles`] drops its zero test, unless `lhs`
/// has a zero and `b` a non-finite entry or `out` a `-0.0`. Dropping it
/// matters: on ReLU outputs (about half zeros) the test is an
/// unpredictable branch per (row, k).
fn matmul_rows(lhs: &[f32], b: &Matrix, out: &mut Matrix, panels: &mut Vec<[f32; TILE]>) {
    let (inner, n) = b.shape();
    pack_panels(n - n % TILE..n, inner, |k, j| b.get(k, j), panels);
    let zero_terms_matter = lhs.contains(&0.0)
        && (any_entry(b, |v| !v.is_finite())
            || any_entry(out, |v| v.to_bits() == (-0.0f32).to_bits()));
    if zero_terms_matter {
        axpy_tiles::<true>(lhs, b, panels, out);
    } else {
        axpy_tiles::<false>(lhs, b, panels, out);
    }
}

/// Whether `pred` holds for some entry of `m`. A fold rather than
/// `Iterator::any`: without the early exit the scan vectorizes, and it
/// runs in full on every training product.
fn any_entry(m: &Matrix, pred: impl Fn(f32) -> bool) -> bool {
    m.iter().fold(false, |hit, &v| hit | pred(v))
}

/// The tiles of [`matmul_rows`]: per output row, each full tile of
/// [`TILE`] columns loads its outputs into registers, runs [`tile`] down
/// the matching columns of `b` and stores them back; the last `n % TILE`
/// columns run [`tail_tile`] on the zero-padded `tail` panel.
fn axpy_tiles<const ZERO_TEST: bool>(
    lhs: &[f32],
    b: &Matrix,
    tail: &[[f32; TILE]],
    out: &mut Matrix,
) {
    let (inner, n) = b.shape();
    if inner == 0 || n == 0 {
        return;
    }
    for (x_row, out_row) in lhs
        .chunks_exact(inner)
        .zip(out.as_mut_slice().chunks_exact_mut(n))
    {
        let (out_tiles, out_tail) = out_row.as_chunks_mut::<TILE>();
        for (t, out_tile) in out_tiles.iter_mut().enumerate() {
            let b_tile = b
                .as_slice()
                .chunks_exact(n)
                .filter_map(|b_row| b_row.as_chunks::<TILE>().0.get(t));
            let mut acc = *out_tile;
            tile::<ZERO_TEST>(&mut acc, x_row, b_tile);
            *out_tile = acc;
        }
        tail_tile::<ZERO_TEST>(out_tail, x_row, tail.iter());
    }
}

/// [`tile`] for a row's last `n % TILE` outputs, whose panel is
/// zero-padded: their sums start from `out_tail` and come back out of the
/// first lanes, and the padding lanes are dropped.
fn tail_tile<'a, const ZERO_TEST: bool>(
    out_tail: &mut [f32],
    x_row: &[f32],
    panel: impl Iterator<Item = &'a [f32; TILE]>,
) {
    if out_tail.is_empty() {
        return;
    }
    let mut acc = [0.0f32; TILE];
    for (s, &o) in acc.iter_mut().zip(out_tail.iter()) {
        *s = o;
    }
    tile::<ZERO_TEST>(&mut acc, x_row, panel);
    for (o, &s) in out_tail.iter_mut().zip(&acc) {
        *o = s;
    }
}

/// Packs output columns `cols` of a product with reduction length `inner`
/// into zero-padded panels of [`TILE`] columns: panel `t` holds
/// `term(k, cols.start + t·TILE + l)` at `t·inner + k`, lane `l`, so one
/// step of the reduction over `k` reads the TILE terms it needs from one
/// contiguous run.
fn pack_panels(
    cols: std::ops::Range<usize>,
    inner: usize,
    term: impl Fn(usize, usize) -> f32,
    panels: &mut Vec<[f32; TILE]>,
) {
    panels.clear();
    panels.resize(cols.len().div_ceil(TILE) * inner, [0.0; TILE]);
    for (t, panel) in panels.chunks_mut(inner.max(1)).enumerate() {
        let first = cols.start + t * TILE;
        for (k, terms) in panel.iter_mut().enumerate() {
            for (term_kj, j) in terms.iter_mut().zip(first..cols.end) {
                *term_kj = term(k, j);
            }
        }
    }
}

/// Packs `aᵀ` row-major into `at`: `a[k][i]` lands at `i·a.rows() + k`.
fn pack_transpose(a: &Matrix, at: &mut Vec<f32>) {
    at.clear();
    at.resize(a.len(), 0.0);
    for (i, at_row) in at.chunks_exact_mut(a.rows().max(1)).enumerate() {
        let column = a.as_slice().iter().skip(i).step_by(a.cols().max(1));
        for (v, &x) in at_row.iter_mut().zip(column) {
            *v = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use crate::Workspace;

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
