//! Property-based tests for the matrix algebra and autograd invariants.

use calibre_tensor::backend::{Backend, Scalar};
use calibre_tensor::gradcheck::check_gradient;
use calibre_tensor::nn::{gradients, Activation, Binding, Mlp, Module};
use calibre_tensor::{Graph, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Strategy producing a matrix with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Output widths on both sides of the 16-column register tile of the
/// `Scalar` matmuls.
const NT_WIDTHS: [usize; 6] = [1, 15, 16, 17, 33, 96];

/// Entries that make a summation order or a skipped term visible.
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// `len` entries, each drawn from [`SPECIALS`] with probability
/// `special_pct`% and otherwise finite in [-3, 3); with `relu`, the finite
/// ones are clamped at zero the way a ReLU output is, so about half of them
/// are `+0.0`.
fn entries(r: &mut StdRng, len: usize, special_pct: u32, relu: bool) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if r.gen_range(0u32..100) < special_pct {
                SPECIALS[r.gen_range(0..SPECIALS.len())]
            } else {
                let v = r.gen_range(-3.0f32..3.0);
                if relu {
                    v.max(0.0)
                } else {
                    v
                }
            }
        })
        .collect()
}

/// `(a, b)` operands of `a · bᵀ`: 1–3 rows, a reduction length of 1–100,
/// an output width from [`NT_WIDTHS`], and a per-case share (0–34%) of
/// entries drawn from [`SPECIALS`]; the rest are finite in [-3, 3).
fn nt_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (
        1usize..=3,
        1usize..=100,
        0..NT_WIDTHS.len(),
        0u32..35,
        any::<u64>(),
    )
        .prop_map(|(m, k, width, special_pct, seed)| {
            let mut r = calibre_tensor::rng::seeded(seed);
            let n = NT_WIDTHS[width];
            let a = Matrix::from_vec(m, k, entries(&mut r, m * k, special_pct, false));
            let b = Matrix::from_vec(n, k, entries(&mut r, n * k, special_pct, false));
            (a, b)
        })
}

/// `(a, b)` operands of `a · b`: 1–3 rows, an inner dimension of 1–100, an
/// output width from [`NT_WIDTHS`], a ReLU-like `a` in half of the cases,
/// and a per-case share (0–34%) of entries drawn from [`SPECIALS`] on both
/// sides. `matmul_tn` takes `aᵀ`.
fn mm_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (
        1usize..=3,
        1usize..=100,
        0..NT_WIDTHS.len(),
        0u32..35,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(m, k, width, special_pct, relu, seed)| {
            let mut r = calibre_tensor::rng::seeded(seed);
            let n = NT_WIDTHS[width];
            let a = Matrix::from_vec(m, k, entries(&mut r, m * k, special_pct, relu));
            let b = Matrix::from_vec(k, n, entries(&mut r, k * n, special_pct, false));
            (a, b)
        })
}

/// `out += a · b` by the zero-skipping i-k-j loop `Scalar::matmul` ran
/// before its register tiles: the reference its outputs must match bit for
/// bit.
fn zero_skipping_matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for i in 0..a.rows() {
        for (k, &x) in a.row(i).iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += x * y;
            }
        }
    }
}

/// `out += aᵀ · b` by the zero-skipping k-i-j loop `Scalar::matmul_tn` ran
/// before its register tiles.
fn zero_skipping_matmul_tn(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    for k in 0..a.rows() {
        for (i, &x) in a.row(k).iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o += x * y;
            }
        }
    }
}

/// Fails on the first output whose bits differ. Rust leaves the sign and
/// payload of a NaN result unspecified (the per-element dot itself yields
/// different NaN bits in debug and release builds), so a NaN output must
/// be NaN on both sides and every other output equal in bits.
fn assert_same_bits(got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape());
    for (idx, (x, y)) in got.iter().zip(want.iter()).enumerate() {
        let same = if y.is_nan() {
            x.is_nan()
        } else {
            x.to_bits() == y.to_bits()
        };
        assert!(same, "output {idx} of {:?}: {x} vs {y}", got.shape());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(3, 5), b in matrix(4, 5)) {
        // (A Bᵀ)ᵀ == B Aᵀ
        let lhs = a.matmul_transpose(&b).transpose();
        let rhs = b.matmul_transpose(&a);
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_preserves_frobenius_norm(a in matrix(4, 6)) {
        prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(5, 7)) {
        let s = a.row_softmax();
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in matrix(3, 5), shift in -10.0f32..10.0) {
        let s1 = a.row_softmax();
        let s2 = a.map(|v| v + shift).row_softmax();
        for (x, y) in s1.iter().zip(s2.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn l2_normalized_rows_have_unit_norm_or_zero(a in matrix(6, 4)) {
        let n = a.row_l2_normalized();
        for (r, norm) in n.row_norms().iter().enumerate() {
            let orig: f32 = a.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if orig > 1e-6 {
                prop_assert!((norm - 1.0).abs() < 1e-4, "row {r} norm {norm}");
            }
        }
    }

    #[test]
    fn gather_rows_preserves_row_content(a in matrix(6, 3), idx in prop::collection::vec(0usize..6, 1..10)) {
        let g = a.gather_rows(&idx);
        for (i, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(i), a.row(src));
        }
    }

    #[test]
    fn concat_then_split_roundtrips(a in matrix(3, 4), b in matrix(2, 4)) {
        let cat = a.concat_rows(&b);
        prop_assert_eq!(cat.rows(), 5);
        let back_a = cat.gather_rows(&[0, 1, 2]);
        let back_b = cat.gather_rows(&[3, 4]);
        prop_assert_eq!(back_a, a);
        prop_assert_eq!(back_b, b);
    }

    #[test]
    fn flat_roundtrip_is_identity(seed in 0u64..1000) {
        let mut r = calibre_tensor::rng::seeded(seed);
        let mlp = Mlp::new(&[4, 6, 2], Activation::Relu, &mut r);
        let mut clone = Mlp::new(&[4, 6, 2], Activation::Relu, &mut r);
        clone.load_flat(&mlp.to_flat());
        prop_assert_eq!(clone.to_flat(), mlp.to_flat());
    }

    #[test]
    fn autograd_linear_map_gradient_is_exact(x in matrix(2, 3), w in matrix(3, 2)) {
        // For f = sum(x W), df/dx = 1·Wᵀ exactly (no nonlinearity).
        let mut g = Graph::new();
        let xn = g.leaf(x);
        let wn = g.constant(w.clone());
        let y = g.matmul(xn, wn);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grad = g.grad(xn).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                let expected: f32 = w.row(c).iter().sum();
                prop_assert!((grad.get(r, c) - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(x in matrix(4, 3), t0 in 0usize..3, t1 in 0usize..3, t2 in 0usize..3, t3 in 0usize..3) {
        let mut g = Graph::new();
        let xn = g.constant(x);
        let loss = g.cross_entropy(xn, &[t0, t1, t2, t3]);
        prop_assert!(g.value(loss).get(0, 0) >= 0.0);
    }

    #[test]
    fn composite_gradcheck_on_random_mlp_loss(x in matrix(3, 4)) {
        // Fold inputs into ReLU's strictly-positive region, at least 0.1
        // from the kink where finite differences are invalid (the all-zero
        // matrix would also degenerate row normalization). Folding rather
        // than shifting keeps the rows pointing different ways, so the
        // gradient is not so flat that finite-difference noise swamps it.
        let x = x.map(|v| v.abs() + 0.1);
        let report = check_gradient(&x, 1e-2, |g, xn| {
            let h = g.relu(xn);
            let n = g.row_l2_normalize(h);
            let nt = g.transpose(n);
            let sims = g.matmul(n, nt);
            let masked = g.mask_diagonal(sims, -1e9);
            g.cross_entropy(masked, &[1, 2, 0])
        });
        prop_assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn binding_gradients_match_parameter_count(seed in 0u64..100) {
        let mut r = calibre_tensor::rng::seeded(seed);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut r);
        let x = calibre_tensor::rng::normal_matrix(&mut r, 4, 3, 1.0);
        let mut g = Graph::new();
        let xn = g.constant(x);
        let mut binding = Binding::new();
        let out = mlp.forward(&mut g, xn, &mut binding);
        let loss = g.mean_all(out);
        g.backward(loss);
        let grads = gradients(&g, &binding);
        prop_assert_eq!(grads.len(), mlp.parameters().len());
        for (gr, p) in grads.iter().zip(mlp.parameters()) {
            prop_assert_eq!(gr.shape(), p.shape());
            prop_assert!(gr.all_finite());
        }
    }

    #[test]
    fn group_mean_rows_average_of_members(data in matrix(8, 2), assign in prop::collection::vec(0usize..3, 8)) {
        let mut g = Graph::new();
        let xn = g.constant(data.clone());
        let c = g.group_mean_rows(xn, &assign, 3);
        for k in 0..3 {
            let members: Vec<usize> = (0..8).filter(|&i| assign[i] == k).collect();
            if members.is_empty() {
                prop_assert!(g.value(c).row(k).iter().all(|&v| v == 0.0));
            } else {
                for col in 0..2 {
                    let avg: f32 = members.iter().map(|&i| data.get(i, col)).sum::<f32>() / members.len() as f32;
                    prop_assert!((g.value(c).get(k, col) - avg).abs() < 1e-4);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scalar_matmul_nt_is_bit_identical_to_the_per_element_dot((a, b) in nt_operands()) {
        // Every output must be `acc = +0.0; acc += a[i][k]·b[j][k]` for k
        // ascending, bit for bit: no zero skip (0·inf is NaN) and no split
        // accumulators (they round differently). Stale output contents
        // must all be overwritten.
        let want = a.matmul_transpose(&b);
        let mut got = Matrix::full(a.rows(), b.rows(), 7.0);
        Scalar.matmul_nt(&a, &b, &mut got);
        assert_same_bits(&got, &want);
    }

    #[test]
    fn scalar_matmul_is_bit_identical_to_the_zero_skipping_loop((a, b) in mm_operands()) {
        // The zero skip is exact only for a finite right operand, so a
        // zero in `a` against an infinity or NaN in `b` must still be
        // skipped; everywhere else each output must sum the same terms in
        // the same order.
        let mut want = Matrix::zeros(a.rows(), b.cols());
        zero_skipping_matmul(&a, &b, &mut want);
        let mut got = Matrix::zeros(a.rows(), b.cols());
        Scalar.matmul(&a, &b, &mut got);
        assert_same_bits(&got, &want);
        assert_same_bits(&a.matmul(&b), &want);
    }

    #[test]
    fn scalar_matmul_tn_is_bit_identical_to_the_zero_skipping_loop((a, b) in mm_operands()) {
        let a = a.transpose();
        let mut want = Matrix::zeros(a.cols(), b.cols());
        zero_skipping_matmul_tn(&a, &b, &mut want);
        let mut got = Matrix::zeros(a.cols(), b.cols());
        Scalar.matmul_tn(&a, &b, &mut got);
        assert_same_bits(&got, &want);
    }
}

#[test]
fn scalar_matmuls_keep_a_negative_zero_that_only_zero_terms_meet() {
    // A `-0.0` already in `out` survives the zero-skipping loops where
    // every term of its sum is skipped, while `-0.0 + 0.0` is `+0.0`; the
    // kernels must keep it too, 17 columns covering a tile and its tail.
    let mut a = Matrix::zeros(2, 3);
    a.set(1, 1, 2.0);
    let b = Matrix::full(3, 17, 1.5);
    let mut want = Matrix::full(2, 17, -0.0);
    zero_skipping_matmul(&a, &b, &mut want);
    let mut got = Matrix::full(2, 17, -0.0);
    Scalar.matmul(&a, &b, &mut got);
    assert_same_bits(&got, &want);
    assert!(got
        .row(0)
        .iter()
        .all(|v| v.to_bits() == (-0.0f32).to_bits()));

    let at = a.transpose();
    let mut want = Matrix::full(2, 17, -0.0);
    zero_skipping_matmul_tn(&at, &b, &mut want);
    let mut got = Matrix::full(2, 17, -0.0);
    Scalar.matmul_tn(&at, &b, &mut got);
    assert_same_bits(&got, &want);
}
