//! Edge-case tests for the autograd tape: shape-mismatch panics, degenerate
//! inputs, and ops whose unit coverage in the module tests is indirect.

use calibre_tensor::backend::{Backend, Scalar};
use calibre_tensor::{rng, Graph, Matrix, Node, Workspace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
#[should_panic(expected = "matmul shape mismatch")]
fn matmul_rejects_inner_dimension_mismatch() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    let b = g.constant(Matrix::zeros(2, 3));
    g.matmul(a, b);
}

#[test]
#[should_panic(expected = "elementwise op shape mismatch")]
fn add_rejects_shape_mismatch() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    let b = g.constant(Matrix::zeros(3, 2));
    g.add(a, b);
}

#[test]
#[should_panic(expected = "square")]
fn mask_diagonal_rejects_rectangles() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::zeros(2, 3));
    g.mask_diagonal(a, 0.0);
}

#[test]
fn exp_log_inverse_roundtrip() {
    let mut g = Graph::new();
    let x = g.constant(Matrix::from_rows(&[vec![0.5, 1.5, 2.5]]));
    let e = g.exp(x);
    let l = g.log(e);
    for (a, b) in g.value(x).iter().zip(g.value(l).iter()) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn log_clamps_nonpositive_inputs() {
    let mut g = Graph::new();
    let x = g.constant(Matrix::from_rows(&[vec![0.0, -1.0]]));
    let l = g.log(x);
    assert!(
        g.value(l).all_finite(),
        "log of clamped input must be finite"
    );
}

#[test]
fn div_by_small_values_is_finite_forward() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::from_rows(&[vec![1.0]]));
    let b = g.constant(Matrix::from_rows(&[vec![1e-6]]));
    let d = g.div(a, b);
    assert!(g.value(d).all_finite());
    assert!((g.value(d).get(0, 0) - 1e6).abs() < 1.0);
}

#[test]
fn scale_by_zero_kills_gradient_but_not_structure() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![3.0, 4.0]]));
    let y = g.scale(x, 0.0);
    let loss = g.sum_all(y);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert!(grad.iter().all(|&v| v == 0.0));
    assert_eq!(grad.shape(), (1, 2));
}

#[test]
fn chained_detach_still_forwards_values() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![2.0]]));
    let d1 = g.detach(x);
    let d2 = g.detach(d1);
    assert_eq!(g.value(d2).get(0, 0), 2.0);
    let loss = g.sum_all(d2);
    g.backward(loss);
    assert!(g.grad(x).is_none());
}

#[test]
fn gather_rows_with_repeats_accumulates_gradient() {
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
    let gathered = g.gather_rows(x, &[0, 0, 0, 1]);
    let loss = g.sum_all(gathered);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert_eq!(grad.col(0), vec![3.0, 1.0]);
}

#[test]
fn cross_entropy_of_uniform_logits_is_log_k() {
    let mut g = Graph::new();
    let logits = g.constant(Matrix::zeros(4, 10));
    let loss = g.cross_entropy(logits, &[0, 3, 5, 9]);
    let expected = (10.0f32).ln();
    assert!((g.value(loss).get(0, 0) - expected).abs() < 1e-5);
}

#[test]
fn graph_len_tracks_node_insertion() {
    let mut g = Graph::new();
    assert!(g.is_empty());
    let a = g.constant(Matrix::zeros(1, 1));
    let b = g.leaf(Matrix::zeros(1, 1));
    let _ = g.add(a, b);
    assert_eq!(g.len(), 3);
}

#[test]
fn rowwise_dot_of_orthogonal_rows_is_zero() {
    let mut g = Graph::new();
    let a = g.constant(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]));
    let b = g.constant(Matrix::from_rows(&[vec![0.0, 5.0], vec![3.0, 0.0]]));
    let d = g.rowwise_dot(a, b);
    assert_eq!(g.value(d).col(0), vec![0.0, 0.0]);
}

#[test]
fn group_mean_rows_single_group_equals_mean_rows() {
    let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 20.0]]);
    let mut g = Graph::new();
    let x = g.constant(m.clone());
    let c = g.group_mean_rows(x, &[0, 0, 0], 1);
    assert_eq!(g.value(c).row(0), m.mean_rows().row(0));
}

#[test]
fn backward_through_deep_chain_stays_finite() {
    // A 40-op chain of alternating tanh/scale must not under/overflow.
    let mut g = Graph::new();
    let x = g.leaf(Matrix::from_rows(&[vec![0.7, -0.3, 1.1]]));
    let mut h = x;
    for i in 0..20 {
        h = g.tanh(h);
        h = g.scale(h, if i % 2 == 0 { 1.5 } else { 0.7 });
    }
    let loss = g.mean_all(h);
    g.backward(loss);
    let grad = g.grad(x).unwrap();
    assert!(grad.all_finite());
}

/// `Scalar` with a call counter on each of backward's two products.
#[derive(Debug, Default)]
struct CountingBackend {
    nt: AtomicUsize,
    tn: AtomicUsize,
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn matmul(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        Scalar.matmul(a, b, out);
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.nt.fetch_add(1, Ordering::Relaxed);
        Scalar.matmul_nt(a, b, out);
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        self.tn.fetch_add(1, Ordering::Relaxed);
        Scalar.matmul_tn(a, b, out);
    }
}

/// Builds `mean(tanh(a · b))` on a counting workspace, with each operand a
/// leaf or a constant, and runs backward. Returns the `(matmul_nt,
/// matmul_tn)` call counts and the gradients of `a` and `b`.
fn matmul_backward(a_leaf: bool, b_leaf: bool) -> ((usize, usize), Option<Matrix>, Option<Matrix>) {
    let mut r = rng::seeded(21);
    let a = rng::normal_matrix(&mut r, 5, 7, 1.0);
    let b = rng::normal_matrix(&mut r, 7, 3, 1.0);
    let backend = Arc::new(CountingBackend::default());
    let mut g = Graph::with_workspace(Workspace::with_backend(backend.clone()));
    let insert = |g: &mut Graph, m: Matrix, leaf: bool| -> Node {
        if leaf {
            g.leaf(m)
        } else {
            g.constant(m)
        }
    };
    let an = insert(&mut g, a, a_leaf);
    let bn = insert(&mut g, b, b_leaf);
    let y = g.matmul(an, bn);
    let t = g.tanh(y);
    let loss = g.mean_all(t);
    g.backward(loss);
    let calls = (
        backend.nt.load(Ordering::Relaxed),
        backend.tn.load(Ordering::Relaxed),
    );
    (calls, g.grad(an).cloned(), g.grad(bn).cloned())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn backward_skips_the_product_of_a_constant_input() {
    let (both, both_da, both_db) = matmul_backward(true, true);
    assert_eq!(both, (1, 1), "leaf · leaf needs dA and dB");
    let (both_da, both_db) = (both_da.unwrap(), both_db.unwrap());

    let (calls, da, db) = matmul_backward(false, true);
    assert_eq!(
        calls,
        (0, 1),
        "constant · leaf: matmul_tn once, matmul_nt never"
    );
    assert!(da.is_none());
    assert_eq!(bits(&db.unwrap()), bits(&both_db));

    let (calls, da, db) = matmul_backward(true, false);
    assert_eq!(
        calls,
        (1, 0),
        "leaf · constant: matmul_nt once, matmul_tn never"
    );
    assert!(db.is_none());
    assert_eq!(bits(&da.unwrap()), bits(&both_da));
}
