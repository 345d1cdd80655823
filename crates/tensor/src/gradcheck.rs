//! Finite-difference gradient checking.
//!
//! Every op in [`crate::Graph`] is validated against a central-difference
//! numerical gradient in the test suites. The checker rebuilds the graph for
//! each perturbed input via a user-supplied closure, so it works for any
//! composite expression, not just single ops.

use crate::{Graph, Matrix, Node};

/// Result of a gradient check: the largest deviation between analytic and
/// numerical gradient entries, and the largest analytic entry that sets the
/// check's scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference across all input elements (NaN if any
    /// difference is NaN).
    pub max_abs_err: f32,
    /// Largest absolute entry of the analytic gradient.
    pub max_grad: f32,
}

impl GradCheckReport {
    /// Whether the largest deviation is below `tol` times the largest
    /// analytic entry. The bound is relative, so a gradient whose entries
    /// are all small cannot pass by being small: a backward that halves
    /// them fails at any `tol` below one half, and an all-zero or NaN
    /// analytic gradient never passes.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err < tol * self.max_grad
    }
}

/// Checks the analytic gradient of a scalar-valued function of one matrix
/// input against central finite differences.
///
/// `build` receives a fresh graph and the (possibly perturbed) input leaf and
/// must return the scalar output node.
///
/// # Panics
///
/// Panics if `build` returns a non-scalar node, or if the analytic backward
/// produced no gradient for the input (which would mean the input does not
/// influence the output — almost certainly a broken test).
pub fn check_gradient<F>(input: &Matrix, epsilon: f32, build: F) -> GradCheckReport
where
    F: Fn(&mut Graph, Node) -> Node,
{
    // Analytic gradient.
    let mut g = Graph::new();
    let x = g.leaf(input.clone());
    let out = build(&mut g, x);
    g.backward(out);
    let analytic = g
        .grad(x)
        // analyze:allow(no-expect) -- a gradient check on a graph where
        // the input cannot reach the output is a test-authoring error.
        .expect("input must influence the output for a gradient check")
        .clone();

    // Numerical gradient, element by element.
    let mut max_abs = 0.0f32;
    for (i, &a) in analytic.iter().enumerate() {
        let eval = |delta: f32| -> f32 {
            let mut perturbed = input.clone();
            if let Some(v) = perturbed.as_mut_slice().get_mut(i) {
                *v += delta;
            }
            let mut g = Graph::new();
            let x = g.leaf(perturbed);
            let out = build(&mut g, x);
            assert_eq!(
                g.value(out).shape(),
                (1, 1),
                "gradcheck requires scalar output"
            );
            g.value(out).get(0, 0)
        };
        let numeric = (eval(epsilon) - eval(-epsilon)) / (2.0 * epsilon);
        let abs = (a - numeric).abs();
        if abs > max_abs || abs.is_nan() {
            max_abs = abs;
        }
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_grad: analytic.max_abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn random_input(rows: usize, cols: usize, seed: u64) -> Matrix {
        rng::normal_matrix(&mut rng::seeded(seed), rows, cols, 1.0)
    }

    #[test]
    fn matmul_gradient() {
        let x = random_input(3, 4, 1);
        let w = random_input(4, 2, 2);
        let report = check_gradient(&x, EPS, |g, xn| {
            let wn = g.constant(w.clone());
            let y = g.matmul(xn, wn);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn relu_gradient() {
        // Offset inputs away from the kink at 0 where FD is invalid.
        let x = random_input(4, 4, 3).map(|v| if v.abs() < 0.1 { v + 0.3 } else { v });
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let y = g.relu(xn);
            g.mean_all(y)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn tanh_exp_log_chain_gradient() {
        let x = random_input(2, 3, 4).map(|v| v.abs() + 0.5);
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let t = g.tanh(xn);
            let e = g.exp(t);
            let l = g.log(e);
            g.mean_all(l)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn row_l2_normalize_gradient() {
        let x = random_input(3, 5, 5).map(|v| v + 2.0); // keep norms well away from 0
        let w = random_input(5, 1, 6);
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let n = g.row_l2_normalize(xn);
            let wn = g.constant(w.clone());
            let y = g.matmul(n, wn);
            g.mean_all(y)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn row_sum_sq_gradient() {
        let x = random_input(4, 3, 7);
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let s = g.row_sum_sq(xn);
            g.mean_all(s)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn layer_norm_gradient() {
        let x = random_input(3, 6, 20);
        let w = random_input(6, 2, 21);
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let y = g.layer_norm(xn);
            let wn = g.constant(w.clone());
            let out = g.matmul(y, wn);
            let sq = g.mul(out, out);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn cross_entropy_gradient() {
        let x = random_input(5, 4, 8);
        let targets = vec![0, 3, 1, 2, 2];
        let report = check_gradient(&x, 1e-3, |g, xn| g.cross_entropy(xn, &targets));
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn cross_entropy_soft_gradient() {
        let x = random_input(3, 4, 9);
        let t = Matrix::from_rows(&[
            vec![0.7, 0.1, 0.1, 0.1],
            vec![0.25, 0.25, 0.25, 0.25],
            vec![0.0, 0.0, 1.0, 0.0],
        ]);
        let report = check_gradient(&x, 1e-3, |g, xn| g.cross_entropy_soft(xn, t.clone()));
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn group_mean_rows_gradient() {
        let x = random_input(6, 3, 10);
        let assign = vec![0, 1, 0, 2, 1, 0];
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let c = g.group_mean_rows(xn, &assign, 3);
            let sq = g.mul(c, c);
            g.mean_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn nt_xent_style_composite_gradient() {
        // The exact computational pattern of the NT-Xent loss: normalize,
        // similarity matrix, diagonal mask, cross entropy with partners.
        let x = random_input(6, 4, 11);
        let targets = vec![3, 4, 5, 0, 1, 2]; // partner pairing for N = 3
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let h = g.row_l2_normalize(xn);
            let ht = g.transpose(h);
            let sims = g.matmul(h, ht);
            let scaled = g.scale(sims, 1.0 / 0.5);
            let masked = g.mask_diagonal(scaled, -1e9);
            g.cross_entropy(masked, &targets)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn prototype_distance_composite_gradient() {
        // The L_n pattern: squared distances to constant prototypes via the
        // ||z||² − 2·z·vᵀ + ||v||² expansion, then cross entropy.
        let z = random_input(5, 3, 12);
        let protos = random_input(2, 3, 13);
        let assign = vec![0, 1, 0, 1, 0];
        let report = check_gradient(&z, 1e-3, |g, zn| {
            let v = g.constant(protos.clone());
            let vt = g.transpose(v);
            let cross = g.matmul(zn, vt);
            let neg2cross = g.scale(cross, -2.0);
            let z_sq = g.row_sum_sq(zn);
            let with_z = g.add_col(neg2cross, z_sq);
            let v_sq_row = g.constant(protos.row_sum_sq().transpose());
            let dist_sq = g.add_row(with_z, v_sq_row);
            let neg = g.scale(dist_sq, -1.0);
            g.cross_entropy(neg, &assign)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn report_passes_judges_the_error_against_the_largest_gradient() {
        let report = |max_abs_err, max_grad| GradCheckReport {
            max_abs_err,
            max_grad,
        };
        assert!(report(1e-4, 1e-2).passes(2e-2));
        // An error below `tol` fails when it is not small next to the
        // gradient itself.
        assert!(!report(1e-3, 1e-2).passes(2e-2));
        assert!(report(1.0, 100.0).passes(2e-2));
        assert!(!report(0.0, 0.0).passes(2e-2));
        assert!(!report(f32::NAN, 1.0).passes(2e-2));
    }

    #[test]
    fn halved_small_gradient_fails() {
        // `x · detach(x)` has value x² but backward sees only one factor,
        // so the analytic gradient is x: half of the true 2x. Every entry
        // is at most 2e-3, far below the tolerance, so an absolute bound
        // would let the check pass.
        let x = random_input(3, 4, 14).scale(1e-3);
        let report = check_gradient(&x, 1e-4, |g, xn| {
            let frozen = g.detach(xn);
            let sq = g.mul(xn, frozen);
            g.sum_all(sq)
        });
        assert!(
            report.max_abs_err < TOL && report.max_grad < TOL,
            "{report:?}"
        );
        assert!(!report.passes(TOL), "{report:?}");
    }
}
