//! VICReg (Bardes, Ponce & LeCun, ICLR 2022): variance-invariance-covariance
//! regularization.
//!
//! Three terms over the two views' projections:
//!
//! - **invariance**: mean squared error between the views;
//! - **variance**: a hinge keeping every feature's batch standard deviation
//!   above 1 (collapse prevention);
//! - **covariance**: off-diagonal entries of each view's covariance matrix
//!   pushed to zero (decorrelation).
//!
//! Library extension (not in the paper's method set); like Barlow Twins it
//! needs no negatives, momentum encoder or stop-gradient.

use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_tensor::nn::{Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Graph, Matrix, Node};

/// Invariance weight (λ). The original paper uses 25 with LARS at large
/// batch; at our scale and plain SGD that diverges, so the standard ratios
/// are kept at a 5× smaller magnitude.
const INVARIANCE: f32 = 5.0;
/// Variance-hinge weight (μ).
const VARIANCE: f32 = 5.0;
/// Covariance weight (ν).
const COVARIANCE: f32 = 0.2;

/// The VICReg method: encoder + projector with the three-term objective.
#[derive(Debug, Clone)]
pub struct VicReg {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
}

impl VicReg {
    /// Creates a VICReg model (deterministic in `config.seed`).
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        VicReg {
            config,
            encoder,
            projector,
        }
    }

    /// The three loss weights `(invariance, variance, covariance)`.
    pub fn weights() -> (f32, f32, f32) {
        (INVARIANCE, VARIANCE, COVARIANCE)
    }
}

/// Variance hinge `mean_d max(0, 1 − std_d)` over the batch, plus the
/// covariance penalty `Σ_{i≠j} Cov_{ij}² / d`, both differentiable.
fn variance_covariance_terms(g: &mut Graph, h: Node, n: usize, d: usize) -> (Node, Node) {
    // Center the features: h − column means. `group_mean_rows` with a single
    // all-zero group averages over the batch dimension, giving `(1, d)`.
    let all_one_group = vec![0usize; n];
    let col_means = g.group_mean_rows(h, &all_one_group, 1);
    let neg_means = g.scale(col_means, -1.0);
    let centered = g.add_row(h, neg_means);

    // Per-feature variance: mean of squared centered values over the batch.
    let sq = g.mul(centered, centered);
    let var_row = g.group_mean_rows(sq, &all_one_group, 1); // (1, d)
                                                            // std = sqrt(var + eps); hinge = mean(max(0, 1 - std)).
    let eps = g.add_scalar(var_row, 1e-4);
    let log_var = g.log(eps);
    let half_log = g.scale(log_var, 0.5);
    let std = g.exp(half_log); // sqrt via exp(0.5 ln x)
    let neg_std = g.scale(std, -1.0);
    let one_minus = g.add_scalar(neg_std, 1.0);
    let hinge = g.relu(one_minus);
    let variance_term = g.mean_all(hinge);

    // Covariance: C = centeredᵀ centered / (n − 1); penalize off-diagonal.
    let centered_t = g.transpose(centered);
    let cov = g.matmul(centered_t, centered);
    let cov = g.scale(cov, 1.0 / (n.max(2) as f32 - 1.0));
    let off = g.mask_diagonal(cov, 0.0);
    let off_sq = g.mul(off, off);
    let off_sum = g.sum_all(off_sq);
    let covariance_term = g.scale(off_sum, 1.0 / d as f32);

    (variance_term, covariance_term)
}

impl Module for VicReg {
    fn parameters(&self) -> Vec<&Matrix> {
        let mut p = self.encoder.parameters();
        p.extend(self.projector.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.encoder.parameters_mut();
        p.extend(self.projector.parameters_mut());
        p
    }
}

impl SslMethod for VicReg {
    fn name(&self) -> &'static str {
        "VICReg"
    }

    fn config(&self) -> &SslConfig {
        &self.config
    }

    fn encoder(&self) -> &Mlp {
        &self.encoder
    }

    fn encoder_mut(&mut self) -> &mut Mlp {
        &mut self.encoder
    }

    fn build_graph_with(&self, batch: &TwoViewBatch<'_>, mut graph: Graph) -> SslGraph {
        let _span = calibre_telemetry::span("vicreg_forward");
        let n = batch.len();
        let d = self.config.projection_dim;
        let mut binding = Binding::new();
        let enc = self.encoder.bind(&mut graph, &mut binding);
        let proj = self.projector.bind(&mut graph, &mut binding);

        let xe = graph.constant_from(batch.view_e);
        let xo = graph.constant_from(batch.view_o);
        let z_e = self.encoder.forward_with(&mut graph, xe, &enc);
        let z_o = self.encoder.forward_with(&mut graph, xo, &enc);
        let h_e = self.projector.forward_with(&mut graph, z_e, &proj);
        let h_o = self.projector.forward_with(&mut graph, z_o, &proj);

        // Invariance: MSE between the two views.
        let diff = graph.sub(h_e, h_o);
        let diff_sq = graph.mul(diff, diff);
        let invariance = graph.mean_all(diff_sq);

        // Variance + covariance terms per view.
        let (var_e, cov_e) = variance_covariance_terms(&mut graph, h_e, n, d);
        let (var_o, cov_o) = variance_covariance_terms(&mut graph, h_o, n, d);

        let inv_w = graph.scale(invariance, INVARIANCE);
        let var_sum = graph.add(var_e, var_o);
        let var_w = graph.scale(var_sum, VARIANCE / 2.0);
        let cov_sum = graph.add(cov_e, cov_o);
        let cov_w = graph.scale(cov_sum, COVARIANCE / 2.0);
        let partial = graph.add(inv_w, var_w);
        let ssl_loss = graph.add(partial, cov_w);

        SslGraph {
            graph,
            binding,
            z_e,
            z_o,
            h_e,
            h_o,
            ssl_loss,
            aux: Vec::new(),
        }
    }

    fn post_step(&mut self, _ssl_graph: &SslGraph) {
        // VICReg has no auxiliary state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ssl_step;
    use calibre_tensor::gradcheck::check_gradient;
    use calibre_tensor::optim::{Sgd, SgdConfig};
    use calibre_tensor::rng::{normal_matrix, seeded};

    fn batch_pair(seed: u64, n: usize) -> (Matrix, Matrix) {
        let mut r = seeded(seed);
        let base = normal_matrix(&mut r, n, 64, 1.0);
        (base.map(|v| v + 0.04), base.map(|v| v - 0.04))
    }

    #[test]
    fn loss_is_finite_and_nonnegative() {
        let m = VicReg::new(SslConfig::for_input(64));
        let (va, vb) = batch_pair(1, 24);
        let sslg = m.build_graph(&TwoViewBatch::new(&va, &vb));
        let v = sslg.graph.value(sslg.ssl_loss).get(0, 0);
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
    }

    #[test]
    fn identical_views_zero_the_invariance_term() {
        // With identical views only variance + covariance remain; a batch of
        // identical *rows* would maximize the variance hinge instead.
        let m = VicReg::new(SslConfig::for_input(64));
        let mut r = seeded(2);
        let base = normal_matrix(&mut r, 24, 64, 1.0);
        let same = m.build_graph(&TwoViewBatch::new(&base, &base));
        let same_loss = same.graph.value(same.ssl_loss).get(0, 0);
        let noise = normal_matrix(&mut r, 24, 64, 1.0);
        let diff = m.build_graph(&TwoViewBatch::new(&base, &noise));
        let diff_loss = diff.graph.value(diff.ssl_loss).get(0, 0);
        assert!(
            same_loss < diff_loss,
            "identical views {same_loss} should beat independent {diff_loss}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = VicReg::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.01, 0.9));
        let (va, vb) = batch_pair(3, 24);
        let batch = TwoViewBatch::new(&va, &vb);
        let first = ssl_step(&mut m, &batch, &mut opt);
        let mut last = first;
        for _ in 0..30 {
            last = ssl_step(&mut m, &batch, &mut opt);
        }
        assert!(
            last < first,
            "VICReg loss should decrease: {first} -> {last}"
        );
    }

    #[test]
    fn variance_and_covariance_gradients_match_finite_differences() {
        // Features with std ≈ 0.3 keep every column inside the hinge's
        // active side (1 − std ≈ 0.7), away from its kink at std = 1.
        let (n, d) = (8, 5);
        let h = normal_matrix(&mut seeded(5), n, d, 0.3);
        for (term, pick) in [("variance", 0), ("covariance", 1)] {
            let report = check_gradient(&h, 1e-2, |g, x| {
                let (variance, covariance) = variance_covariance_terms(g, x, n, d);
                [variance, covariance][pick]
            });
            assert!(
                report.max_grad > 1e-3 && report.passes(1e-2),
                "{term}: {report:?}"
            );
        }
    }

    #[test]
    fn collapsed_projections_trigger_the_variance_hinge() {
        // Feed a batch of identical samples: every feature's std is 0, so
        // the variance term must be ≈ 1 per view (hinge fully active).
        let m = VicReg::new(SslConfig::for_input(64));
        let row = normal_matrix(&mut seeded(4), 1, 64, 1.0);
        let collapsed = Matrix::from_rows(&vec![row.row(0).to_vec(); 16]);
        let sslg = m.build_graph(&TwoViewBatch::new(&collapsed, &collapsed));
        let v = sslg.graph.value(sslg.ssl_loss).get(0, 0);
        // invariance = 0, covariance = 0 → loss ≈ VARIANCE · 1.
        assert!(
            (v - VARIANCE).abs() < VARIANCE * 0.1,
            "collapse should cost ≈{VARIANCE}, got {v}"
        );
    }
}
