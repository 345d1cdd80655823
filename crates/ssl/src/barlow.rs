//! Barlow Twins (Zbontar et al., ICML 2021): redundancy reduction.
//!
//! The two views' projections are standardized per feature dimension across
//! the batch; their cross-correlation matrix `C` is pushed toward the
//! identity — diagonal terms toward 1 (invariance) and off-diagonal terms
//! toward 0 (decorrelation). No negatives, no momentum encoder, no
//! stop-gradient.
//!
//! Not part of the paper's method set — included as a library extension
//! (the `SslMethod` trait makes it a drop-in Calibre backbone like the
//! other six).
//!
//! Implementation note: per-column standardization is expressed with tape
//! primitives as `transpose → layer_norm → transpose`, which normalizes
//! each feature across the batch exactly as the original method requires.

use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_tensor::nn::{Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Graph, Matrix, Node};

/// Off-diagonal weight λ of the Barlow Twins loss (the original paper's
/// 5e-3 is tuned for 8192-d projections; this is the standard re-scaling
/// for small projectors).
const LAMBDA: f32 = 0.05;

/// The Barlow Twins objective on two views' `(n, d)` projections:
/// standardize each feature across the batch, form the cross-correlation
/// `C = ÂᵀB̂ / n`, and sum `Σᵢ (1 − Cᵢᵢ)² + λ Σ_{i≠j} Cᵢⱼ²`.
fn barlow_loss(graph: &mut Graph, h_e: Node, h_o: Node, n: usize, d: usize) -> Node {
    // Standardize each feature dimension across the batch:
    // transpose → per-row layer norm → transpose.
    let he_t = graph.transpose(h_e);
    let he_std_t = graph.layer_norm(he_t);
    let he_std = graph.transpose(he_std_t);
    let ho_t = graph.transpose(h_o);
    let ho_std_t = graph.layer_norm(ho_t);
    let ho_std = graph.transpose(ho_std_t);

    // Cross-correlation C = (Âᵀ B̂) / N, (d, d).
    let he_std_t2 = graph.transpose(he_std);
    let cross = graph.matmul(he_std_t2, ho_std);
    let c = graph.scale(cross, 1.0 / n as f32);

    // Loss = Σᵢ (1 − Cᵢᵢ)² + λ Σ_{i≠j} Cᵢⱼ².
    let identity = graph.constant(Matrix::identity(d));
    let diff = graph.sub(c, identity);
    let sq = graph.mul(diff, diff);
    // Off-diagonal part: zero the diagonal of the squared deviations.
    let off_diag_sq = graph.mask_diagonal(sq, 0.0);
    let off_sum = graph.sum_all(off_diag_sq);
    let all_sum = graph.sum_all(sq);
    // Diagonal sum = total − off-diagonal.
    let neg_off = graph.scale(off_sum, -1.0);
    let diag_sum = graph.add(all_sum, neg_off);
    let weighted_off = graph.scale(off_sum, LAMBDA);
    graph.add(diag_sum, weighted_off)
}

/// The Barlow Twins method: encoder + projector trained to make the
/// cross-correlation of the two views' standardized projections equal to
/// the identity.
#[derive(Debug, Clone)]
pub struct BarlowTwins {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
}

impl BarlowTwins {
    /// Creates a Barlow Twins model (deterministic in `config.seed`).
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        BarlowTwins {
            config,
            encoder,
            projector,
        }
    }

    /// The off-diagonal loss weight λ.
    pub fn lambda() -> f32 {
        LAMBDA
    }
}

impl Module for BarlowTwins {
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

impl SslMethod for BarlowTwins {
    fn name(&self) -> &'static str {
        "BarlowTwins"
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

    fn build_graph_with(
        &self,
        batch: &TwoViewBatch<'_>,
        mut graph: calibre_tensor::Graph,
    ) -> SslGraph {
        let _span = calibre_telemetry::span("barlow_forward");
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
        let ssl_loss = barlow_loss(&mut graph, h_e, h_o, n, d);

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
        // Barlow Twins has no auxiliary state.
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
        let m = BarlowTwins::new(SslConfig::for_input(64));
        let (va, vb) = batch_pair(1, 16);
        let sslg = m.build_graph(&TwoViewBatch::new(&va, &vb));
        let v = sslg.graph.value(sslg.ssl_loss).get(0, 0);
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
    }

    #[test]
    fn identical_views_have_lower_loss_than_independent_views() {
        let m = BarlowTwins::new(SslConfig::for_input(64));
        let mut r = seeded(2);
        let base = normal_matrix(&mut r, 16, 64, 1.0);
        let noise = normal_matrix(&mut r, 16, 64, 1.0);

        let aligned = m.build_graph(&TwoViewBatch::new(&base, &base));
        let aligned_loss = aligned.graph.value(aligned.ssl_loss).get(0, 0);

        let independent = m.build_graph(&TwoViewBatch::new(&base, &noise));
        let independent_loss = independent.graph.value(independent.ssl_loss).get(0, 0);

        assert!(
            aligned_loss < independent_loss,
            "aligned {aligned_loss} should beat independent {independent_loss}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = BarlowTwins::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.02, 0.9));
        let (va, vb) = batch_pair(3, 16);
        let batch = TwoViewBatch::new(&va, &vb);
        let first = ssl_step(&mut m, &batch, &mut opt);
        let mut last = first;
        for _ in 0..25 {
            last = ssl_step(&mut m, &batch, &mut opt);
        }
        assert!(
            last < first,
            "Barlow loss should decrease: {first} -> {last}"
        );
    }

    #[test]
    fn loss_gradient_matches_finite_differences() {
        // Two correlated views, so C is neither the identity nor zero.
        let (n, d) = (8, 4);
        let e = normal_matrix(&mut seeded(5), n, d, 1.0);
        let o = e.add(&normal_matrix(&mut seeded(6), n, d, 0.7));
        for (view, x, other) in [("e", &e, &o), ("o", &o, &e)] {
            let report = check_gradient(x, 1e-2, |g, x| {
                let other = g.constant_from(other);
                match view {
                    "e" => barlow_loss(g, x, other, n, d),
                    _ => barlow_loss(g, other, x, n, d),
                }
            });
            assert!(
                report.max_grad > 1e-3 && report.passes(1e-2),
                "view {view}: {report:?}"
            );
        }
    }

    #[test]
    fn has_no_extra_state_beyond_encoder_and_projector() {
        let m = BarlowTwins::new(SslConfig::for_input(64));
        assert_eq!(
            m.num_scalars(),
            m.encoder.num_scalars() + m.projector.num_scalars()
        );
    }
}
