//! SwAV (Caron et al., NeurIPS 2020): online clustering with learnable
//! prototypes and Sinkhorn-balanced swapped assignments.

use crate::losses::sinkhorn;
use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_tensor::nn::{Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Graph, Matrix, Node};

/// SwAV's swapped prediction on two views' projections: row-normalize
/// them, score them against the prototypes, and let each view's scores / τ
/// predict the *other* view's codes under soft cross-entropy, averaged over
/// both directions. `codes` maps the two views' score values to their
/// Sinkhorn codes, which enter as constants: a stop-gradient.
fn swapped_prediction(
    graph: &mut Graph,
    (h_e, h_o): (Node, Node),
    protos: Node,
    tau: f32,
    codes: impl FnOnce(&Matrix, &Matrix) -> (Matrix, Matrix),
) -> Node {
    let hn_e = graph.row_l2_normalize(h_e);
    let hn_o = graph.row_l2_normalize(h_o);
    let scores_e = graph.matmul(hn_e, protos);
    let scores_o = graph.matmul(hn_o, protos);
    let (q_e, q_o) = codes(graph.value(scores_e), graph.value(scores_o));

    let logits_e = graph.scale(scores_e, 1.0 / tau);
    let logits_o = graph.scale(scores_o, 1.0 / tau);
    let ce_e = graph.cross_entropy_soft(logits_e, q_o);
    let ce_o = graph.cross_entropy_soft(logits_o, q_e);
    let sum = graph.add(ce_e, ce_o);
    graph.scale(sum, 0.5)
}

/// The SwAV method: encoder + projector + a learnable prototype bank.
///
/// Each view's normalized projection is scored against the prototypes; the
/// *other* view's Sinkhorn-balanced assignment is the soft target ("swapped
/// prediction").
#[derive(Debug, Clone)]
pub struct SwAv {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
    /// Prototype bank, `(projection_dim, K)`, columns kept unit-norm.
    prototypes: Matrix,
}

impl SwAv {
    /// Creates a SwAV model (deterministic in `config.seed`).
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        let prototypes =
            rng::normal_matrix(&mut r, config.projection_dim, config.num_prototypes, 1.0);
        let mut swav = SwAv {
            config,
            encoder,
            projector,
            prototypes,
        };
        swav.normalize_prototypes();
        swav
    }

    /// The prototype bank.
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }

    /// Renormalizes prototype columns to unit length (SwAV does this after
    /// every optimizer step).
    fn normalize_prototypes(&mut self) {
        let k = self.prototypes.cols();
        for c in 0..k {
            let norm: f32 = (0..self.prototypes.rows())
                .map(|r| self.prototypes.get(r, c).powi(2))
                .sum::<f32>()
                .sqrt();
            if norm > 1e-12 {
                for r in 0..self.prototypes.rows() {
                    let v = self.prototypes.get(r, c) / norm;
                    self.prototypes.set(r, c, v);
                }
            }
        }
    }
}

impl Module for SwAv {
    fn parameters(&self) -> Vec<&Matrix> {
        let mut p = self.encoder.parameters();
        p.extend(self.projector.parameters());
        p.push(&self.prototypes);
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.encoder.parameters_mut();
        p.extend(self.projector.parameters_mut());
        p.push(&mut self.prototypes);
        p
    }
}

impl SslMethod for SwAv {
    fn name(&self) -> &'static str {
        "SwAV"
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
        let _span = calibre_telemetry::span("swav_forward");
        let mut binding = Binding::new();
        let enc = self.encoder.bind(&mut graph, &mut binding);
        let proj = self.projector.bind(&mut graph, &mut binding);
        let protos = graph.leaf_from(&self.prototypes);
        binding.push(protos);

        let xe = graph.constant_from(batch.view_e);
        let xo = graph.constant_from(batch.view_o);
        let z_e = self.encoder.forward_with(&mut graph, xe, &enc);
        let z_o = self.encoder.forward_with(&mut graph, xo, &enc);
        let h_e = self.projector.forward_with(&mut graph, z_e, &proj);
        let h_o = self.projector.forward_with(&mut graph, z_o, &proj);

        // Sinkhorn targets from the *detached* scores of each view.
        let (epsilon, iterations) = (
            self.config.sinkhorn_epsilon,
            self.config.sinkhorn_iterations,
        );
        let ssl_loss = swapped_prediction(
            &mut graph,
            (h_e, h_o),
            protos,
            self.config.tau,
            |s_e, s_o| {
                (
                    sinkhorn(s_e, epsilon, iterations),
                    sinkhorn(s_o, epsilon, iterations),
                )
            },
        );

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
        self.normalize_prototypes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ssl_step;
    use calibre_tensor::gradcheck::check_gradient;
    use calibre_tensor::optim::{Sgd, SgdConfig};
    use calibre_tensor::rng::{normal_matrix, seeded};

    #[test]
    fn prototype_columns_are_unit_norm() {
        let m = SwAv::new(SslConfig::for_input(64));
        for c in 0..m.prototypes().cols() {
            let norm: f32 = m
                .prototypes()
                .col(c)
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt();
            assert!((norm - 1.0).abs() < 1e-5, "column {c} norm {norm}");
        }
    }

    #[test]
    fn prototypes_stay_normalized_after_steps() {
        let mut m = SwAv::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
        let mut r = seeded(1);
        let base = normal_matrix(&mut r, 12, 64, 1.0);
        let batch_a = base.map(|v| v + 0.05);
        let batch_b = base.map(|v| v - 0.05);
        for _ in 0..3 {
            ssl_step(&mut m, &TwoViewBatch::new(&batch_a, &batch_b), &mut opt);
        }
        for c in 0..m.prototypes().cols() {
            let norm: f32 = m
                .prototypes()
                .col(c)
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt();
            assert!((norm - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = SwAv::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut r = seeded(2);
        let base = normal_matrix(&mut r, 16, 64, 1.0);
        let va = base.map(|v| v + 0.03);
        let vb = base.map(|v| v - 0.03);
        let batch = TwoViewBatch::new(&va, &vb);
        let first = ssl_step(&mut m, &batch, &mut opt);
        let mut last = first;
        for _ in 0..25 {
            last = ssl_step(&mut m, &batch, &mut opt);
        }
        assert!(last < first, "SwAV loss should decrease: {first} -> {last}");
    }

    #[test]
    fn swapped_prediction_gradient_matches_finite_differences() {
        // The codes are computed once, from the unperturbed input, and held
        // constant: SwAV treats them as a stop-gradient.
        let cfg = SslConfig::for_input(64);
        let (n, d, k) = (6, 4, 5);
        let e = normal_matrix(&mut seeded(7), n, d, 1.0);
        let o = e.add(&normal_matrix(&mut seeded(8), n, d, 0.5));
        let protos = normal_matrix(&mut seeded(9), d, k, 0.5);
        let mut g = Graph::new();
        let [h_e, h_o, p] = [&e, &o, &protos].map(|m| g.constant_from(m));
        let mut fixed = None;
        swapped_prediction(&mut g, (h_e, h_o), p, cfg.tau, |s_e, s_o| {
            let eps = cfg.sinkhorn_epsilon;
            let codes = (
                sinkhorn(s_e, eps, cfg.sinkhorn_iterations),
                sinkhorn(s_o, eps, cfg.sinkhorn_iterations),
            );
            fixed = Some(codes.clone());
            codes
        });
        let (q_e, q_o) = fixed.unwrap();
        let inputs = [("e", &e), ("o", &o), ("prototypes", &protos)];
        for (at, (name, input)) in inputs.iter().enumerate() {
            let report = check_gradient(input, 1e-2, |g, x| {
                let [h_e, h_o, p]: [Node; 3] = std::array::from_fn(|i| match i == at {
                    true => x,
                    false => g.constant_from(inputs[i].1),
                });
                swapped_prediction(g, (h_e, h_o), p, cfg.tau, |_, _| (q_e.clone(), q_o.clone()))
            });
            assert!(
                report.max_grad > 1e-3 && report.passes(1e-2),
                "{name}: {report:?}"
            );
        }
    }

    #[test]
    fn prototypes_are_trainable_parameters() {
        let m = SwAv::new(SslConfig::for_input(64));
        let expected = m.encoder.num_scalars() + m.projector.num_scalars() + m.prototypes.len();
        assert_eq!(m.num_scalars(), expected);
    }
}
