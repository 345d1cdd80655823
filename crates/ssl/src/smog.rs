//! SMoG (Pang et al., ECCV 2022): synchronous momentum grouping.
//!
//! Group centers play the role of instance-level negatives: each sample is
//! assigned to its nearest group (from one view) and classified into that
//! group from the other view. Groups are *not* learned by gradient — they
//! are momentum-updated from assigned features and periodically reset by a
//! fresh KMeans over recently-seen features, which is the "synchronous
//! grouping" of the original method (scaled to this reproduction's batch
//! regime).

use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_cluster::{assign_to_centroids, kmeans, KMeansConfig};
use calibre_tensor::nn::{Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Graph, Matrix, Node};

/// SMoG's loss on two views' normalized projections: each view's scores
/// against the group centers / τ classify it into the group the *other*
/// view was assigned to, under cross-entropy, averaged over both
/// directions. Groups and assignments enter as constants: neither is
/// learned by gradient.
fn grouping_loss(
    graph: &mut Graph,
    (hn_e, hn_o): (Node, Node),
    groups: &Matrix,
    (assign_e, assign_o): (&[usize], &[usize]),
    tau: f32,
) -> Node {
    let groups_t = graph.constant(groups.transpose());
    let logits_o = graph.matmul(hn_o, groups_t);
    let logits_o = graph.scale(logits_o, 1.0 / tau);
    let groups_t2 = graph.constant(groups.transpose());
    let logits_e = graph.matmul(hn_e, groups_t2);
    let logits_e = graph.scale(logits_e, 1.0 / tau);
    let ce_o = graph.cross_entropy(logits_o, assign_e);
    let ce_e = graph.cross_entropy(logits_e, assign_o);
    let sum = graph.add(ce_e, ce_o);
    graph.scale(sum, 0.5)
}

/// The SMoG method: encoder + projector with momentum-updated group centers.
#[derive(Debug, Clone)]
pub struct Smog {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
    /// Group centers, `(K, projection_dim)`, rows kept unit-norm.
    groups: Matrix,
    /// Recently seen (normalized) projections, used for group resets.
    feature_buffer: Vec<Vec<f32>>,
    steps: usize,
}

impl Smog {
    /// Creates a SMoG model (deterministic in `config.seed`).
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        let groups = rng::normal_matrix(&mut r, config.num_prototypes, config.projection_dim, 1.0)
            .row_l2_normalized();
        Smog {
            config,
            encoder,
            projector,
            groups,
            feature_buffer: Vec::new(),
            steps: 0,
        }
    }

    /// The current group centers.
    pub fn groups(&self) -> &Matrix {
        &self.groups
    }

    /// Number of optimizer steps taken (group resets happen every
    /// `config.group_reset_interval` steps).
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl Module for Smog {
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

impl SslMethod for Smog {
    fn name(&self) -> &'static str {
        "SMoG"
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
        let _span = calibre_telemetry::span("smog_forward");
        let mut binding = Binding::new();
        let enc = self.encoder.bind(&mut graph, &mut binding);
        let proj = self.projector.bind(&mut graph, &mut binding);

        let xe = graph.constant_from(batch.view_e);
        let xo = graph.constant_from(batch.view_o);
        let z_e = self.encoder.forward_with(&mut graph, xe, &enc);
        let z_o = self.encoder.forward_with(&mut graph, xo, &enc);
        let h_e = self.projector.forward_with(&mut graph, z_e, &proj);
        let h_o = self.projector.forward_with(&mut graph, z_o, &proj);

        let hn_e = graph.row_l2_normalize(h_e);
        let hn_o = graph.row_l2_normalize(h_o);

        // Assignments from each view's (detached) features.
        let assign_e = assign_to_centroids(graph.value(hn_e), &self.groups);
        let assign_o = assign_to_centroids(graph.value(hn_o), &self.groups);
        let ssl_loss = grouping_loss(
            &mut graph,
            (hn_e, hn_o),
            &self.groups,
            (&assign_e, &assign_o),
            self.config.tau,
        );

        // Post-step needs the normalized features and their assignments to
        // momentum-update the groups.
        let feats = graph.value(hn_e).clone();
        let assign_matrix = Matrix::from_vec(
            assign_e.len(),
            1,
            assign_e.iter().map(|&a| a as f32).collect(),
        );

        SslGraph {
            graph,
            binding,
            z_e,
            z_o,
            h_e,
            h_o,
            ssl_loss,
            aux: vec![feats, assign_matrix],
        }
    }

    fn post_step(&mut self, ssl_graph: &SslGraph) {
        self.steps += 1;
        let feats = &ssl_graph.aux[0];
        let assigns: Vec<usize> = ssl_graph.aux[1].iter().map(|&v| v as usize).collect();

        // Momentum update of group centers from their assigned features.
        let k = self.groups.rows();
        let mut sums = Matrix::zeros(k, self.groups.cols());
        let mut counts = vec![0usize; k];
        for (r, &a) in assigns.iter().enumerate() {
            counts[a] += 1;
            for (o, &v) in sums.row_mut(a).iter_mut().zip(feats.row(r)) {
                *o += v;
            }
        }
        let m = self.config.group_momentum;
        for (g, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let inv = 1.0 / count as f32;
            for (c, s) in sums.row(g).iter().enumerate() {
                let mean = s * inv;
                let old = self.groups.get(g, c);
                self.groups.set(g, c, m * old + (1.0 - m) * mean);
            }
        }
        self.groups = self.groups.row_l2_normalized();

        // Buffer features; periodically reset groups with a fresh KMeans.
        for r in 0..feats.rows() {
            self.feature_buffer.push(feats.row(r).to_vec());
        }
        let cap = (self.config.num_prototypes * 32).max(256);
        if self.feature_buffer.len() > cap {
            let excess = self.feature_buffer.len() - cap;
            self.feature_buffer.drain(0..excess);
        }
        if self.steps.is_multiple_of(self.config.group_reset_interval)
            && self.feature_buffer.len() >= self.config.num_prototypes
        {
            let data = Matrix::from_rows(&self.feature_buffer);
            let result = kmeans(
                &data,
                &KMeansConfig {
                    k: self.config.num_prototypes,
                    max_iters: 20,
                    tol: 1e-3,
                    seed: self.config.seed ^ self.steps as u64,
                    n_init: 1,
                },
            );
            // Pad (rare: fewer distinct points than groups) by keeping old rows.
            if result.centroids.rows() == self.groups.rows() {
                self.groups = result.centroids.row_l2_normalized();
            }
        }
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
    fn groups_are_unit_rows() {
        let m = Smog::new(SslConfig::for_input(64));
        for norm in m.groups().row_norms() {
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn grouping_loss_gradient_matches_finite_differences() {
        // The assignments are computed once, from the unperturbed views,
        // and held constant, as the method detaches them.
        let cfg = SslConfig::for_input(64);
        let (n, d, k) = (8, 4, 3);
        let e = normal_matrix(&mut seeded(21), n, d, 1.0);
        let o = e.add(&normal_matrix(&mut seeded(22), n, d, 0.5));
        let groups = normal_matrix(&mut seeded(23), k, d, 1.0).row_l2_normalized();
        let assign = |x: &Matrix| assign_to_centroids(&x.row_l2_normalized(), &groups);
        let (assign_e, assign_o) = (assign(&e), assign(&o));
        for (view, x, other) in [("e", &e, &o), ("o", &o, &e)] {
            let report = check_gradient(x, 1e-2, |g, x| {
                let other = g.constant_from(other);
                let (hn_x, hn_other) = (g.row_l2_normalize(x), g.row_l2_normalize(other));
                let views = match view {
                    "e" => (hn_x, hn_other),
                    _ => (hn_other, hn_x),
                };
                grouping_loss(g, views, &groups, (&assign_e, &assign_o), cfg.tau)
            });
            assert!(
                report.max_grad > 1e-3 && report.passes(1e-2),
                "view {view}: {report:?}"
            );
        }
    }

    #[test]
    fn groups_move_with_momentum_updates() {
        let mut m = Smog::new(SslConfig::for_input(64));
        let before = m.groups().clone();
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let (va, vb) = batch_pair(1, 16);
        ssl_step(&mut m, &TwoViewBatch::new(&va, &vb), &mut opt);
        assert_ne!(m.groups(), &before, "groups should momentum-update");
    }

    #[test]
    fn group_reset_fires_at_interval() {
        let mut cfg = SslConfig::for_input(64);
        cfg.group_reset_interval = 3;
        cfg.num_prototypes = 4;
        let mut m = Smog::new(cfg);
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let (va, vb) = batch_pair(2, 16);
        for _ in 0..4 {
            ssl_step(&mut m, &TwoViewBatch::new(&va, &vb), &mut opt);
        }
        assert_eq!(m.steps(), 4);
        // After the reset the groups are kmeans centroids of buffered
        // features: all unit rows still.
        for norm in m.groups().row_norms() {
            assert!((norm - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = Smog::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let (va, vb) = batch_pair(3, 16);
        let batch = TwoViewBatch::new(&va, &vb);
        let first = ssl_step(&mut m, &batch, &mut opt);
        let mut last = first;
        for _ in 0..20 {
            last = ssl_step(&mut m, &batch, &mut opt);
        }
        assert!(last < first, "SMoG loss should decrease: {first} -> {last}");
    }
}
