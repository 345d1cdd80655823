//! BYOL (Grill et al., NeurIPS 2020): bootstrap your own latent — an online
//! network predicts the projection of an EMA *target* network; no negatives.

use crate::losses::neg_cosine;
use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_tensor::nn::{ema_update, Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Matrix};

/// The BYOL method: online encoder/projector/predictor plus EMA target
/// encoder/projector.
#[derive(Debug, Clone)]
pub struct Byol {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
    predictor: Mlp,
    target_encoder: Mlp,
    target_projector: Mlp,
}

impl Byol {
    /// Creates a BYOL model; the target network starts as a copy of the
    /// online network (deterministic in `config.seed`).
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        let predictor = Mlp::new(&config.predictor_layer_dims(), Activation::Relu, &mut r);
        let target_encoder = encoder.clone();
        let target_projector = projector.clone();
        Byol {
            config,
            encoder,
            projector,
            predictor,
            target_encoder,
            target_projector,
        }
    }

    /// The EMA target encoder (used by FedEMA's divergence-aware updates).
    pub fn target_encoder(&self) -> &Mlp {
        &self.target_encoder
    }
}

impl Module for Byol {
    fn parameters(&self) -> Vec<&Matrix> {
        let mut p = self.encoder.parameters();
        p.extend(self.projector.parameters());
        p.extend(self.predictor.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.encoder.parameters_mut();
        p.extend(self.projector.parameters_mut());
        p.extend(self.predictor.parameters_mut());
        p
    }
}

impl SslMethod for Byol {
    fn name(&self) -> &'static str {
        "BYOL"
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
        let _span = calibre_telemetry::span("byol_forward");
        let mut binding = Binding::new();
        let enc = self.encoder.bind(&mut graph, &mut binding);
        let proj = self.projector.bind(&mut graph, &mut binding);
        let pred = self.predictor.bind(&mut graph, &mut binding);

        let xe = graph.constant_from(batch.view_e);
        let xo = graph.constant_from(batch.view_o);
        let z_e = self.encoder.forward_with(&mut graph, xe, &enc);
        let z_o = self.encoder.forward_with(&mut graph, xo, &enc);
        let h_e = self.projector.forward_with(&mut graph, z_e, &proj);
        let h_o = self.projector.forward_with(&mut graph, z_o, &proj);
        let p_e = self.predictor.forward_with(&mut graph, h_e, &pred);
        let p_o = self.predictor.forward_with(&mut graph, h_o, &pred);

        // Target projections: plain inference, inserted as constants —
        // gradients never reach the target network (BYOL's stop-gradient).
        let t_e = self
            .target_projector
            .infer(&self.target_encoder.infer(batch.view_e));
        let t_o = self
            .target_projector
            .infer(&self.target_encoder.infer(batch.view_o));
        let t_e = graph.constant(t_e);
        let t_o = graph.constant(t_o);

        let l1 = neg_cosine(&mut graph, p_e, t_o);
        let l2 = neg_cosine(&mut graph, p_o, t_e);
        let sum = graph.add(l1, l2);
        let ssl_loss = graph.scale(sum, 0.5);

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
        let m = self.config.ema_momentum;
        ema_update(&mut self.target_encoder, &self.encoder, m);
        ema_update(&mut self.target_projector, &self.projector, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ssl_step;
    use calibre_tensor::optim::{Sgd, SgdConfig};
    use calibre_tensor::rng::{normal_matrix, seeded};

    #[test]
    fn target_starts_as_copy_of_online() {
        let m = Byol::new(SslConfig::for_input(64));
        assert_eq!(m.encoder().to_flat(), m.target_encoder().to_flat());
    }

    #[test]
    fn target_lags_online_after_steps() {
        let mut m = Byol::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
        let mut r = seeded(1);
        let base = normal_matrix(&mut r, 8, 64, 1.0);
        let batch_a = base.map(|v| v + 0.05);
        let batch_b = base.map(|v| v - 0.05);
        ssl_step(&mut m, &TwoViewBatch::new(&batch_a, &batch_b), &mut opt);
        let online = m.encoder().to_flat();
        let target = m.target_encoder().to_flat();
        assert_ne!(online, target, "target must lag the online network");
        // Target moved a little toward online (not frozen).
        let m2 = Byol::new(SslConfig::for_input(64));
        let init = m2.encoder().to_flat();
        let moved: f32 = target
            .iter()
            .zip(init.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(moved > 0.0, "target should have moved from init");
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = Byol::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut r = seeded(2);
        let base = normal_matrix(&mut r, 16, 64, 1.0);
        let va = base.map(|v| v + 0.03);
        let vb = base.map(|v| v - 0.03);
        let batch = TwoViewBatch::new(&va, &vb);
        let first = ssl_step(&mut m, &batch, &mut opt);
        let mut last = first;
        for _ in 0..20 {
            last = ssl_step(&mut m, &batch, &mut opt);
        }
        assert!(last < first, "BYOL loss should decrease: {first} -> {last}");
    }

    #[test]
    fn trainable_parameters_exclude_target_network() {
        let m = Byol::new(SslConfig::for_input(64));
        let enc = m.encoder.num_scalars();
        let proj = m.projector.num_scalars();
        let pred = m.predictor.num_scalars();
        assert_eq!(m.num_scalars(), enc + proj + pred);
    }
}
