//! MoCo v2 (He et al., CVPR 2020; Chen et al., 2020): momentum contrast with
//! a queue of negative keys and an EMA key encoder.

use crate::method::{SslGraph, SslMethod, TwoViewBatch};
use crate::SslConfig;
use calibre_tensor::nn::{ema_update, Activation, Binding, Mlp, Module};
use calibre_tensor::{rng, Graph, Matrix, Node};
use std::collections::VecDeque;

/// MoCo's symmetric InfoNCE on two views' normalized queries: each
/// query's logit 0 is its dot with the *other* view's aligned key (the
/// positive), and its negatives are the queued keys, or every key of the
/// batch while the queue is empty; logits / τ under cross-entropy toward
/// column 0, averaged over both directions. The keys and the queue come
/// from the EMA networks and enter as constants.
fn info_nce(
    graph: &mut Graph,
    (q_e, q_o): (Node, Node),
    (k_e, k_o): (&Matrix, &Matrix),
    queue: &Matrix,
    tau: f32,
) -> Node {
    let n = k_e.rows();
    let build_logits = |graph: &mut Graph, q, keys: &Matrix| {
        // Positive logit: rowwise dot with the aligned key.
        let keys_node = graph.constant_from(keys);
        let l_pos = graph.rowwise_dot(q, keys_node);
        if queue.is_empty() {
            // Fall back to in-batch negatives: q × all keysᵀ with the
            // positive in column 0 handled below via concat ordering.
            let keys_t = graph.constant(keys.transpose());
            let l_all = graph.matmul(q, keys_t);
            let cat = graph.concat_cols(l_pos, l_all);
            graph.scale(cat, 1.0 / tau)
        } else {
            let queue_t = graph.constant(queue.transpose());
            let l_neg = graph.matmul(q, queue_t);
            let cat = graph.concat_cols(l_pos, l_neg);
            graph.scale(cat, 1.0 / tau)
        }
    };
    let logits_e = build_logits(graph, q_e, k_o);
    let logits_o = build_logits(graph, q_o, k_e);
    let targets = vec![0usize; n];
    let ce_e = graph.cross_entropy(logits_e, &targets);
    let ce_o = graph.cross_entropy(logits_o, &targets);
    let sum = graph.add(ce_e, ce_o);
    graph.scale(sum, 0.5)
}

/// The MoCoV2 method: query encoder/projector (trainable), key
/// encoder/projector (EMA), and a FIFO queue of negative keys.
#[derive(Debug, Clone)]
pub struct MoCoV2 {
    config: SslConfig,
    encoder: Mlp,
    projector: Mlp,
    key_encoder: Mlp,
    key_projector: Mlp,
    queue: VecDeque<Vec<f32>>,
}

impl MoCoV2 {
    /// Creates a MoCoV2 model; key networks start as copies of the query
    /// networks and the queue starts empty.
    pub fn new(config: SslConfig) -> Self {
        let mut r = rng::seeded(config.seed);
        let encoder = Mlp::new(&config.encoder_layer_dims(), Activation::Relu, &mut r);
        let projector = Mlp::new(&config.projector_layer_dims(), Activation::Relu, &mut r);
        let key_encoder = encoder.clone();
        let key_projector = projector.clone();
        MoCoV2 {
            config,
            encoder,
            projector,
            key_encoder,
            key_projector,
            queue: VecDeque::new(),
        }
    }

    /// Current number of queued negative keys.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The queued negatives as a matrix (empty ⇒ zero rows).
    fn queue_matrix(&self) -> Matrix {
        if self.queue.is_empty() {
            return Matrix::zeros(0, self.config.projection_dim);
        }
        let rows: Vec<Vec<f32>> = self.queue.iter().cloned().collect();
        Matrix::from_rows(&rows)
    }

    fn push_keys(&mut self, keys: &Matrix) {
        for r in 0..keys.rows() {
            self.queue.push_back(keys.row(r).to_vec());
            while self.queue.len() > self.config.queue_size {
                self.queue.pop_front();
            }
        }
    }
}

impl Module for MoCoV2 {
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

impl SslMethod for MoCoV2 {
    fn name(&self) -> &'static str {
        "MoCoV2"
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
        let _span = calibre_telemetry::span("moco_forward");
        let mut binding = Binding::new();
        let enc = self.encoder.bind(&mut graph, &mut binding);
        let proj = self.projector.bind(&mut graph, &mut binding);

        let xe = graph.constant_from(batch.view_e);
        let xo = graph.constant_from(batch.view_o);
        // Queries from both views through the trainable networks.
        let z_e = self.encoder.forward_with(&mut graph, xe, &enc);
        let z_o = self.encoder.forward_with(&mut graph, xo, &enc);
        let h_e = self.projector.forward_with(&mut graph, z_e, &proj);
        let h_o = self.projector.forward_with(&mut graph, z_o, &proj);

        // Keys from the EMA networks, normalized, as constants.
        let k_e = self
            .key_projector
            .infer(&self.key_encoder.infer(batch.view_e))
            .row_l2_normalized();
        let k_o = self
            .key_projector
            .infer(&self.key_encoder.infer(batch.view_o))
            .row_l2_normalized();

        // Symmetric InfoNCE: query view e vs key view o and vice versa.
        let queue = self.queue_matrix();
        let q_e = graph.row_l2_normalize(h_e);
        let q_o = graph.row_l2_normalize(h_o);
        let ssl_loss = info_nce(
            &mut graph,
            (q_e, q_o),
            (&k_e, &k_o),
            &queue,
            self.config.tau,
        );

        SslGraph {
            graph,
            binding,
            z_e,
            z_o,
            h_e,
            h_o,
            ssl_loss,
            // Keys of view o enqueue after the step (one view is enough; this
            // matches the original MoCo bookkeeping).
            aux: vec![k_o],
        }
    }

    fn post_step(&mut self, ssl_graph: &SslGraph) {
        let m = self.config.ema_momentum;
        ema_update(&mut self.key_encoder, &self.encoder, m);
        ema_update(&mut self.key_projector, &self.projector, m);
        if let Some(keys) = ssl_graph.aux.first() {
            self.push_keys(keys);
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
    fn queue_fills_and_caps() {
        let mut cfg = SslConfig::for_input(64);
        cfg.queue_size = 20;
        let mut m = MoCoV2::new(cfg);
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let (va, vb) = batch_pair(1, 8);
        let batch = TwoViewBatch::new(&va, &vb);
        assert_eq!(m.queue_len(), 0);
        ssl_step(&mut m, &batch, &mut opt);
        assert_eq!(m.queue_len(), 8);
        for _ in 0..5 {
            ssl_step(&mut m, &batch, &mut opt);
        }
        assert_eq!(m.queue_len(), 20, "queue must cap at queue_size");
    }

    #[test]
    fn training_reduces_loss_on_fresh_batches() {
        // MoCo's queue stores keys of *previous* batches as negatives, so a
        // realistic test must feed distinct samples per step (a repeated
        // batch would put the current positives into the queue and make the
        // task degenerate).
        // The CE loss scale grows with the negative count, so the trend is
        // only meaningful once the queue has reached its capacity.
        let mut m = MoCoV2::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut step = 0u64;
        while m.queue_len() < m.config.queue_size {
            let (va, vb) = batch_pair(100 + step, 16);
            ssl_step(&mut m, &TwoViewBatch::new(&va, &vb), &mut opt);
            step += 1;
        }
        let mut losses = Vec::new();
        for _ in 0..25 {
            let (va, vb) = batch_pair(100 + step, 16);
            losses.push(ssl_step(&mut m, &TwoViewBatch::new(&va, &vb), &mut opt));
            step += 1;
        }
        let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            late < early,
            "MoCoV2 loss should trend down after queue warmup: {early} -> {late} ({losses:?})"
        );
        // And the full-queue loss must beat the chance level ln(queue+1).
        let chance = ((m.config.queue_size + 1) as f32).ln();
        assert!(
            late < chance,
            "late loss {late} should beat chance {chance}"
        );
    }

    #[test]
    fn info_nce_gradient_matches_finite_differences() {
        // Both views' queries, against in-batch negatives (empty queue)
        // and against a queue of keys; keys and queue are constants.
        let cfg = SslConfig::for_input(64);
        let (n, d) = (6, 4);
        let e = normal_matrix(&mut seeded(11), n, d, 1.0);
        let o = e.add(&normal_matrix(&mut seeded(12), n, d, 0.5));
        let k_e = e
            .add(&normal_matrix(&mut seeded(13), n, d, 0.3))
            .row_l2_normalized();
        let k_o = o
            .add(&normal_matrix(&mut seeded(14), n, d, 0.3))
            .row_l2_normalized();
        let queued = normal_matrix(&mut seeded(15), 5, d, 1.0).row_l2_normalized();
        for queue in [Matrix::zeros(0, d), queued] {
            for (view, x, other) in [("e", &e, &o), ("o", &o, &e)] {
                let report = check_gradient(x, 1e-2, |g, x| {
                    let other = g.constant_from(other);
                    let (q_x, q_other) = (g.row_l2_normalize(x), g.row_l2_normalize(other));
                    let queries = match view {
                        "e" => (q_x, q_other),
                        _ => (q_other, q_x),
                    };
                    info_nce(g, queries, (&k_e, &k_o), &queue, cfg.tau)
                });
                assert!(
                    report.max_grad > 1e-3 && report.passes(1e-2),
                    "view {view}, {} queued: {report:?}",
                    queue.rows()
                );
            }
        }
    }

    #[test]
    fn key_encoder_is_not_a_trainable_parameter() {
        let m = MoCoV2::new(SslConfig::for_input(64));
        assert_eq!(
            m.num_scalars(),
            m.encoder.num_scalars() + m.projector.num_scalars()
        );
    }

    #[test]
    fn key_networks_track_query_networks() {
        let mut m = MoCoV2::new(SslConfig::for_input(64));
        let mut opt = Sgd::new(SgdConfig::with_lr(0.2));
        let (va, vb) = batch_pair(3, 8);
        let before_key = m.key_encoder.to_flat();
        ssl_step(&mut m, &TwoViewBatch::new(&va, &vb), &mut opt);
        assert_ne!(m.key_encoder.to_flat(), before_key, "EMA must move keys");
        assert_ne!(
            m.key_encoder.to_flat(),
            m.encoder.to_flat(),
            "keys must lag queries"
        );
    }
}
