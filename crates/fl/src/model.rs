//! The supervised classifier model (encoder + linear head) and its local
//! training loops — shared by every label-based baseline.
//!
//! Architecture matches the paper's discipline: the encoder is identical to
//! the SSL encoder (`SslConfig::encoder_layer_dims`), and the head is a
//! single linear layer ("the fully-connected layers of both networks are
//! substituted with a linear classifier", §V-A).

use calibre_data::batch::batches;
use calibre_data::{ClientData, Sample, SynthVision};
use calibre_ssl::SslConfig;
use calibre_tensor::nn::{Activation, Binding, Linear, Mlp, Module};
use calibre_tensor::optim::Sgd;
use calibre_tensor::pool::report_arena_stats;
use calibre_tensor::{rng, Matrix, StepArena};
use rand::Rng;

/// Encoder + linear head classifier.
#[derive(Debug, Clone)]
pub struct ClassifierModel {
    encoder: Mlp,
    head: Linear,
}

impl ClassifierModel {
    /// Creates a classifier with the workspace-standard architecture for
    /// `num_classes` outputs (deterministic in `seed`).
    pub fn new(ssl_config: &SslConfig, num_classes: usize, seed: u64) -> Self {
        let mut r = rng::seeded(seed);
        let encoder = Mlp::new(&ssl_config.encoder_layer_dims(), Activation::Relu, &mut r);
        let head = Linear::new(ssl_config.repr_dim(), num_classes, &mut r);
        ClassifierModel { encoder, head }
    }

    /// The encoder backbone.
    pub fn encoder(&self) -> &Mlp {
        &self.encoder
    }

    /// Mutable encoder access.
    pub fn encoder_mut(&mut self) -> &mut Mlp {
        &mut self.encoder
    }

    /// The linear head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Mutable head access.
    pub fn head_mut(&mut self) -> &mut Linear {
        &mut self.head
    }

    /// Replaces the head.
    pub fn set_head(&mut self, head: Linear) {
        self.head = head;
    }

    /// Logits for a batch of observations (inference path).
    pub fn infer(&self, observations: &Matrix) -> Matrix {
        self.head.infer(&self.encoder.infer(observations))
    }

    /// Classification accuracy on a client's rendered test set.
    pub fn test_accuracy(&self, data: &ClientData, generator: &SynthVision) -> f32 {
        if data.test.is_empty() {
            return 0.0;
        }
        let x = generator.render_batch(data.test.iter());
        let labels = data.test_labels();
        let logits = self.infer(&x);
        let correct = (0..logits.rows())
            .filter(|&r| argmax(logits.row(r)) == labels[r])
            .count();
        correct as f32 / labels.len() as f32
    }
}

impl Module for ClassifierModel {
    fn parameters(&self) -> Vec<&Matrix> {
        let mut p = self.encoder.parameters();
        p.extend(self.head.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.encoder.parameters_mut();
        p.extend(self.head.parameters_mut());
        p
    }
}

/// Index of the largest value in a slice.
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        // analyze:allow(no-expect) -- documented contract: argmax of an
        // empty slice has no answer, and every caller passes a logits row.
        .expect("non-empty slice")
}

/// Which parts of a [`ClassifierModel`] a local update trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainScope {
    /// Encoder and head jointly (FedAvg, FedPer, LG-FedAvg, Script).
    Full,
    /// Encoder only, head frozen (FedBABU; FedRep's encoder phase).
    EncoderOnly,
    /// Head only, encoder frozen (FedRep's head phase; fine-tuning).
    HeadOnly,
}

/// Runs `epochs` of supervised cross-entropy training on a client's local
/// training split. Returns the mean loss of the final epoch.
///
/// The `scope` selects which parameters receive gradients; frozen parts
/// still participate in the forward pass.
#[allow(clippy::too_many_arguments)] // mirrors the paper's local-update signature
pub fn train_supervised<R: Rng + ?Sized>(
    model: &mut ClassifierModel,
    data: &ClientData,
    generator: &SynthVision,
    epochs: usize,
    batch_size: usize,
    opt: &mut Sgd,
    scope: TrainScope,
    rng_: &mut R,
) -> f32 {
    if data.train.is_empty() {
        return 0.0;
    }
    let mut last_epoch_loss = 0.0;
    let mut arena = StepArena::new();
    for _ in 0..epochs {
        let mut epoch_loss = 0.0;
        let mut batches_seen = 0;
        for batch in batches(data.train.len(), batch_size, false, rng_) {
            let (x, y) = render_labeled(data, generator, &batch);
            epoch_loss += supervised_step_in(model, &x, &y, opt, scope, &mut arena);
            batches_seen += 1;
        }
        last_epoch_loss = epoch_loss / batches_seen.max(1) as f32;
    }
    report_arena_stats(&arena);
    last_epoch_loss
}

/// Renders the training samples at `batch` (indices into `data.train`) as
/// observations and their labels, in batch order.
pub(crate) fn render_labeled(
    data: &ClientData,
    generator: &SynthVision,
    batch: &[usize],
) -> (Matrix, Vec<usize>) {
    let samples: Vec<&Sample> = batch.iter().filter_map(|&i| data.train.get(i)).collect();
    let labels = samples.iter().map(|s| s.expect_label()).collect();
    (generator.render_batch(samples), labels)
}

/// One supervised gradient step on a rendered batch. Returns the loss.
/// Allocates a fresh tape; step loops should prefer [`supervised_step_in`]
/// with a reused [`StepArena`].
pub fn supervised_step(
    model: &mut ClassifierModel,
    x: &Matrix,
    y: &[usize],
    opt: &mut Sgd,
    scope: TrainScope,
) -> f32 {
    let mut arena = StepArena::new();
    supervised_step_in(model, x, y, opt, scope, &mut arena)
}

/// Like [`supervised_step`], building the loss graph on the arena's recycled
/// tape. The frozen scope is expressed as a gradient mask to the optimizer
/// (frozen parameters behave exactly as if their gradients were zero, so
/// momentum/weight-decay bookkeeping is unchanged). Bit-identical to
/// [`supervised_step`].
pub fn supervised_step_in(
    model: &mut ClassifierModel,
    x: &Matrix,
    y: &[usize],
    opt: &mut Sgd,
    scope: TrainScope,
    arena: &mut StepArena,
) -> f32 {
    let mut g = arena.take();
    let xn = g.constant_from(x);
    let mut binding = Binding::new();
    let feats = model.encoder.forward(&mut g, xn, &mut binding);
    let logits = model.head.forward(&mut g, feats, &mut binding);
    let loss = g.cross_entropy(logits, y);
    let loss_value = g.value(loss).get(0, 0);
    g.backward(loss);
    let encoder_params = model.encoder.parameters().len();
    let frozen = |i: usize| match scope {
        TrainScope::Full => false,
        TrainScope::EncoderOnly => i >= encoder_params,
        TrainScope::HeadOnly => i < encoder_params,
    };
    opt.step_graph_masked(model, &g, &binding, frozen);
    arena.put(g);
    loss_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
    use calibre_tensor::optim::SgdConfig;

    fn small_fed() -> FederatedDataset {
        FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 2,
                train_per_client: 60,
                test_per_client: 30,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 3,
                },
                seed: 1,
            },
        )
    }

    #[test]
    fn supervised_training_improves_accuracy() {
        let fed = small_fed();
        let cfg = SslConfig::for_input(64);
        let mut model = ClassifierModel::new(&cfg, 10, 0);
        let data = fed.client(0);
        let before = model.test_accuracy(data, fed.generator());
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut r = rng::seeded(2);
        train_supervised(
            &mut model,
            data,
            fed.generator(),
            15,
            16,
            &mut opt,
            TrainScope::Full,
            &mut r,
        );
        let after = model.test_accuracy(data, fed.generator());
        assert!(
            after > before + 0.2,
            "accuracy should improve substantially: {before} -> {after}"
        );
    }

    #[test]
    fn encoder_only_scope_freezes_head() {
        let fed = small_fed();
        let cfg = SslConfig::for_input(64);
        let mut model = ClassifierModel::new(&cfg, 10, 0);
        let head_before = model.head().to_flat();
        let enc_before = model.encoder().to_flat();
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let mut r = rng::seeded(3);
        train_supervised(
            &mut model,
            fed.client(0),
            fed.generator(),
            1,
            16,
            &mut opt,
            TrainScope::EncoderOnly,
            &mut r,
        );
        assert_eq!(model.head().to_flat(), head_before, "head must stay frozen");
        assert_ne!(model.encoder().to_flat(), enc_before, "encoder must train");
    }

    #[test]
    fn head_only_scope_freezes_encoder() {
        let fed = small_fed();
        let cfg = SslConfig::for_input(64);
        let mut model = ClassifierModel::new(&cfg, 10, 0);
        let head_before = model.head().to_flat();
        let enc_before = model.encoder().to_flat();
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let mut r = rng::seeded(4);
        train_supervised(
            &mut model,
            fed.client(0),
            fed.generator(),
            1,
            16,
            &mut opt,
            TrainScope::HeadOnly,
            &mut r,
        );
        assert_ne!(model.head().to_flat(), head_before, "head must train");
        assert_eq!(
            model.encoder().to_flat(),
            enc_before,
            "encoder must stay frozen"
        );
    }

    #[test]
    fn flat_roundtrip_covers_encoder_and_head() {
        let cfg = SslConfig::for_input(64);
        let model = ClassifierModel::new(&cfg, 10, 0);
        let mut other = ClassifierModel::new(&cfg, 10, 99);
        assert_ne!(model.to_flat(), other.to_flat());
        other.load_flat(&model.to_flat());
        assert_eq!(model.to_flat(), other.to_flat());
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[-3.0]), 0);
    }
}
