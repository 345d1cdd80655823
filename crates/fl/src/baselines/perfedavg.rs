//! PerFedAvg (Fallah et al., NeurIPS 2020): personalized FL as first-order
//! MAML. The global model is trained so that a *few local adaptation steps*
//! produce a good personalized model; evaluation therefore adapts the full
//! model locally before testing.

use crate::baselines::{client_round_seed, supervised_reply, train_rounds, BaselineResult};
use crate::config::FlConfig;
use crate::model::{render_labeled, train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph, Matrix};

/// Computes cross-entropy gradients of `model` on a rendered batch.
fn batch_gradients(model: &mut ClassifierModel, x: &Matrix, y: &[usize]) -> (Vec<Matrix>, f32) {
    let mut g = Graph::new();
    let xn = g.constant(x.clone());
    let mut binding = Binding::new();
    let feats = model.encoder_mut().forward(&mut g, xn, &mut binding);
    let logits = model.head().forward(&mut g, feats, &mut binding);
    let loss = g.cross_entropy(logits, y);
    let value = g.value(loss).get(0, 0);
    g.backward(loss);
    (gradients(&g, &binding), value)
}

/// Runs PerFedAvg (FO-MAML variant) end to end, reporting its rounds to
/// `recorder`.
///
/// Inner (adaptation) learning rate is `cfg.local_lr`; the outer
/// (meta) learning rate is `cfg.local_lr / 2`, the standard β < α heuristic.
pub fn run_perfedavg(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    let alpha = cfg.local_lr;
    let beta = cfg.local_lr * 0.5;
    let (round_losses, _) = train_rounds(
        fed,
        cfg,
        &mut global,
        recorder,
        |round, id, _: Option<()>, global: &[f32]| {
            let data = fed.client(id);
            let mut model = template.clone();
            model.load_flat(global);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let mut loss_sum = 0.0;
            let mut meta_steps = 0;
            for _ in 0..cfg.local_epochs {
                let all = batches(data.train.len(), cfg.batch_size, false, &mut r);
                // Consume batches in (support, query) pairs.
                for pair in all.chunks_exact(2) {
                    let [support, query] = pair else {
                        continue;
                    };
                    let (x_s, y_s) = render_labeled(data, fed.generator(), support);
                    let (x_q, y_q) = render_labeled(data, fed.generator(), query);
                    // Inner step on the support batch.
                    let mut inner = model.clone();
                    let (support_grads, _) = batch_gradients(&mut inner, &x_s, &y_s);
                    for (p, g) in inner.parameters_mut().into_iter().zip(support_grads.iter()) {
                        p.add_scaled(g, -alpha);
                    }
                    // First-order meta gradient: query gradient at the
                    // adapted point, applied to the un-adapted model.
                    let (query_grads, loss) = batch_gradients(&mut inner, &x_q, &y_q);
                    for (p, g) in model.parameters_mut().into_iter().zip(query_grads.iter()) {
                        p.add_scaled(g, -beta);
                    }
                    loss_sum += loss;
                    meta_steps += 1;
                }
            }
            let loss = loss_sum / meta_steps.max(1) as f32;
            let (reply, losses) = supervised_reply(model.to_flat(), data.train_len(), loss);
            ((), reply, losses)
        },
    );

    // Personalization: every client adapts the full model locally (the MAML
    // payoff) for the probe budget, then tests.
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let mut model = global.clone();
        let mut opt = Sgd::new(SgdConfig::with_lr(alpha));
        let mut r = rng::seeded(cfg.seed ^ 0x9E37 ^ id as u64);
        train_supervised(
            &mut model,
            fed.client(id),
            fed.generator(),
            cfg.probe.epochs,
            cfg.probe.batch_size,
            &mut opt,
            TrainScope::Full,
            &mut r,
        );
        model.test_accuracy(fed.client(id), fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "PerFedAvg".to_string(),
        seen,
        encoder: global.encoder().clone(),
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    #[test]
    fn perfedavg_adapts_quickly_after_meta_training() {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 64,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 31,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        cfg.batch_size = 16;
        let result = run_perfedavg(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.6,
            "PerFedAvg mean accuracy {:?}",
            result.stats()
        );
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
    }
}
