//! APFL (Deng et al., 2020): adaptive personalized federated learning.
//!
//! Every client keeps a *local* model `v` alongside the shared model `w`;
//! its personalized predictor is the mixture `ᾱ·v + (1−ᾱ)·w`. During the
//! local update the client trains `w` (shipped to the server, FedAvg-style)
//! and takes mixture-gradient steps on `v`; the mixing weight `α` adapts by
//! a closed-form gradient step, as in the original paper.

use crate::baselines::{
    client_round_seed, local_sgd, supervised_reply, train_rounds, BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{render_labeled, supervised_step, ClassifierModel, TrainScope};
use crate::parallel::parallel_map_owned;
use crate::personalize::PersonalizationOutcome;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::{rng, Graph};

/// Builds the mixture model `ᾱ·v + (1−ᾱ)·w`.
fn mix_models(v: &ClassifierModel, w: &ClassifierModel, alpha: f32) -> ClassifierModel {
    let mut mixed = v.clone();
    let vw: Vec<f32> = v
        .to_flat()
        .iter()
        .zip(w.to_flat().iter())
        .map(|(&a, &b)| alpha * a + (1.0 - alpha) * b)
        .collect();
    mixed.load_flat(&vw);
    mixed
}

/// Runs APFL end to end, reporting its rounds to `recorder`.
pub fn run_apfl(fed: &FederatedDataset, cfg: &FlConfig, recorder: &dyn Recorder) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    // Every client owns a persistent local model, seeded per client, and
    // its mixing weight.
    let fresh_local = |id: usize| {
        let v = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0xAF1 ^ id as u64);
        (v, 0.5f32)
    };
    let (round_losses, locals) = train_rounds(
        fed,
        cfg,
        &mut global,
        recorder,
        |round, id, local: Option<(ClassifierModel, f32)>, global_flat: &[f32]| {
            let data = fed.client(id);
            let mut w = template.clone();
            w.load_flat(global_flat);
            let (mut v, mut alpha) = local.unwrap_or_else(|| fresh_local(id));
            let mut w_opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let mut loss_sum = 0.0;
            let mut steps = 0;
            for _ in 0..cfg.local_epochs {
                for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                    let (x, y) = render_labeled(data, fed.generator(), &batch);
                    // Step the shared model (this is what the server sees).
                    loss_sum += supervised_step(&mut w, &x, &y, &mut w_opt, TrainScope::Full);
                    // Mixture gradient step on the personal model v:
                    // ∂L(ᾱv + (1−ᾱ)w)/∂v = ᾱ · ∂L/∂mixed.
                    let mut mixed = mix_models(&v, &w, alpha);
                    let mut g = Graph::new();
                    let xn = g.constant(x);
                    let mut binding = Binding::new();
                    let feats = mixed.encoder_mut().forward(&mut g, xn, &mut binding);
                    let logits = mixed.head().forward(&mut g, feats, &mut binding);
                    let loss = g.cross_entropy(logits, &y);
                    g.backward(loss);
                    let grads = gradients(&g, &binding);
                    for (p, gr) in v.parameters_mut().into_iter().zip(grads.iter()) {
                        p.add_scaled(gr, -cfg.local_lr * alpha);
                    }
                    // Adaptive α: gradient of the mixture loss w.r.t. α is
                    // ⟨∇L(mixed), v − w⟩.
                    let flat_grads: Vec<f32> =
                        grads.iter().flat_map(|m| m.as_slice().to_vec()).collect();
                    let diff: Vec<f32> = v
                        .to_flat()
                        .iter()
                        .zip(w.to_flat().iter())
                        .map(|(&a, &b)| a - b)
                        .collect();
                    let alpha_grad: f32 = flat_grads
                        .iter()
                        .zip(diff.iter())
                        .map(|(&g_, &d)| g_ * d)
                        .sum();
                    alpha = (alpha - cfg.local_lr * alpha_grad).clamp(0.0, 1.0);
                    steps += 1;
                }
            }
            let loss = loss_sum / steps.max(1) as f32;
            let (reply, losses) = supervised_reply(w.to_flat(), data.train_len(), loss);
            ((v, alpha), reply, losses)
        },
    );

    // Personalization: the mixture model IS the personalized model.
    let clients: Vec<(usize, (ClassifierModel, f32))> = locals
        .into_iter()
        .enumerate()
        .map(|(id, local)| (id, local.unwrap_or_else(|| fresh_local(id))))
        .collect();
    let accuracies = parallel_map_owned(clients, |(id, (v, alpha))| {
        let mixed = mix_models(&v, &global, alpha);
        mixed.test_accuracy(fed.client(id), fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "APFL".to_string(),
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
    fn apfl_mixture_personalizes() {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 40,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 37,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_apfl(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.55,
            "APFL mean accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn mix_models_interpolates() {
        let cfg = FlConfig::for_input(64);
        let a = ClassifierModel::new(&cfg.ssl, 10, 0);
        let b = ClassifierModel::new(&cfg.ssl, 10, 1);
        let mixed = mix_models(&a, &b, 0.25);
        let (fa, fb, fm) = (a.to_flat(), b.to_flat(), mixed.to_flat());
        for i in 0..fa.len() {
            let expected = 0.25 * fa[i] + 0.75 * fb[i];
            assert!((fm[i] - expected).abs() < 1e-6);
        }
    }
}
