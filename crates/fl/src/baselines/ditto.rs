//! Ditto (Li et al., ICML 2021): fair and robust FL through personalization.
//!
//! A global model trains FedAvg-style; in parallel, each client maintains a
//! personal model trained with a proximal term `λ/2 · ‖v − w_global‖²` that
//! tethers it to the global solution. The personal model is the one
//! evaluated — Ditto is the paper's dedicated fairness baseline (§V-A).

use crate::baselines::{
    client_round_seed, local_sgd, supervised_reply, train_rounds, BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{
    render_labeled, supervised_step, train_supervised, ClassifierModel, TrainScope,
};
use crate::parallel::parallel_map_owned;
use crate::personalize::PersonalizationOutcome;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// The proximal strength λ (Ditto's default grid centers on ~0.1–1).
const LAMBDA: f32 = 0.5;

/// Runs Ditto end to end, reporting its rounds to `recorder`.
pub fn run_ditto(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    // Every client owns a persistent personal model, seeded per client.
    let fresh_personal =
        |id: usize| ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed ^ 0xD1770 ^ id as u64);
    let (round_losses, personals) = train_rounds(
        fed,
        cfg,
        &mut global,
        recorder,
        |round, id, personal: Option<ClassifierModel>, global_flat: &[f32]| {
            let data = fed.client(id);
            let mut w = template.clone();
            w.load_flat(global_flat);
            let mut v = personal.unwrap_or_else(|| fresh_personal(id));
            let mut w_opt = local_sgd(cfg);
            let mut v_opt = Sgd::new(SgdConfig::with_lr(cfg.local_lr));
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let mut loss_sum = 0.0;
            let mut steps = 0;
            for _ in 0..cfg.local_epochs {
                for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                    let (x, y) = render_labeled(data, fed.generator(), &batch);
                    // Global-model step (what the server aggregates).
                    loss_sum += supervised_step(&mut w, &x, &y, &mut w_opt, TrainScope::Full);
                    // Personal-model step with the proximal pull toward the
                    // round's global parameters.
                    supervised_step(&mut v, &x, &y, &mut v_opt, TrainScope::Full);
                    let v_flat = v.to_flat();
                    let pulled: Vec<f32> = v_flat
                        .iter()
                        .zip(global_flat.iter())
                        .map(|(&vv, &gg)| vv - cfg.local_lr * LAMBDA * (vv - gg))
                        .collect();
                    v.load_flat(&pulled);
                    steps += 1;
                }
            }
            let loss = loss_sum / steps.max(1) as f32;
            let (reply, losses) = supervised_reply(w.to_flat(), data.train_len(), loss);
            (v, reply, losses)
        },
    );

    // Evaluation: the personal models. Clients never selected during
    // training still hold their initialization, so give every client a
    // final personal pass (this mirrors Ditto's solver, where the personal
    // objective is optimized locally and cheaply).
    let global_flat = global.to_flat();
    let clients: Vec<(usize, ClassifierModel)> = personals
        .into_iter()
        .enumerate()
        .map(|(id, v)| (id, v.unwrap_or_else(|| fresh_personal(id))))
        .collect();
    let accuracies = parallel_map_owned(clients, |(id, mut v)| {
        let mut opt = Sgd::new(SgdConfig::with_lr(cfg.probe.lr));
        let mut r = rng::seeded(cfg.seed ^ 0xD1_770E ^ id as u64);
        let data = fed.client(id);
        for _ in 0..cfg.probe.epochs {
            train_supervised(
                &mut v,
                data,
                fed.generator(),
                1,
                cfg.probe.batch_size,
                &mut opt,
                TrainScope::Full,
                &mut r,
            );
            let v_flat = v.to_flat();
            let pulled: Vec<f32> = v_flat
                .iter()
                .zip(global_flat.iter())
                .map(|(&vv, &gg)| vv - cfg.probe.lr * LAMBDA * (vv - gg))
                .collect();
            v.load_flat(&pulled);
        }
        v.test_accuracy(data, fed.generator())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    BaselineResult {
        name: "Ditto".to_string(),
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
    fn ditto_personal_models_learn() {
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
                seed: 41,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_ditto(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.6,
            "Ditto mean accuracy {:?}",
            result.stats()
        );
    }
}
