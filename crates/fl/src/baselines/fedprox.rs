//! FedProx (Li et al., MLSys 2020): FedAvg with a proximal term
//! `μ/2 · ‖w − w_global‖²` in every local objective, damping client drift
//! under heterogeneity.
//!
//! Not part of the paper's benchmark roster — provided as a library
//! extension because it is the most common drift-control baseline and the
//! plumbing (per-batch proximal pull) was already needed for Ditto.

use crate::baselines::{
    client_round_seed, evaluate_with_head_finetune, local_sgd, supervised_reply, train_rounds,
    BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{render_labeled, supervised_step, ClassifierModel, TrainScope};
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::Module;
use calibre_tensor::rng;

/// Runs FedProx end to end with proximal strength `mu`, reporting its
/// rounds to `recorder`; evaluation uses the `-FT` rule (head fine-tuning),
/// making it directly comparable with FedAvg-FT.
pub fn run_fedprox(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    mu: f32,
    recorder: &dyn Recorder,
) -> BaselineResult {
    assert!(mu >= 0.0, "proximal strength must be non-negative");
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    let (round_losses, _) = train_rounds(
        fed,
        cfg,
        &mut global,
        recorder,
        |round, id, _: Option<()>, global_flat: &[f32]| {
            let data = fed.client(id);
            let mut local = template.clone();
            local.load_flat(global_flat);
            let mut opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let mut loss_sum = 0.0;
            let mut steps = 0;
            for _ in 0..cfg.local_epochs {
                for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
                    let (x, y) = render_labeled(data, fed.generator(), &batch);
                    loss_sum += supervised_step(&mut local, &x, &y, &mut opt, TrainScope::Full);
                    // Proximal pull toward the round's global parameters.
                    if mu > 0.0 {
                        let local_flat = local.to_flat();
                        let pulled: Vec<f32> = local_flat
                            .iter()
                            .zip(global_flat.iter())
                            .map(|(&w, &g)| w - cfg.local_lr * mu * (w - g))
                            .collect();
                        local.load_flat(&pulled);
                    }
                    steps += 1;
                }
            }
            let loss = loss_sum / steps.max(1) as f32;
            let (reply, losses) = supervised_reply(local.to_flat(), data.train_len(), loss);
            ((), reply, losses)
        },
    );

    let head = global.head().clone();
    let seen = evaluate_with_head_finetune(global.encoder(), fed, num_classes, &cfg.probe, |_| {
        head.clone()
    });
    BaselineResult {
        name: "FedProx-FT".to_string(),
        seen,
        encoder: global.encoder().clone(),
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};
    use calibre_telemetry::NullRecorder;

    fn tiny_fed() -> FederatedDataset {
        FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 40,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity {
                    classes_per_client: 2,
                },
                seed: 61,
            },
        )
    }

    fn tiny_cfg() -> FlConfig {
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        cfg
    }

    #[test]
    fn fedprox_learns_under_label_skew() {
        let result = run_fedprox(&tiny_fed(), &tiny_cfg(), 0.1, &NullRecorder);
        assert!(
            result.stats().mean > 0.5,
            "FedProx-FT accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn zero_mu_matches_fedavg() {
        use crate::baselines::fedavg::run_fedavg;
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let prox = run_fedprox(&fed, &cfg, 0.0, &NullRecorder);
        let avg = run_fedavg(&fed, &cfg, true, &NullRecorder);
        assert_eq!(prox.seen.accuracies, avg.seen.accuracies);
    }

    #[test]
    fn proximal_term_keeps_local_models_closer_to_global() {
        // Compare one client's post-update distance to the global model with
        // and without the proximal pull. Run a single round with one client.
        let fed = tiny_fed();
        let mut cfg = tiny_cfg();
        cfg.rounds = 1;
        cfg.clients_per_round = 1;
        let init = ClassifierModel::new(&cfg.ssl, 10, cfg.seed).to_flat();
        let distance = |result: &BaselineResult| -> f32 {
            result
                .encoder
                .to_flat()
                .iter()
                .zip(init.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        let loose = run_fedprox(&fed, &cfg, 0.0, &NullRecorder);
        let tight = run_fedprox(&fed, &cfg, 5.0, &NullRecorder);
        assert!(
            distance(&tight) < distance(&loose),
            "prox {} should be closer than plain {}",
            distance(&tight),
            distance(&loose)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mu_rejected() {
        run_fedprox(&tiny_fed(), &tiny_cfg(), -1.0, &NullRecorder);
    }
}
