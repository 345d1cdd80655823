//! FedAvg (McMahan et al., AISTATS 2017) and FedAvg-FT.
//!
//! FedAvg trains one global classifier by sample-weighted averaging of full
//! local models. The `-FT` variant (paper §V-A) additionally fine-tunes the
//! head on each client's local data during personalization.

use crate::baselines::{
    client_round_seed, evaluate_with_head_finetune, local_sgd, supervised_reply, train_rounds,
    BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use calibre_data::FederatedDataset;
use calibre_telemetry::{NullRecorder, Recorder};
use calibre_tensor::nn::Module;
use calibre_tensor::rng;

/// Trains a global classifier with FedAvg and returns it together with the
/// round-loss history.
pub fn train_fedavg_global(fed: &FederatedDataset, cfg: &FlConfig) -> (ClassifierModel, Vec<f32>) {
    train_global(fed, cfg, &NullRecorder)
}

/// [`train_fedavg_global`], reporting its rounds to `recorder`.
fn train_global(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> (ClassifierModel, Vec<f32>) {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    let (round_losses, _) = train_rounds(
        fed,
        cfg,
        &mut global,
        recorder,
        |round, id, _: Option<()>, global: &[f32]| {
            let mut local = template.clone();
            local.load_flat(global);
            let mut opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let data = fed.client(id);
            let loss = train_supervised(
                &mut local,
                data,
                fed.generator(),
                cfg.local_epochs,
                cfg.batch_size,
                &mut opt,
                TrainScope::Full,
                &mut r,
            );
            let (reply, losses) = supervised_reply(local.to_flat(), data.train_len(), loss);
            ((), reply, losses)
        },
    );
    (global, round_losses)
}

/// Runs FedAvg end to end, reporting its rounds to `recorder`.
///
/// With `finetune == false` every client evaluates the unmodified global
/// model (plain FedAvg); with `finetune == true` each client fine-tunes the
/// global head on its local data first (FedAvg-FT).
pub fn run_fedavg(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    finetune: bool,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let (global, round_losses) = train_global(fed, cfg, recorder);

    let seen = if finetune {
        let head = global.head().clone();
        evaluate_with_head_finetune(global.encoder(), fed, num_classes, &cfg.probe, |_| {
            head.clone()
        })
    } else {
        let ids: Vec<usize> = (0..fed.num_clients()).collect();
        let accuracies = parallel_map(&ids, |&id| {
            global.test_accuracy(fed.client(id), fed.generator())
        });
        PersonalizationOutcome::from_accuracies(accuracies)
    };

    BaselineResult {
        name: if finetune { "FedAvg-FT" } else { "FedAvg" }.to_string(),
        seen,
        encoder: global.encoder().clone(),
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

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
                seed: 11,
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
    fn fedavg_ft_beats_plain_fedavg_under_label_skew() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let plain = run_fedavg(&fed, &cfg, false, &NullRecorder);
        let ft = run_fedavg(&fed, &cfg, true, &NullRecorder);
        // Under 2-class clients a personalized head is a huge win — this is
        // the paper's core motivation for personalization.
        assert!(
            ft.stats().mean > plain.stats().mean,
            "FT {:?} should beat plain {:?}",
            ft.stats(),
            plain.stats()
        );
        assert!(ft.stats().mean > 0.5, "FT accuracy {:?}", ft.stats());
    }

    #[test]
    fn training_loss_decreases_over_rounds() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_fedavg(&fed, &cfg, true, &NullRecorder);
        let first = result.round_losses.first().copied().unwrap();
        let last = result.round_losses.last().copied().unwrap();
        assert!(
            last < first,
            "round losses should fall: {:?}",
            result.round_losses
        );
    }

    #[test]
    fn result_is_deterministic() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let a = run_fedavg(&fed, &cfg, true, &NullRecorder);
        let b = run_fedavg(&fed, &cfg, true, &NullRecorder);
        assert_eq!(a.seen.accuracies, b.seen.accuracies);
    }
}
