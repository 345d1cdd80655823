//! FedBABU (Oh et al., ICLR 2022): train the *body*, freeze the *head*.
//!
//! The head stays at its shared random initialization for the entire
//! training stage and is never aggregated; only the encoder learns. At
//! personalization time each client fine-tunes the head from that shared
//! initialization. The paper (§II) notes FedBABU's two-stage structure is
//! the closest supervised relative of Calibre's own pipeline.

use crate::baselines::{
    client_round_seed, evaluate_with_head_finetune, local_sgd, supervised_reply, train_rounds,
    BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::Module;
use calibre_tensor::rng;

/// Runs FedBABU end to end, reporting its rounds to `recorder`.
pub fn run_fedbabu(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    // One shared random head, fixed for the entire training stage.
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global_encoder = template.encoder().clone();
    let (round_losses, _) = train_rounds(
        fed,
        cfg,
        &mut global_encoder,
        recorder,
        |round, id, _: Option<()>, global: &[f32]| {
            let mut model = template.clone();
            model.encoder_mut().load_flat(global);
            let mut opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let data = fed.client(id);
            let loss = train_supervised(
                &mut model,
                data,
                fed.generator(),
                cfg.local_epochs,
                cfg.batch_size,
                &mut opt,
                TrainScope::EncoderOnly,
                &mut r,
            );
            let (reply, losses) =
                supervised_reply(model.encoder().to_flat(), data.train_len(), loss);
            ((), reply, losses)
        },
    );

    // Personalization: fine-tune the head from the shared initialization.
    let seen = evaluate_with_head_finetune(&global_encoder, fed, num_classes, &cfg.probe, |_| {
        template.head().clone()
    });

    BaselineResult {
        name: "FedBABU".to_string(),
        seen,
        encoder: global_encoder,
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    #[test]
    fn fedbabu_trains_body_and_personalizes_head() {
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
                seed: 19,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_fedbabu(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.6,
            "FedBABU mean accuracy {:?}",
            result.stats()
        );
    }
}
