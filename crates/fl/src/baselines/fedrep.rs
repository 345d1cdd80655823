//! FedRep (Collins et al., ICML 2021): a shared representation with local
//! heads. Each selected client first refines its *local* head on the frozen
//! shared encoder, then updates the encoder with the head frozen; only the
//! encoder is aggregated.

use crate::baselines::{
    client_round_seed, evaluate_with_head_finetune, local_sgd, supervised_reply, train_rounds,
    BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use calibre_data::FederatedDataset;
use calibre_telemetry::Recorder;
use calibre_tensor::nn::{Linear, Module};
use calibre_tensor::rng;

/// Runs FedRep end to end, reporting its rounds to `recorder`.
pub fn run_fedrep(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global_encoder = template.encoder().clone();
    // Every client owns a persistent local head, seeded per client.
    let fresh_head = |id: usize| {
        let mut r = rng::seeded(cfg.seed ^ 0x0FED_00EB ^ id as u64);
        Linear::new(cfg.ssl.repr_dim(), num_classes, &mut r)
    };
    let (round_losses, heads) = train_rounds(
        fed,
        cfg,
        &mut global_encoder,
        recorder,
        |round, id, head: Option<Linear>, global: &[f32]| {
            let mut model = template.clone();
            model.encoder_mut().load_flat(global);
            model.set_head(head.unwrap_or_else(|| fresh_head(id)));
            let mut opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let data = fed.client(id);
            // Phase 1: head only, frozen encoder (FedRep trains the head to
            // convergence first — we give it the configured local epochs).
            train_supervised(
                &mut model,
                data,
                fed.generator(),
                cfg.local_epochs,
                cfg.batch_size,
                &mut opt,
                TrainScope::HeadOnly,
                &mut r,
            );
            // Phase 2: one encoder epoch with the head frozen.
            let loss = train_supervised(
                &mut model,
                data,
                fed.generator(),
                1,
                cfg.batch_size,
                &mut opt,
                TrainScope::EncoderOnly,
                &mut r,
            );
            let (reply, losses) =
                supervised_reply(model.encoder().to_flat(), data.train_len(), loss);
            (model.head().clone(), reply, losses)
        },
    );

    // Personalization: each seen client fine-tunes its own head on the
    // frozen shared encoder.
    let seen = evaluate_with_head_finetune(&global_encoder, fed, num_classes, &cfg.probe, |id| {
        heads
            .get(id)
            .cloned()
            .flatten()
            .unwrap_or_else(|| fresh_head(id))
    });

    BaselineResult {
        name: "FedRep".to_string(),
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
    fn fedrep_learns_personalized_heads() {
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
                seed: 17,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_fedrep(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.6,
            "FedRep mean accuracy {:?}",
            result.stats()
        );
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
    }
}
