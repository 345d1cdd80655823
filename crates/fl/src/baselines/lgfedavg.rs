//! LG-FedAvg (Liang et al., 2019): *local* representations, *global* head —
//! the mirror image of FedPer. Each client keeps a personal encoder; only
//! the classifier head is aggregated.

use crate::aggregate::{aggregate_robust, Aggregator};
use crate::baselines::{
    client_round_seed, local_sgd, supervised_reply, train_rounds, BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{train_supervised, ClassifierModel, TrainScope};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use calibre_data::FederatedDataset;
use calibre_ssl::{probe_accuracy, train_linear_probe_from};
use calibre_telemetry::Recorder;
use calibre_tensor::nn::{Activation, Mlp, Module};
use calibre_tensor::rng;

/// Runs LG-FedAvg end to end, reporting its rounds to `recorder`.
///
/// The exported `encoder` in the result is the uniform average of all client
/// encoders — LG-FedAvg has no true global encoder, and this average is what
/// a novel client would reasonably bootstrap from.
pub fn run_lgfedavg(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global_head = template.head().clone();
    // Every client owns a persistent local encoder, seeded per client.
    let fresh_encoder = |id: usize| {
        let mut r = rng::seeded(cfg.seed ^ 0x16FED ^ id as u64);
        Mlp::new(&cfg.ssl.encoder_layer_dims(), Activation::Relu, &mut r)
    };
    // Only the head aggregates.
    let (round_losses, encoders) = train_rounds(
        fed,
        cfg,
        &mut global_head,
        recorder,
        |round, id, encoder: Option<Mlp>, global: &[f32]| {
            let mut model = template.clone();
            *model.encoder_mut() = encoder.unwrap_or_else(|| fresh_encoder(id));
            model.head_mut().load_flat(global);
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
                TrainScope::Full,
                &mut r,
            );
            let (reply, losses) = supervised_reply(model.head().to_flat(), data.train_len(), loss);
            (model.encoder().clone(), reply, losses)
        },
    );
    let encoders: Vec<Mlp> = encoders
        .into_iter()
        .enumerate()
        .map(|(id, encoder)| encoder.unwrap_or_else(|| fresh_encoder(id)))
        .collect();

    // Personalization: each client keeps its local encoder and fine-tunes
    // the global head on it.
    let clients: Vec<(usize, &Mlp)> = encoders.iter().enumerate().collect();
    let accuracies = parallel_map(&clients, |&(id, encoder)| {
        let data = fed.client(id);
        if data.train.is_empty() || data.test.is_empty() {
            return 0.0;
        }
        let train_x = encoder.infer(&fed.generator().render_batch(data.train.iter()));
        let test_x = encoder.infer(&fed.generator().render_batch(data.test.iter()));
        let mut probe = cfg.probe;
        probe.seed = cfg.probe.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
        let head = train_linear_probe_from(
            global_head.clone(),
            &train_x,
            &data.train_labels(),
            num_classes,
            &probe,
        );
        probe_accuracy(&head, &test_x, &data.test_labels())
    });
    let seen = PersonalizationOutcome::from_accuracies(accuracies);

    // Export the average of local encoders as the best available "global"
    // encoder for novel clients / figures.
    let encoder_flats: Vec<Vec<f32>> = encoders.iter().map(Module::to_flat).collect();
    let refs: Vec<&[f32]> = encoder_flats.iter().map(Vec::as_slice).collect();
    let mut mean_encoder = template.encoder().clone();
    if let Ok(mean) = aggregate_robust(Aggregator::WeightedAverage, &refs, &vec![1.0; refs.len()]) {
        mean_encoder.load_flat(&mean);
    }

    BaselineResult {
        name: "LG-FedAvg".to_string(),
        seen,
        encoder: mean_encoder,
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{NonIid, PartitionConfig, SynthVisionSpec};

    #[test]
    fn lgfedavg_personalizes_through_local_encoders() {
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
                seed: 29,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 2;
        let result = run_lgfedavg(&fed, &cfg, &calibre_telemetry::NullRecorder);
        assert!(
            result.stats().mean > 0.6,
            "LG-FedAvg mean accuracy {:?}",
            result.stats()
        );
    }
}
