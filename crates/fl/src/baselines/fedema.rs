//! FedEMA (Zhuang et al., ICLR 2022): divergence-aware federated
//! self-supervised learning.
//!
//! FedEMA runs BYOL locally, but instead of overwriting the local online
//! network with the aggregated global model at round start, each client
//! *interpolates*: `w_local ← λ·w_global + (1−λ)·w_local` with a
//! divergence-aware coefficient `λ = min(τ·‖w_global − w_local‖, 1)` —
//! clients far from the global model adopt more of it. This is the paper's
//! closest related work (§II).

use crate::baselines::{client_round_seed, local_sgd, train_rounds, BaselineResult};
use crate::config::FlConfig;
use crate::personalize::personalize_cohort;
use crate::pfl_ssl::ssl_local_update;
use crate::transport::StreamUpdate;
use calibre_data::{AugmentConfig, FederatedDataset};
use calibre_ssl::{Byol, SslMethod};
use calibre_telemetry::{ClientLosses, Recorder};
use calibre_tensor::nn::Module;
use calibre_tensor::rng;

/// The divergence auto-scaler τ. The original work calibrates it from the
/// first round's divergence; a fixed value at our scale plays the same role.
const TAU_SCALER: f32 = 0.5;

/// Computes FedEMA's divergence-aware mixing coefficient λ.
fn lambda_for(global_flat: &[f32], local_flat: &[f32]) -> f32 {
    let divergence: f32 = global_flat
        .iter()
        .zip(local_flat.iter())
        .map(|(&g, &l)| (g - l) * (g - l))
        .sum::<f32>()
        .sqrt();
    (TAU_SCALER * divergence).min(1.0)
}

/// Runs FedEMA end to end, reporting its rounds to `recorder`.
pub fn run_fedema(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    aug: &AugmentConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let reference = Byol::new(cfg.ssl.clone());
    let mut global_encoder = reference.encoder().clone();
    let (round_losses, _) = train_rounds(
        fed,
        cfg,
        &mut global_encoder,
        recorder,
        |round, id, byol: Option<Byol>, global_flat: &[f32]| {
            let mut byol = byol.unwrap_or_else(|| {
                Byol::new(cfg.ssl.clone().with_seed(cfg.seed ^ (id as u64) << 8))
            });
            // Divergence-aware merge of the global encoder into the local
            // online encoder (FedEMA's core mechanism).
            let local_flat = byol.encoder().to_flat();
            let lambda = lambda_for(global_flat, &local_flat);
            let merged: Vec<f32> = global_flat
                .iter()
                .zip(local_flat.iter())
                .map(|(&g, &l)| lambda * g + (1.0 - lambda) * l)
                .collect();
            byol.encoder_mut().load_flat(&merged);

            let mut opt = local_sgd(cfg);
            let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
            let data = fed.client(id);
            let loss = ssl_local_update(
                &mut byol,
                data,
                fed.generator(),
                aug,
                cfg.local_epochs,
                cfg.batch_size,
                &mut opt,
                &mut r,
            );
            let reply = StreamUpdate {
                update: byol.encoder().to_flat(),
                weight: data.ssl_pool().len() as f32,
                loss,
                divergence: 0.0,
            };
            let losses = ClientLosses {
                total: loss,
                ssl: loss,
                ..ClientLosses::default()
            };
            (byol, reply, losses)
        },
    );

    let num_classes = fed.generator().num_classes();
    let seen = personalize_cohort(&global_encoder, fed, num_classes, &cfg.probe);
    BaselineResult {
        name: "FedEMA".to_string(),
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
    fn lambda_is_clamped_and_monotone() {
        let g = vec![1.0, 0.0];
        assert_eq!(lambda_for(&g, &g), 0.0);
        let near = vec![1.1, 0.0];
        let far = vec![5.0, 5.0];
        let l_near = lambda_for(&g, &near);
        let l_far = lambda_for(&g, &far);
        assert!(l_near < l_far);
        assert!(l_far <= 1.0);
    }

    #[test]
    fn fedema_trains_and_personalizes() {
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
                seed: 53,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 4;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 1;
        cfg.batch_size = 16;
        let result = run_fedema(
            &fed,
            &cfg,
            &AugmentConfig::default(),
            &calibre_telemetry::NullRecorder,
        );
        assert_eq!(result.name, "FedEMA");
        assert!(
            result.stats().mean > 0.5,
            "FedEMA accuracy {:?}",
            result.stats()
        );
    }
}
