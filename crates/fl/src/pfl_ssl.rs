//! pFL-SSL: the paper's preliminary design (§III-B) — train the global
//! encoder with *any* self-supervised method in the federated training
//! stage, then personalize with a linear probe.
//!
//! "One only needs to change the SSL method in the training stage to obtain
//! a new approach. For example, one can directly implement pFL-BYOL,
//! pFL-SimCLR, pFL-SimSiam, and pFL-MoCoV2." This module is exactly that
//! factory, and it is also the chassis Calibre builds on (the `calibre`
//! crate swaps in a calibrated local update and a divergence-aware
//! aggregation).

use crate::aggregate::sample_count_weights;
use crate::baselines::{client_round_seed, BaselineResult};
use crate::checkpoint::{self, CheckpointStore, TrainerCheckpoint};
use crate::comm::CommReport;
use crate::config::FlConfig;
use crate::personalize::personalize_cohort_observed;
use crate::resilient::ClientOutcome;
use crate::scheduler::{RoundContext, RoundScheduler};
use calibre_data::batch::batches;
use calibre_data::{AugmentConfig, ClientData, SynthVision};
use calibre_ssl::{create_method, ssl_step_in, SslKind, SslMethod, TwoViewBatch};
use calibre_telemetry::{ClientLosses, NullRecorder, Recorder};
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::pool::report_arena_stats;
use calibre_tensor::{rng, StepArena};
use rand::Rng;

/// Runs `epochs` of two-view SSL training over a client's SSL pool
/// (labeled + unlabeled samples, labels unused). Returns the mean loss of
/// the final epoch.
///
/// Batches with fewer than 2 samples are skipped (contrastive losses need a
/// negative).
#[allow(clippy::too_many_arguments)] // mirrors the paper's local-update signature
pub fn ssl_local_update<R: Rng + ?Sized>(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    aug: &AugmentConfig,
    epochs: usize,
    batch_size: usize,
    opt: &mut Sgd,
    rng_: &mut R,
) -> f32 {
    let pool = data.ssl_pool();
    if pool.len() < 2 {
        return 0.0;
    }
    let mut last_epoch_loss = 0.0;
    let mut arena = StepArena::new();
    for _ in 0..epochs {
        let mut epoch_loss = 0.0;
        let mut seen = 0;
        for batch in batches(pool.len(), batch_size, true, rng_) {
            let samples = batch.iter().map(|&i| pool[i]);
            let (view_e, view_o) = generator.render_two_views(samples, aug, rng_);
            epoch_loss += ssl_step_in(
                method,
                &TwoViewBatch::new(&view_e, &view_o),
                opt,
                &mut arena,
            );
            seen += 1;
        }
        last_epoch_loss = epoch_loss / seen.max(1) as f32;
    }
    report_arena_stats(&arena);
    last_epoch_loss
}

/// Observer invoked after every aggregation with `(round, global_encoder)`.
pub type RoundObserver<'a> = &'a mut dyn FnMut(usize, &calibre_tensor::nn::Mlp);

/// Trains a global encoder with federated SSL (the pFL-SSL training stage)
/// and returns it with the round-loss history.
pub fn train_pfl_ssl_encoder(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
) -> (calibre_tensor::nn::Mlp, Vec<f32>) {
    train_pfl_ssl_encoder_with(fed, cfg, kind, aug, None)
}

/// Like [`train_pfl_ssl_encoder`], with an optional observer invoked after
/// every aggregation with `(round, global_encoder)`.
pub fn train_pfl_ssl_encoder_with(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
    round_observer: Option<RoundObserver<'_>>,
) -> (calibre_tensor::nn::Mlp, Vec<f32>) {
    train_pfl_ssl_encoder_observed(fed, cfg, kind, aug, round_observer, &NullRecorder)
}

/// Like [`train_pfl_ssl_encoder_with`], additionally reporting the round
/// lifecycle to a telemetry [`Recorder`].
///
/// Per round the recorder sees: `round_start` with the selection, one
/// `client_update` per accepted client carrying the wall-clock time measured
/// inside the worker thread that ran the update (via the resilient executor,
/// [`crate::resilient::run_round_resilient`]) and the final local loss, an
/// `aggregate` event, and a `round_end` event with the per-client
/// wall-clock/loss vectors plus planned vs observed communication bytes.
/// Under active chaos ([`FlConfig::chaos`]) additional `fault` and
/// `round_resilience` events surface injected faults; nominal rounds emit
/// the exact legacy event sequence.
pub fn train_pfl_ssl_encoder_observed(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
    round_observer: Option<RoundObserver<'_>>,
    recorder: &dyn Recorder,
) -> (calibre_tensor::nn::Mlp, Vec<f32>) {
    train_pfl_ssl_encoder_resumable(fed, cfg, kind, aug, round_observer, recorder, None)
}

/// Creates a client's SSL method with its deterministic per-client seed.
fn fresh_method(cfg: &FlConfig, kind: SslKind, id: usize) -> Box<dyn SslMethod> {
    create_method(kind, cfg.ssl.clone().with_seed(cfg.seed ^ (id as u64) << 8))
}

/// Restores per-client SSL state and the global encoder from a
/// [`TrainerCheckpoint`], returning the round to resume from. Any client
/// entry that fails shape checks is dropped (it will be recreated fresh).
fn restore_from_checkpoint(
    ckpt: &TrainerCheckpoint,
    cfg: &FlConfig,
    kind: SslKind,
    global_encoder: &mut calibre_tensor::nn::Mlp,
    states: &mut [Option<Box<dyn SslMethod>>],
    round_losses: &mut Vec<f32>,
    total_rounds: usize,
) -> usize {
    if checkpoint::restore(global_encoder, &ckpt.global).is_err() {
        return 0;
    }
    for (id, tensors) in &ckpt.clients {
        if *id >= states.len() {
            continue;
        }
        let mut method = fresh_method(cfg, kind, *id);
        if checkpoint::restore(method.as_mut(), tensors).is_ok() {
            states[*id] = Some(method);
        }
    }
    let start = ckpt.round.min(total_rounds);
    *round_losses = ckpt.round_losses.clone();
    round_losses.truncate(start);
    start
}

/// Like [`train_pfl_ssl_encoder_observed`], with runtime fault handling and
/// optional crash-safe resume.
///
/// The round loop runs through [`RoundScheduler::run_round`]: faults from
/// `cfg.chaos` are injected per `(round, client, attempt)`, panicked
/// clients are retried per `cfg.policy`, non-finite updates are rejected,
/// and rounds missing the minimum quorum are skipped (the skipped round
/// repeats the previous mean loss so histories stay finite). With an
/// inactive chaos plan and the default policy this is bit-identical to the
/// nominal training path.
///
/// When `store` is given, a [`TrainerCheckpoint`] is written after every
/// round (atomic write + previous-generation rotation), and training
/// resumes from the newest loadable checkpoint — continuing bit-identically
/// for parameter-backed SSL methods like SimCLR, because client selection,
/// per-round RNGs, and optimizers are all re-derived from `cfg.seed`.
/// Methods with non-parameter state (BYOL/MoCo EMA targets, queues) resume
/// with that auxiliary state rebuilt fresh. Checkpoint write failures are
/// ignored (training continues; the previous generation stays loadable).
#[allow(clippy::too_many_arguments)] // superset of the observed signature
pub fn train_pfl_ssl_encoder_resumable(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
    mut round_observer: Option<RoundObserver<'_>>,
    recorder: &dyn Recorder,
    store: Option<&CheckpointStore>,
) -> (calibre_tensor::nn::Mlp, Vec<f32>) {
    // The global encoder starts from the seed-0 reference model.
    let reference = create_method(kind, cfg.ssl.clone());
    let mut global_encoder = reference.encoder().clone();

    // Lazily-created persistent per-client SSL state (projectors, EMA
    // targets, queues survive across rounds; the encoder is overwritten by
    // the global at the start of every round).
    let mut states: Vec<Option<Box<dyn SslMethod>>> =
        (0..fed.num_clients()).map(|_| None).collect();
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());

    let start_round = store
        .and_then(|s| s.load_with(TrainerCheckpoint::parse).ok())
        .map(|ckpt| {
            restore_from_checkpoint(
                &ckpt,
                cfg,
                kind,
                &mut global_encoder,
                &mut states,
                &mut round_losses,
                scheduler.rounds(),
            )
        })
        .unwrap_or(0);

    for round in start_round..scheduler.rounds() {
        let selected = scheduler.select(round, None);
        let round_span = calibre_telemetry::span("round");
        round_span.add_items(selected.len() as u64);
        let global_flat = global_encoder.to_flat();

        let ctx = RoundContext {
            recorder,
            downlink_params: global_flat.len(),
            // Shape-derived, so computable before the aggregate lands.
            planned_bytes: CommReport::for_module(&global_encoder, 1, selected.len()).total as u64,
            // Skipped round: repeat the last known loss so the history
            // stays finite and plottable.
            fallback_loss: round_losses.last().copied().unwrap_or(0.0),
            fallback_divergence: 0.0,
        };

        let outcome = scheduler.run_round(
            round,
            &selected,
            &ctx,
            |id| {
                states[id]
                    .take()
                    .unwrap_or_else(|| fresh_method(cfg, kind, id))
            },
            |id, mut method: Box<dyn SslMethod>| {
                method.encoder_mut().load_flat(&global_flat);
                let mut opt = Sgd::new(SgdConfig::with_lr_momentum(
                    cfg.local_lr,
                    cfg.local_momentum,
                ));
                let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
                let data = fed.client(id);
                let loss = ssl_local_update(
                    method.as_mut(),
                    data,
                    fed.generator(),
                    aug,
                    cfg.local_epochs,
                    cfg.batch_size,
                    &mut opt,
                    &mut r,
                );
                let flat = method.encoder().to_flat();
                let count = data.ssl_pool().len();
                ClientOutcome {
                    state: method,
                    flat,
                    count,
                    payload: loss,
                }
            },
            |accepted| {
                let counts: Vec<usize> = accepted.iter().map(|a| a.count).collect();
                sample_count_weights(&counts)
            },
            |&loss| {
                (
                    ClientLosses {
                        total: loss,
                        ssl: loss,
                        l_n: 0.0,
                        l_p: 0.0,
                    },
                    0.0,
                )
            },
        );

        if let Some(aggregated) = &outcome.round.aggregated {
            global_encoder.load_flat(aggregated);
        }
        for a in outcome.round.accepted {
            states[a.id] = Some(a.state);
        }
        for (id, state) in outcome.round.rejected_states {
            states[id] = Some(state);
        }
        round_losses.push(outcome.mean_loss);
        if let Some(observer) = round_observer.as_deref_mut() {
            observer(round, &global_encoder);
        }
        if let Some(store) = store {
            let ckpt = TrainerCheckpoint {
                round: round + 1,
                global: global_encoder.parameters().into_iter().cloned().collect(),
                clients: states
                    .iter()
                    .enumerate()
                    .filter_map(|(id, s)| {
                        s.as_ref()
                            .map(|m| (id, m.parameters().into_iter().cloned().collect()))
                    })
                    .collect(),
                round_losses: round_losses.clone(),
                reputation: scheduler.reputation(),
            };
            let _ = store.save_text(&ckpt.to_text());
        }
    }
    (global_encoder, round_losses)
}

/// Runs a pFL-SSL method end to end: federated SSL training stage followed
/// by per-client linear-probe personalization.
pub fn run_pfl_ssl(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
) -> BaselineResult {
    run_pfl_ssl_observed(fed, cfg, kind, aug, &NullRecorder)
}

/// Like [`run_pfl_ssl`], reporting both stages to a telemetry [`Recorder`].
pub fn run_pfl_ssl_observed(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let (encoder, round_losses) =
        train_pfl_ssl_encoder_observed(fed, cfg, kind, aug, None, recorder);
    let seen = personalize_cohort_observed(&encoder, fed, num_classes, &cfg.probe, recorder);
    BaselineResult {
        name: format!("pFL-{}", kind.name()),
        seen,
        encoder,
        round_losses,
    }
}

/// Like [`run_pfl_ssl_observed`], checkpointing every round into `store`
/// and resuming from the newest loadable checkpoint — the crash-safe entry
/// point. A killed run restarted with the same config and store continues
/// where it left off (bit-identically for parameter-backed methods like
/// SimCLR).
pub fn run_pfl_ssl_resumable(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
    recorder: &dyn Recorder,
    store: &CheckpointStore,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let (encoder, round_losses) =
        train_pfl_ssl_encoder_resumable(fed, cfg, kind, aug, None, recorder, Some(store));
    let seen = personalize_cohort_observed(&encoder, fed, num_classes, &cfg.probe, recorder);
    BaselineResult {
        name: format!("pFL-{}", kind.name()),
        seen,
        encoder,
        round_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_data::{FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};

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
                seed: 47,
            },
        )
    }

    fn tiny_cfg() -> FlConfig {
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 5;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 1;
        cfg.batch_size = 16;
        cfg
    }

    #[test]
    fn pfl_simclr_trains_and_personalizes() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_pfl_ssl(&fed, &cfg, SslKind::SimClr, &AugmentConfig::default());
        assert_eq!(result.name, "pFL-SimCLR");
        assert_eq!(result.seen.accuracies.len(), 4);
        // 2-way personalization on any non-degenerate representation beats
        // coin flipping.
        assert!(
            result.stats().mean > 0.5,
            "pFL-SimCLR accuracy {:?}",
            result.stats()
        );
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn ssl_local_update_skips_degenerate_pools() {
        let fed = tiny_fed();
        let mut method = create_method(SslKind::SimClr, cfg_for_test());
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let mut r = rng::seeded(0);
        let empty = ClientData::default();
        let loss = ssl_local_update(
            method.as_mut(),
            &empty,
            fed.generator(),
            &AugmentConfig::default(),
            1,
            16,
            &mut opt,
            &mut r,
        );
        assert_eq!(loss, 0.0);
    }

    fn cfg_for_test() -> calibre_ssl::SslConfig {
        calibre_ssl::SslConfig::for_input(64)
    }

    #[test]
    fn encoder_training_is_deterministic() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let aug = AugmentConfig::default();
        let (a, _) = train_pfl_ssl_encoder(&fed, &cfg, SslKind::SimClr, &aug);
        let (b, _) = train_pfl_ssl_encoder(&fed, &cfg, SslKind::SimClr, &aug);
        assert_eq!(a.to_flat(), b.to_flat());
    }
}
