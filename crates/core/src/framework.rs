//! The Calibre federated framework: calibrated local updates plus
//! divergence-aware server aggregation (paper §IV).
//!
//! Training stage: like pFL-SSL, but every local step extends the SSL loss
//! graph with the prototype regularizers ([`crate::calibre_loss`]) and every
//! client reports its divergence rate — the mean distance between its
//! encodings and their prototypes — which the server turns into aggregation
//! weights (lower divergence ⇒ higher weight). Personalization stage:
//! identical to the paper's common protocol (frozen encoder + 10-epoch
//! linear probe).

use crate::loss::{calibre_loss, CalibreConfig, CalibreLoss};
use calibre_data::batch::batches;
use calibre_data::{AugmentConfig, ClientData, FederatedDataset, SynthVision};
use calibre_fl::aggregate::divergence_weight;
use calibre_fl::baselines::BaselineResult;
use calibre_fl::pfl_ssl::{run_training_round, RoundObserver};
use calibre_fl::scheduler::RoundScheduler;
use calibre_fl::transport::StreamUpdate;
use calibre_fl::FlConfig;
use calibre_ssl::{create_method, SslKind, SslMethod, TwoViewBatch};
use calibre_telemetry::{ClientLosses, NullRecorder, Recorder};
use calibre_tensor::nn::{Mlp, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::pool::report_arena_stats;
use calibre_tensor::{rng, StepArena};
use rand::Rng;

/// One Calibre optimization step: SSL graph → prototype regularizers →
/// backward on the combined loss → optimizer step → method bookkeeping.
///
/// Returns the loss decomposition and batch divergence. Allocates a fresh
/// tape; step loops should prefer [`calibre_step_in`] with a reused
/// [`StepArena`].
pub fn calibre_step(
    method: &mut dyn SslMethod,
    batch: &TwoViewBatch<'_>,
    config: &CalibreConfig,
    opt: &mut Sgd,
    kmeans_seed: u64,
) -> CalibreLoss {
    let mut arena = StepArena::new();
    calibre_step_in(method, batch, config, opt, kmeans_seed, &mut arena)
}

/// Like [`calibre_step`], building the loss graph on the arena's recycled
/// tape and returning it afterwards so the next step reuses its buffers.
/// Bit-identical to [`calibre_step`].
pub fn calibre_step_in(
    method: &mut dyn SslMethod,
    batch: &TwoViewBatch<'_>,
    config: &CalibreConfig,
    opt: &mut Sgd,
    kmeans_seed: u64,
    arena: &mut StepArena,
) -> CalibreLoss {
    let forward = calibre_telemetry::span("ssl_forward");
    forward.add_items(batch.len() as u64);
    let mut ssl_graph = method.build_graph_with(batch, arena.take());
    drop(forward);
    let loss = calibre_loss(&mut ssl_graph, config, kmeans_seed);
    ssl_graph.graph.backward(loss.total);
    opt.step_graph(method, &ssl_graph.graph, &ssl_graph.binding);
    method.post_step(&ssl_graph);
    arena.put(ssl_graph.graph);
    loss
}

/// Final-epoch mean losses of one calibrated local update, decomposed into
/// the terms of the Calibre objective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LocalUpdate {
    /// Mean total loss `L_ssl + alpha * (L_n + L_p)`.
    pub loss: f32,
    /// Mean self-supervised term `L_ssl`.
    pub ssl: f32,
    /// Mean prototype-noise regularizer `L_n`.
    pub l_n: f32,
    /// Mean prototype-alignment regularizer `L_p`.
    pub l_p: f32,
    /// Mean divergence rate — what the client reports to the server.
    pub divergence: f32,
}

/// Runs `epochs` of calibrated two-view training over a client's SSL pool.
///
/// Returns `(mean_total_loss, mean_divergence)` of the final epoch — the
/// divergence is what the client reports to the server. Use
/// [`calibre_local_update_detailed`] to also get the loss decomposition.
#[allow(clippy::too_many_arguments)]
pub fn calibre_local_update<R: Rng + ?Sized>(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    aug: &AugmentConfig,
    epochs: usize,
    batch_size: usize,
    config: &CalibreConfig,
    opt: &mut Sgd,
    rng_: &mut R,
) -> (f32, f32) {
    let update = calibre_local_update_detailed(
        method, data, generator, aug, epochs, batch_size, config, opt, rng_,
    );
    (update.loss, update.divergence)
}

/// Like [`calibre_local_update`], returning the full final-epoch loss
/// decomposition (the per-client telemetry payload).
#[allow(clippy::too_many_arguments)]
pub fn calibre_local_update_detailed<R: Rng + ?Sized>(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    aug: &AugmentConfig,
    epochs: usize,
    batch_size: usize,
    config: &CalibreConfig,
    opt: &mut Sgd,
    rng_: &mut R,
) -> LocalUpdate {
    let pool = data.ssl_pool();
    if pool.len() < 2 {
        return LocalUpdate::default();
    }
    let mut last = LocalUpdate::default();
    let mut arena = StepArena::new();
    for epoch in 0..epochs {
        let mut sums = LocalUpdate::default();
        let mut seen = 0u64;
        for (b, batch) in batches(pool.len(), batch_size, true, rng_)
            .into_iter()
            .enumerate()
        {
            let samples = batch.iter().map(|&i| pool[i]);
            let (view_e, view_o) = generator.render_two_views(samples, aug, rng_);
            let kmeans_seed = (epoch as u64) << 32 | b as u64;
            let outcome = calibre_step_in(
                method,
                &TwoViewBatch::new(&view_e, &view_o),
                config,
                opt,
                kmeans_seed,
                &mut arena,
            );
            sums.loss += outcome.ssl_loss + config.alpha * (outcome.l_n + outcome.l_p);
            sums.ssl += outcome.ssl_loss;
            sums.l_n += outcome.l_n;
            sums.l_p += outcome.l_p;
            sums.divergence += outcome.divergence;
            seen += 1;
        }
        let inv = 1.0 / seen.max(1) as f32;
        last = LocalUpdate {
            loss: sums.loss * inv,
            ssl: sums.ssl * inv,
            l_n: sums.l_n * inv,
            l_p: sums.l_p * inv,
            divergence: sums.divergence * inv,
        };
    }
    report_arena_stats(&arena);
    last
}

/// Trains the global encoder with the full Calibre framework.
///
/// Returns the encoder, the per-round mean losses, and the per-round mean
/// client divergences (diagnostics for the ablation benches).
pub fn train_calibre_encoder(
    fed: &FederatedDataset,
    fl: &FlConfig,
    kind: SslKind,
    config: &CalibreConfig,
    aug: &AugmentConfig,
) -> (Mlp, Vec<f32>, Vec<f32>) {
    train_calibre_encoder_observed(fed, fl, kind, config, aug, None, &NullRecorder)
}

/// Like [`train_calibre_encoder`], additionally reporting the round
/// lifecycle to a telemetry [`Recorder`] and invoking an optional observer
/// after every aggregation with `(round, global_encoder)`. The
/// convergence-tracking bench uses the observer to evaluate the
/// personalization quality of intermediate encoders.
///
/// Rounds run through [`run_training_round`], so the events are its:
/// `round_start`, any `attack`/`fault` events, `aggregate`, any
/// `round_resilience`, one `client_update` per accepted client, and
/// `round_end`. Each `client_update` carries the full Calibre loss
/// decomposition (`L_ssl`, `L_n`, `L_p`) and divergence rate from
/// [`calibre_local_update_detailed`], with wall-clock measured inside the
/// worker thread that ran the client.
#[allow(clippy::too_many_arguments)]
pub fn train_calibre_encoder_observed(
    fed: &FederatedDataset,
    fl: &FlConfig,
    kind: SslKind,
    config: &CalibreConfig,
    aug: &AugmentConfig,
    mut round_observer: Option<RoundObserver<'_>>,
    recorder: &dyn Recorder,
) -> (Mlp, Vec<f32>, Vec<f32>) {
    let reference = create_method(kind, fl.ssl.clone());
    let mut global_encoder = reference.encoder().clone();
    let mut states: Vec<Option<Box<dyn SslMethod>>> =
        (0..fed.num_clients()).map(|_| None).collect();
    let scheduler = RoundScheduler::from_config(fl, fed.num_clients());
    let mut round_losses = Vec::with_capacity(scheduler.rounds());
    let mut round_divergences = Vec::with_capacity(scheduler.rounds());

    for round in 0..scheduler.rounds() {
        let selected = scheduler.select(round, None);
        let round_span = calibre_telemetry::span("round");
        round_span.add_items(selected.len() as u64);
        let global_flat = global_encoder.to_flat();
        // Linear α warmup (see CalibreConfig::warmup_rounds): pseudo-labels
        // from an untrained encoder are noise, so the regularizers fade in.
        let ramp = if config.warmup_rounds > 0 {
            ((round + 1) as f32 / config.warmup_rounds as f32).min(1.0)
        } else {
            1.0
        };
        let round_config = CalibreConfig {
            alpha: config.alpha * ramp,
            ..*config
        };
        // Skipped round: repeat the previous values so histories stay
        // finite and plottable.
        let fallback_loss = round_losses.last().copied().unwrap_or(0.0);

        let outcome = run_training_round(
            &scheduler,
            round,
            &selected,
            &global_flat,
            &mut states,
            fallback_loss,
            recorder,
            |id, state: Option<Box<dyn SslMethod>>, global: &[f32]| {
                let mut method = state.unwrap_or_else(|| {
                    create_method(kind, fl.ssl.clone().with_seed(fl.seed ^ (id as u64) << 8))
                });
                method.encoder_mut().load_flat(global);
                let mut opt = Sgd::new(SgdConfig::with_lr_momentum(fl.local_lr, fl.local_momentum));
                let mut r = rng::seeded(
                    fl.seed
                        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (id as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                let data = fed.client(id);
                let update = calibre_local_update_detailed(
                    method.as_mut(),
                    data,
                    fed.generator(),
                    aug,
                    fl.local_epochs,
                    fl.batch_size,
                    &round_config,
                    &mut opt,
                    &mut r,
                );
                // Divergence-aware aggregation (§IV-B): the sample-count
                // weight is modulated by inverse divergence so clients
                // whose representations already form tight prototypes
                // anchor the global model.
                let mut weight = data.ssl_pool().len() as f32;
                if config.divergence_aware_aggregation {
                    weight *= divergence_weight(update.divergence);
                }
                let reply = StreamUpdate {
                    update: method.encoder().to_flat(),
                    weight,
                    loss: update.loss,
                    divergence: update.divergence,
                };
                let losses = ClientLosses {
                    total: update.loss,
                    ssl: update.ssl,
                    l_n: update.l_n,
                    l_p: update.l_p,
                };
                (method, reply, losses)
            },
        );

        if let Some(aggregated) = &outcome.aggregated {
            global_encoder.load_flat(aggregated);
        }
        round_losses.push(outcome.mean_loss);
        round_divergences.push(if outcome.accepted == 0 {
            round_divergences.last().copied().unwrap_or(0.0)
        } else {
            outcome.mean_divergence
        });
        if let Some(observer) = round_observer.as_deref_mut() {
            observer(round, &global_encoder);
        }
    }
    (global_encoder, round_losses, round_divergences)
}

/// Runs Calibre end to end: calibrated federated training stage followed by
/// the standard personalization stage.
pub fn run_calibre(
    fed: &FederatedDataset,
    fl: &FlConfig,
    kind: SslKind,
    config: &CalibreConfig,
    aug: &AugmentConfig,
) -> BaselineResult {
    run_calibre_observed(fed, fl, kind, config, aug, &NullRecorder)
}

/// Like [`run_calibre`], reporting both stages to a telemetry [`Recorder`].
pub fn run_calibre_observed(
    fed: &FederatedDataset,
    fl: &FlConfig,
    kind: SslKind,
    config: &CalibreConfig,
    aug: &AugmentConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let num_classes = fed.generator().num_classes();
    let (encoder, round_losses, _) =
        train_calibre_encoder_observed(fed, fl, kind, config, aug, None, recorder);
    let seen =
        calibre_fl::personalize_cohort_observed(&encoder, fed, num_classes, &fl.probe, recorder);
    BaselineResult {
        name: format!("Calibre ({})", kind.name()),
        seen,
        encoder,
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
                seed: 59,
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
    fn calibre_simclr_trains_and_personalizes() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_calibre(
            &fed,
            &cfg,
            SslKind::SimClr,
            &CalibreConfig::default(),
            &AugmentConfig::default(),
        );
        assert_eq!(result.name, "Calibre (SimCLR)");
        assert_eq!(result.seen.accuracies.len(), 4);
        assert!(
            result.stats().mean > 0.5,
            "Calibre accuracy {:?}",
            result.stats()
        );
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn divergence_falls_as_training_progresses() {
        let fed = tiny_fed();
        let mut cfg = tiny_cfg();
        cfg.rounds = 8;
        let (_, _, divergences) = train_calibre_encoder(
            &fed,
            &cfg,
            SslKind::SimClr,
            &CalibreConfig::default(),
            &AugmentConfig::default(),
        );
        let early = divergences[0];
        let late = *divergences.last().unwrap();
        // Prototype regularization compacts clusters over rounds. Allow some
        // slack for stochasticity; require a non-increase.
        assert!(
            late <= early * 1.2,
            "divergence should not grow: {divergences:?}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let aug = AugmentConfig::default();
        let ccfg = CalibreConfig::default();
        let (a, _, _) = train_calibre_encoder(&fed, &cfg, SslKind::SimClr, &ccfg, &aug);
        let (b, _, _) = train_calibre_encoder(&fed, &cfg, SslKind::SimClr, &ccfg, &aug);
        assert_eq!(a.to_flat(), b.to_flat());
    }

    #[test]
    fn all_six_ssl_backends_run_under_calibre() {
        let fed = tiny_fed();
        let mut cfg = tiny_cfg();
        cfg.rounds = 2;
        for kind in SslKind::ALL {
            let result = run_calibre(
                &fed,
                &cfg,
                kind,
                &CalibreConfig::default(),
                &AugmentConfig::default(),
            );
            assert!(
                result.stats().mean.is_finite(),
                "{kind}: non-finite accuracy"
            );
            assert!(result.round_losses.iter().all(|l| l.is_finite()), "{kind}");
        }
    }
}
