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

use crate::baselines::{client_round_seed, local_sgd, BaselineResult};
use crate::checkpoint::{self, CheckpointStore, TrainerCheckpoint};
use crate::comm::{CommReport, BYTES_PER_PARAM};
use crate::config::FlConfig;
use crate::personalize::personalize_cohort_observed;
use crate::scheduler::{Fold, RoundScheduler, StreamedRound};
use crate::transport::{InProcessTransport, StreamUpdate};
use calibre_data::batch::batches;
use calibre_data::{AugmentConfig, ClientData, SynthVision};
use calibre_ssl::{create_method, ssl_step_in, SslKind, SslMethod, TwoViewBatch};
use calibre_telemetry::{ClientLosses, NullRecorder, Recorder};
use calibre_tensor::nn::Module;
use calibre_tensor::optim::Sgd;
use calibre_tensor::pool::report_arena_stats;
use calibre_tensor::{rng, StepArena};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::BTreeMap;
// analyze:allow(wallclock) -- Duration/Instant feed per-client telemetry
// only; scheduling and aggregation stay clock-free.
use std::time::{Duration, Instant};

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
            // `batches` draws indices below `pool.len()`, so none is skipped.
            let samples = batch.iter().filter_map(|&i| pool.get(i).copied());
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

/// Runs one round of an in-process training loop on the round engine
/// ([`RoundScheduler::run_round`]) and reports it to `recorder`. Every
/// training loop trains through it: pFL-SSL, the Calibre framework loop,
/// and the aggregating baselines ([`crate::baselines`]).
///
/// `work(id, state, global)` is one client's local update. It receives the
/// client's cached state (`None` on first selection or after a crash),
/// trains from `global`, and returns the new state, its reply (flattened
/// model, aggregation weight, loss, divergence), and its loss
/// decomposition. The whole cohort runs in one wave on an
/// [`InProcessTransport`], and each client is timed inside its worker.
///
/// `states[id]` is taken when client `id` runs and put back whether or not
/// its reply is accepted. A client whose `work` panics loses its state (the
/// next round rebuilds it); a client dropped before dispatch keeps it.
///
/// The engine holds the accepted updates in a hold sized to the cohort
/// ([`Fold::Hold`]), so the policy's aggregator runs once over every
/// accepted update in slot order through
/// [`crate::aggregate::aggregate_robust`] — for the weighted average, the
/// arithmetic the golden checksums pin.
///
/// Events: `round_start`, the engine's `attack`, `fault`, `aggregate` and
/// `round_resilience` events, one `client_update` per accepted client in
/// fold order, then `round_end`. When nothing was accepted, the returned
/// `mean_loss` (and `round_end`'s) is `fallback_loss`, so loss histories
/// stay finite.
#[allow(clippy::too_many_arguments)] // one argument per round input
pub fn run_training_round<S, F>(
    scheduler: &RoundScheduler,
    round: usize,
    selected: &[usize],
    global: &[f32],
    states: &mut [Option<S>],
    fallback_loss: f32,
    recorder: &dyn Recorder,
    work: F,
) -> StreamedRound
where
    S: Send,
    F: Fn(usize, Option<S>, &[f32]) -> (S, StreamUpdate, ClientLosses) + Sync,
{
    recorder.round_start(round, selected);
    let cohort = selected.len();
    let shared = Mutex::new((states, BTreeMap::new()));
    let mut transport = InProcessTransport::new(|_round, id, global: &[f32]| {
        let state = shared.lock().0.get_mut(id).and_then(Option::take);
        let start = Instant::now(); // analyze:allow(wallclock) -- telemetry only
        let (state, reply, losses) = work(id, state, global);
        let wall = start.elapsed();
        let mut shared = shared.lock();
        if let Some(slot) = shared.0.get_mut(id) {
            *slot = Some(state);
        }
        shared.1.insert(id, (wall, losses, reply.divergence));
        reply
    });
    // Capacity = cohort: every accepted update is held, so the reservoir
    // never samples and its seed is inert. The in-process transport never
    // fails.
    let fold = Fold::Hold {
        capacity: cohort,
        seed: 0,
    };
    let mut out = scheduler
        .run_round(
            round,
            selected,
            cohort,
            global,
            fold,
            &mut transport,
            recorder,
        )
        .unwrap_or_default();
    let reports: BTreeMap<usize, (Duration, ClientLosses, f32)> = shared.into_inner().1;

    let mut client_wall_ms = Vec::with_capacity(out.accepted);
    let mut client_loss = Vec::with_capacity(out.accepted);
    for &id in &out.clients {
        if let Some(&(wall, losses, divergence)) = reports.get(&id) {
            recorder.client_update(round, id, wall, losses, divergence);
            client_wall_ms.push(wall.as_secs_f64() * 1e3);
            client_loss.push(losses.total);
        }
    }
    if out.accepted == 0 {
        out.mean_loss = fallback_loss;
    }
    // One model down and one model up per accepted client.
    let exchanged = 2 * global.len() * BYTES_PER_PARAM * out.accepted;
    recorder.round_end(
        round,
        out.mean_loss,
        &client_wall_ms,
        &client_loss,
        CommReport::new(global.len(), 1, cohort).total as u64,
        exchanged as u64,
    );
    out
}

/// Trains a global encoder with federated SSL (the pFL-SSL training stage)
/// and returns it with the round-loss history.
pub fn train_pfl_ssl_encoder(
    fed: &calibre_data::FederatedDataset,
    cfg: &FlConfig,
    kind: SslKind,
    aug: &AugmentConfig,
) -> (calibre_tensor::nn::Mlp, Vec<f32>) {
    train_pfl_ssl_encoder_observed(fed, cfg, kind, aug, None, &NullRecorder)
}

/// Like [`train_pfl_ssl_encoder`], additionally reporting the round
/// lifecycle to a telemetry [`Recorder`] and invoking an optional observer
/// after every aggregation with `(round, global_encoder)`.
///
/// Per round the recorder sees the events of [`run_training_round`]:
/// `round_start` with the selection, an `aggregate` event, one
/// `client_update` per accepted client carrying the wall-clock time measured
/// inside the worker thread that ran the update and the final local loss,
/// and a `round_end` event with the per-client wall-clock/loss vectors plus
/// planned vs observed communication bytes. Under active chaos
/// ([`FlConfig::chaos`]) `fault` and `round_resilience` events surface the
/// injected faults; nominal rounds emit neither.
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
        let Some(state) = states.get_mut(*id) else {
            continue;
        };
        let mut method = fresh_method(cfg, kind, *id);
        if checkpoint::restore(method.as_mut(), tensors).is_ok() {
            *state = Some(method);
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
/// The round loop runs through [`run_training_round`]: faults from
/// `cfg.chaos` are injected per `(round, client)`, dropped and crashed
/// clients sit the round out, non-finite updates are rejected, and rounds
/// missing the minimum quorum are skipped (the skipped round repeats the
/// previous mean loss so histories stay finite). With an inactive chaos
/// plan and the default policy this is bit-identical to the nominal
/// training path.
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
        // Skipped round: repeat the last known loss so the history stays
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
                let mut method = state.unwrap_or_else(|| fresh_method(cfg, kind, id));
                method.encoder_mut().load_flat(global);
                let mut opt = local_sgd(cfg);
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
                let reply = StreamUpdate {
                    update: method.encoder().to_flat(),
                    // FedAvg weighting by sample count.
                    weight: data.ssl_pool().len() as f32,
                    loss,
                    divergence: 0.0,
                };
                let losses = ClientLosses {
                    total: loss,
                    ssl: loss,
                    l_n: 0.0,
                    l_p: 0.0,
                };
                (method, reply, losses)
            },
        );

        if let Some(aggregated) = &outcome.aggregated {
            global_encoder.load_flat(aggregated);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate_robust, Aggregator};
    use crate::chaos::FaultPlan;
    use crate::sampler::{Sampler, SamplerKind};
    use crate::scheduler::RoundPolicy;
    use calibre_data::{FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
    use calibre_telemetry::{Event, MemoryRecorder};
    use calibre_tensor::optim::SgdConfig;

    const TOY_CLIENTS: usize = 6;
    const TOY_GLOBAL: [f32; 3] = [0.25, -1.5, 3.0];

    /// Every client of a 6-client population, every round.
    fn toy_scheduler(rounds: usize) -> RoundScheduler {
        RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 5), 6, 6, rounds)
    }

    /// A toy client: its state counts the rounds it trained, its update is
    /// derived from its id and the global model.
    fn toy_client(
        id: usize,
        runs: Option<u32>,
        global: &[f32],
    ) -> (u32, StreamUpdate, ClientLosses) {
        // analyze:allow(lossy-cast) -- toy ids in tests.
        let x = id as f32;
        let update = global.iter().map(|g| g + x * 0.75 - 1.0).collect();
        let reply = StreamUpdate {
            update,
            weight: 1.0 + x * 0.375,
            loss: 0.5 + x,
            divergence: 0.0,
        };
        (runs.unwrap_or(0) + 1, reply, ClientLosses::default())
    }

    fn toy_round<F>(
        scheduler: &RoundScheduler,
        round: usize,
        states: &mut [Option<u32>],
        rec: &dyn Recorder,
        work: F,
    ) -> StreamedRound
    where
        F: Fn(usize, Option<u32>, &[f32]) -> (u32, StreamUpdate, ClientLosses) + Sync,
    {
        let selected = scheduler.select(round, None);
        run_training_round(
            scheduler,
            round,
            &selected,
            &TOY_GLOBAL,
            states,
            0.0,
            rec,
            work,
        )
    }

    fn faults_of(rec: &MemoryRecorder) -> Vec<(usize, usize, &'static str, bool)> {
        let fault = |e: Event| match e {
            Event::Fault {
                round,
                client,
                kind,
                detected,
                ..
            } => Some((round, client, kind, detected)),
            _ => None,
        };
        rec.events().into_iter().filter_map(fault).collect()
    }

    #[test]
    fn a_panicking_client_is_lost_and_its_state_rebuilt_next_round() {
        let (scheduler, rec, crash) = (toy_scheduler(2), MemoryRecorder::new(), 3);
        let mut states = vec![None; TOY_CLIENTS];
        let out = toy_round(
            &scheduler,
            0,
            &mut states,
            &rec,
            |id, runs, global: &[f32]| {
                assert_ne!(id, crash, "client crashes mid-update");
                toy_client(id, runs, global)
            },
        );
        assert_eq!((out.accepted, out.dropped), (TOY_CLIENTS - 1, 1));
        assert!(out.aggregated.is_some(), "the rest still aggregate");
        assert_eq!(states[crash], None, "a crash loses the client's state");
        assert_eq!(faults_of(&rec), vec![(0, crash, "lost", true)]);
        let updates = |rec: &MemoryRecorder| {
            rec.events()
                .iter()
                .filter(|e| matches!(e, Event::ClientUpdate { .. }))
                .count()
        };
        assert_eq!(
            updates(&rec),
            TOY_CLIENTS - 1,
            "no client_update for a lost client"
        );

        assert_eq!(
            toy_round(&scheduler, 1, &mut states, &rec, toy_client).accepted,
            TOY_CLIENTS
        );
        let want: Vec<Option<u32>> = (0..TOY_CLIENTS)
            .map(|id| Some(if id == crash { 1 } else { 2 }))
            .collect();
        assert_eq!(states, want, "the crashed client's state is rebuilt");
    }

    #[test]
    fn a_nan_update_is_rejected_and_its_state_kept() {
        let (rec, bad) = (MemoryRecorder::new(), 2);
        let mut states = vec![Some(7); TOY_CLIENTS];
        let out = toy_round(
            &toy_scheduler(1),
            0,
            &mut states,
            &rec,
            |id, runs, global: &[f32]| {
                let (runs, mut reply, losses) = toy_client(id, runs, global);
                if id == bad {
                    reply.update[1] = f32::NAN;
                }
                (runs, reply, losses)
            },
        );
        assert_eq!((out.accepted, out.rejected), (TOY_CLIENTS - 1, 1));
        assert!(out.aggregated.unwrap().iter().all(|v| v.is_finite()));
        assert_eq!(faults_of(&rec), vec![(0, bad, "invalid", true)]);
        assert_eq!(
            states,
            vec![Some(8); TOY_CLIENTS],
            "every client that ran keeps its new state"
        );
    }

    #[test]
    fn the_round_aggregate_is_aggregate_robust_over_the_accepted_updates() {
        for aggregator in [Aggregator::WeightedAverage, Aggregator::CoordinateMedian] {
            let policy = RoundPolicy {
                aggregator,
                ..RoundPolicy::default()
            };
            let chaos = FaultPlan {
                drop_prob: 0.3,
                seed: 4,
                ..FaultPlan::default()
            };
            let scheduler = toy_scheduler(3).with_policy(policy).with_chaos(chaos, 4);
            let mut states = vec![None; TOY_CLIENTS];
            for round in 0..scheduler.rounds() {
                let out = toy_round(&scheduler, round, &mut states, &NullRecorder, toy_client);
                let replies: Vec<StreamUpdate> = out
                    .clients
                    .iter()
                    .map(|&id| toy_client(id, None, &TOY_GLOBAL).1)
                    .collect();
                let updates: Vec<&[f32]> = replies.iter().map(|r| r.update.as_slice()).collect();
                let weights: Vec<f32> = replies.iter().map(|r| r.weight).collect();
                let want = aggregate_robust(aggregator, &updates, &weights).ok();
                let bits = |v: Option<Vec<f32>>| {
                    v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(
                    bits(out.aggregated),
                    bits(want),
                    "{} round {round}",
                    aggregator.name()
                );
            }
        }
    }

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
