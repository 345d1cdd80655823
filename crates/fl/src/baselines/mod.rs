//! The baseline zoo of the Calibre evaluation (§V-A, "Benchmark
//! approaches").
//!
//! | Module | Methods |
//! |---|---|
//! | [`fedavg`] | FedAvg, FedAvg-FT |
//! | [`scaffold`] | SCAFFOLD, SCAFFOLD-FT |
//! | [`fedrep`] | FedRep |
//! | [`fedbabu`] | FedBABU |
//! | [`fedper`] | FedPer |
//! | [`lgfedavg`] | LG-FedAvg |
//! | [`perfedavg`] | PerFedAvg (first-order MAML) |
//! | [`apfl`] | APFL |
//! | [`ditto`] | Ditto |
//! | [`script`] | Script-Convergent, Script-Fair (local-only) |
//! | [`fedema`] | FedEMA (divergence-aware federated BYOL) |
//! | [`fedprox`] | FedProx (extension; not in the paper's roster) |
//!
//! The pFL-SSL family (pFL-SimCLR etc.) lives in [`crate::pfl_ssl`]; Calibre
//! itself lives in the `calibre` crate.
//!
//! Every baseline returns a [`BaselineResult`]: per-seen-client accuracies
//! after its own personalization rule, plus the global encoder used for
//! novel-client evaluation and figure generation.
//!
//! Every aggregating baseline trains on the round engine through
//! [`run_training_round`], so [`FlConfig`]'s chaos, attack, detection and
//! round policy apply to it, and its rounds report to the `Recorder` its
//! `run_*` function takes. SCAFFOLD runs its own round loop, because its
//! server control variate changes between rounds; every other baseline
//! trains through one shared loop. Per-client state (local heads,
//! encoders, personal models) lives in the engine's state slots and is
//! built from a per-client seed on first selection.

pub mod apfl;
pub mod ditto;
pub mod fedavg;
pub mod fedbabu;
pub mod fedema;
pub mod fedper;
pub mod fedprox;
pub mod fedrep;
pub mod lgfedavg;
pub mod perfedavg;
pub mod scaffold;
pub mod script;

use crate::config::FlConfig;
use crate::metrics::Stats;
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::pfl_ssl::run_training_round;
use crate::scheduler::RoundScheduler;
use crate::transport::StreamUpdate;
use calibre_data::FederatedDataset;
use calibre_ssl::{probe_accuracy, train_linear_probe_from, ProbeConfig};
use calibre_telemetry::{ClientLosses, Recorder};
use calibre_tensor::nn::{Linear, Mlp, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};

/// The outcome of running one baseline's training + personalization.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Method name as reported in the paper's figures.
    pub name: String,
    /// Per-seen-client personalized accuracies and their stats.
    pub seen: PersonalizationOutcome,
    /// The global encoder (novel-client evaluation, t-SNE figures). For
    /// methods without a shared encoder (LG-FedAvg) this is the average of
    /// the client encoders.
    pub encoder: Mlp,
    /// Mean local training loss per round (convergence diagnostics).
    pub round_losses: Vec<f32>,
}

impl BaselineResult {
    /// Convenience accessor for the seen-cohort stats.
    pub fn stats(&self) -> Stats {
        self.seen.stats
    }
}

/// Evaluates a cohort by fine-tuning a given head on frozen encoder
/// features (the `-FT` personalization rule, also used by FedRep / FedPer
/// with their per-client heads).
///
/// `head_for` supplies the initial head per client.
pub fn evaluate_with_head_finetune<F>(
    encoder: &Mlp,
    fed: &FederatedDataset,
    num_classes: usize,
    probe: &ProbeConfig,
    head_for: F,
) -> PersonalizationOutcome
where
    F: Fn(usize) -> Linear + Sync,
{
    let ids: Vec<usize> = (0..fed.num_clients()).collect();
    let accuracies = parallel_map(&ids, |&id| {
        let data = fed.client(id);
        if data.train.is_empty() || data.test.is_empty() {
            return 0.0;
        }
        let train_x = encoder.infer(&fed.generator().render_batch(data.train.iter()));
        let test_x = encoder.infer(&fed.generator().render_batch(data.test.iter()));
        let mut client_probe = *probe;
        client_probe.seed = probe.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
        let head = train_linear_probe_from(
            head_for(id),
            &train_x,
            &data.train_labels(),
            num_classes,
            &client_probe,
        );
        probe_accuracy(&head, &test_x, &data.test_labels())
    });
    PersonalizationOutcome::from_accuracies(accuracies)
}

/// Trains a baseline whose server keeps only the shared model `global`.
/// Returns the per-round mean losses and every client's final state.
///
/// Each round selects its cohort on [`RoundScheduler::from_config`],
/// broadcasts `global` flattened, runs `work(round, id, state, global)` for
/// each selected client through [`run_training_round`], and loads the
/// aggregate back into `global`. `state` is the client's state from its
/// last round (`None` on first selection, or after its work panicked).
/// A round with nothing to aggregate keeps `global` and repeats the
/// previous mean loss.
pub(crate) fn train_rounds<M, S, F>(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    global: &mut M,
    recorder: &dyn Recorder,
    work: F,
) -> (Vec<f32>, Vec<Option<S>>)
where
    M: Module,
    S: Send,
    F: Fn(usize, usize, Option<S>, &[f32]) -> (S, StreamUpdate, ClientLosses) + Sync,
{
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
    let mut states: Vec<Option<S>> = (0..fed.num_clients()).map(|_| None).collect();
    let mut round_losses = Vec::with_capacity(scheduler.rounds());
    for round in 0..scheduler.rounds() {
        let selected = scheduler.select(round, None);
        let round_span = calibre_telemetry::span("round");
        round_span.add_items(selected.len() as u64);
        let global_flat = global.to_flat();
        let fallback_loss = round_losses.last().copied().unwrap_or(0.0);
        let outcome = run_training_round(
            &scheduler,
            round,
            &selected,
            &global_flat,
            &mut states,
            fallback_loss,
            recorder,
            |id, state, global: &[f32]| work(round, id, state, global),
        );
        if let Some(aggregated) = &outcome.aggregated {
            global.load_flat(aggregated);
        }
        round_losses.push(outcome.mean_loss);
    }
    (round_losses, states)
}

/// A supervised client's reply: its flattened update, weighted by its
/// training-set size, and its local loss as the total.
pub(crate) fn supervised_reply(
    update: Vec<f32>,
    train_len: usize,
    loss: f32,
) -> (StreamUpdate, ClientLosses) {
    let reply = StreamUpdate {
        update,
        weight: train_len as f32,
        loss,
        divergence: 0.0,
    };
    let losses = ClientLosses {
        total: loss,
        ..ClientLosses::default()
    };
    (reply, losses)
}

/// A client's local optimizer for one round: SGD at the run's local
/// learning rate and momentum.
pub(crate) fn local_sgd(cfg: &FlConfig) -> Sgd {
    Sgd::new(SgdConfig::with_lr_momentum(
        cfg.local_lr,
        cfg.local_momentum,
    ))
}

/// Derives a per-client, per-round RNG seed from the run seed.
pub(crate) fn client_round_seed(run_seed: u64, round: usize, client: usize) -> u64 {
    run_seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}
