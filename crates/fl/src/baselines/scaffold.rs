//! SCAFFOLD (Karimireddy et al., ICML 2020): stochastic controlled
//! averaging. Client drift under non-i.i.d. data is corrected with control
//! variates `c` (server) and `c_i` (per client): every local gradient is
//! adjusted by `− c_i + c`.

use crate::baselines::{
    client_round_seed, evaluate_with_head_finetune, supervised_reply, BaselineResult,
};
use crate::config::FlConfig;
use crate::model::{render_labeled, ClassifierModel};
use crate::parallel::parallel_map;
use crate::personalize::PersonalizationOutcome;
use crate::pfl_ssl::run_training_round;
use crate::scheduler::RoundScheduler;
use calibre_data::batch::batches;
use calibre_data::FederatedDataset;
use calibre_telemetry::{NullRecorder, Recorder};
use calibre_tensor::nn::{gradients, Binding, Module};
use calibre_tensor::{rng, Graph};

/// A client's control variate `c_i` and the change `Δc_i = c_i⁺ − c_i` its
/// last local pass made to it (what the client ships next to its model).
struct ControlVariate {
    c_i: Vec<f32>,
    delta: Vec<f32>,
}

/// One local SCAFFOLD pass from `global_flat`. Returns the new model, the
/// client's new control variate, and the mean loss.
#[allow(clippy::too_many_arguments)] // one argument per round input
fn local_update(
    fed: &FederatedDataset,
    id: usize,
    template: &ClassifierModel,
    global_flat: &[f32],
    c_global: &[f32],
    c_i: &[f32],
    cfg: &FlConfig,
    round: usize,
) -> (Vec<f32>, ControlVariate, f32) {
    let mut model = template.clone();
    model.load_flat(global_flat);
    let data = fed.client(id);
    let mut r = rng::seeded(client_round_seed(cfg.seed, round, id));
    let mut steps = 0usize;
    let mut loss_sum = 0.0f32;

    for _ in 0..cfg.local_epochs {
        for batch in batches(data.train.len(), cfg.batch_size, false, &mut r) {
            let (x, y) = render_labeled(data, fed.generator(), &batch);

            let mut g = Graph::new();
            let xn = g.constant(x);
            let mut binding = Binding::new();
            let feats = model.encoder_mut().forward(&mut g, xn, &mut binding);
            let logits = model.head().forward(&mut g, feats, &mut binding);
            let loss = g.cross_entropy(logits, &y);
            loss_sum += g.value(loss).get(0, 0);
            g.backward(loss);
            let grads = gradients(&g, &binding);

            // Controlled step: p ← p − lr (g − c_i + c), flat over all params.
            let grad = grads.iter().flat_map(|m| m.as_slice());
            let params = model.parameters_mut();
            let values = params.into_iter().flat_map(|p| p.as_mut_slice().iter_mut());
            for (((v, &gj), &cij), &cj) in values.zip(grad).zip(c_i).zip(c_global) {
                *v -= cfg.local_lr * (gj - cij + cj);
            }
            steps += 1;
        }
    }

    // Option II of the SCAFFOLD paper:
    // c_i⁺ = c_i − c + (x − y_i) / (K · lr)
    let model_flat = model.to_flat();
    let scale = 1.0 / (steps.max(1) as f32 * cfg.local_lr);
    let new_c_i: Vec<f32> = c_i
        .iter()
        .zip(c_global)
        .zip(global_flat.iter().zip(&model_flat))
        .map(|((&cij, &cj), (&x, &y))| cij - cj + (x - y) * scale)
        .collect();
    let delta = new_c_i
        .iter()
        .zip(c_i)
        .map(|(&new, &old)| new - old)
        .collect();
    let variate = ControlVariate {
        c_i: new_c_i,
        delta,
    };
    let mean_loss = loss_sum / steps.max(1) as f32;
    (model_flat, variate, mean_loss)
}

/// Trains a global classifier with SCAFFOLD. Returns the model and the
/// round-loss history.
pub fn train_scaffold_global(
    fed: &FederatedDataset,
    cfg: &FlConfig,
) -> (ClassifierModel, Vec<f32>) {
    train_global(fed, cfg, &NullRecorder)
}

/// [`train_scaffold_global`], reporting its rounds to `recorder`.
///
/// Every client reads the server variate `c` during a round and `c`
/// changes after it, so this loop calls [`run_training_round`] itself. A
/// client's state slot holds its [`ControlVariate`]; after an aggregated
/// round, `c ← c + (n/N) · mean(Δc_i)` over the `n` accepted clients.
fn train_global(
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> (ClassifierModel, Vec<f32>) {
    let num_classes = fed.generator().num_classes();
    let template = ClassifierModel::new(&cfg.ssl, num_classes, cfg.seed);
    let mut global = template.clone();
    let dim = global.num_scalars();
    let mut c_global = vec![0.0f32; dim];
    let mut states: Vec<Option<ControlVariate>> = (0..fed.num_clients()).map(|_| None).collect();
    let scheduler = RoundScheduler::from_config(cfg, fed.num_clients());
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
            |id, state: Option<ControlVariate>, global: &[f32]| {
                let c_i = state.map_or_else(|| vec![0.0f32; dim], |s| s.c_i);
                let (model_flat, variate, loss) =
                    local_update(fed, id, &template, global, &c_global, &c_i, cfg, round);
                let (reply, losses) =
                    supervised_reply(model_flat, fed.client(id).train_len(), loss);
                (variate, reply, losses)
            },
        );

        if let Some(aggregated) = &outcome.aggregated {
            global.load_flat(aggregated);
            // c ← c + (n/N) · mean_i(c_i⁺ − c_i)
            let n = outcome.accepted as f32;
            let frac = n / fed.num_clients() as f32;
            let mut delta_mean = vec![0.0f32; dim];
            for id in &outcome.clients {
                if let Some(Some(variate)) = states.get(*id) {
                    for (m, &d) in delta_mean.iter_mut().zip(&variate.delta) {
                        *m += d / n;
                    }
                }
            }
            for (c, &m) in c_global.iter_mut().zip(&delta_mean) {
                *c += frac * m;
            }
        }
        round_losses.push(outcome.mean_loss);
    }
    (global, round_losses)
}

/// Runs SCAFFOLD end to end (with `finetune` selecting SCAFFOLD vs
/// SCAFFOLD-FT evaluation, as in FedAvg), reporting its rounds to
/// `recorder`.
pub fn run_scaffold(
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
        name: if finetune { "SCAFFOLD-FT" } else { "SCAFFOLD" }.to_string(),
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
                seed: 13,
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
    fn scaffold_ft_learns_under_label_skew() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_scaffold(&fed, &cfg, true, &NullRecorder);
        assert!(
            result.stats().mean > 0.5,
            "SCAFFOLD-FT mean accuracy {:?}",
            result.stats()
        );
    }

    #[test]
    fn control_variates_keep_training_stable() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let result = run_scaffold(&fed, &cfg, false, &NullRecorder);
        assert!(result.round_losses.iter().all(|l| l.is_finite()));
        let first = result.round_losses[0];
        let last = *result.round_losses.last().unwrap();
        assert!(last < first, "losses: {:?}", result.round_losses);
    }

    #[test]
    fn deterministic_given_seed() {
        let fed = tiny_fed();
        let cfg = tiny_cfg();
        let a = run_scaffold(&fed, &cfg, true, &NullRecorder);
        let b = run_scaffold(&fed, &cfg, true, &NullRecorder);
        assert_eq!(a.seen.accuracies, b.seen.accuracies);
    }
}
