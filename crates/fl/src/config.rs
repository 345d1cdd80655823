//! Federated-learning run configuration and client-selection schedule.

use crate::adversary::AttackPlan;
use crate::chaos::FaultPlan;
use crate::scheduler::RoundPolicy;
use calibre_ssl::{ProbeConfig, SslConfig};
use calibre_tensor::rng;
use serde::{Deserialize, Serialize};

/// Configuration of one federated training run.
///
/// The paper's full-scale settings (§V-A) are 100 clients, 200 rounds, 10
/// clients per round, 3 local epochs, batch size 32 (supervised) / 256
/// (SSL), personalization via 10-epoch SGD at lr 0.05. The scaled defaults
/// here preserve the ratios at simulation-friendly sizes; the experiment
/// harness can restore the paper's numbers via CLI flags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of federated rounds.
    pub rounds: usize,
    /// Clients sampled per round.
    pub clients_per_round: usize,
    /// Local epochs per selected client per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Local learning rate.
    pub local_lr: f32,
    /// Local SGD momentum.
    pub local_momentum: f32,
    /// Personalization-stage hyperparameters (paper: 10 epochs, lr 0.05,
    /// batch 32).
    pub probe: ProbeConfig,
    /// SSL architecture/hyperparameters (also fixes the supervised encoder).
    pub ssl: SslConfig,
    /// Probability that a selected client drops out of a round before
    /// reporting (device unavailability / network failure simulation).
    /// At least one client always survives per round. 0 disables dropout.
    ///
    /// This thins the *selection schedule* up front. For runtime faults
    /// (dropout after selection, stragglers, crashes, corrupted updates)
    /// use [`FlConfig::chaos`], which the round engine decides per client.
    pub dropout_prob: f32,
    /// Deterministic runtime fault injection. The default plan is inactive
    /// and training is bit-identical to a chaos-free build.
    pub chaos: FaultPlan,
    /// Deterministic Byzantine-client simulation. The default plan is
    /// inactive and training is bit-identical to an attack-free build.
    pub attack: AttackPlan,
    /// Server-side anomaly detection and quarantine. Off by default; when
    /// on, quarantined clients stop being selected.
    pub detect: bool,
    /// Server-side round handling: minimum quorum, aggregation statistic,
    /// optional norm clipping.
    pub policy: RoundPolicy,
    /// Run seed (client sampling, initialization, shuffling).
    pub seed: u64,
}

impl FlConfig {
    /// Scaled-down defaults for an observation width.
    pub fn for_input(input_dim: usize) -> Self {
        FlConfig {
            rounds: 20,
            clients_per_round: 5,
            local_epochs: 3,
            batch_size: 32,
            local_lr: 0.05,
            local_momentum: 0.9,
            probe: ProbeConfig::default(),
            ssl: SslConfig::for_input(input_dim),
            dropout_prob: 0.0,
            chaos: FaultPlan::default(),
            attack: AttackPlan::default(),
            detect: false,
            policy: RoundPolicy::default(),
            seed: 0,
        }
    }

    /// Builds the client-selection schedule: for each round, which clients
    /// participate (sampled without replacement per round, as in the paper).
    ///
    /// With `dropout_prob > 0`, each selected client is then independently
    /// dropped with that probability (simulated unavailability), but every
    /// round retains at least one client.
    ///
    /// # Panics
    ///
    /// Panics if `num_clients == 0` or `dropout_prob` is outside `[0, 1)`.
    pub fn selection_schedule(&self, num_clients: usize) -> Vec<Vec<usize>> {
        assert!(num_clients > 0, "need at least one client");
        assert!(
            (0.0..1.0).contains(&self.dropout_prob),
            "dropout_prob must be in [0, 1), got {}",
            self.dropout_prob
        );
        let per_round = self.clients_per_round.min(num_clients);
        let mut r = rng::seeded(self.seed ^ 0x5E1E_C7ED);
        (0..self.rounds)
            .map(|_| {
                let mut selected = rng::sample_without_replacement(&mut r, num_clients, per_round);
                if self.dropout_prob > 0.0 {
                    use rand::Rng;
                    let survivors: Vec<usize> = selected
                        .iter()
                        .copied()
                        .filter(|_| r.gen::<f32>() >= self.dropout_prob)
                        .collect();
                    if !survivors.is_empty() {
                        selected = survivors;
                    } else {
                        selected.truncate(1);
                    }
                }
                selected
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_correct_shape() {
        let cfg = FlConfig::for_input(64);
        let schedule = cfg.selection_schedule(30);
        assert_eq!(schedule.len(), cfg.rounds);
        for round in &schedule {
            assert_eq!(round.len(), cfg.clients_per_round);
            let mut sorted = round.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), round.len(), "no repeats within a round");
            assert!(round.iter().all(|&c| c < 30));
        }
    }

    #[test]
    fn schedule_caps_at_population() {
        let mut cfg = FlConfig::for_input(64);
        cfg.clients_per_round = 50;
        let schedule = cfg.selection_schedule(3);
        assert!(schedule.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn dropout_thins_rounds_but_never_empties_them() {
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 200;
        cfg.clients_per_round = 5;
        cfg.dropout_prob = 0.5;
        let schedule = cfg.selection_schedule(30);
        let total: usize = schedule.iter().map(Vec::len).sum();
        // Expect roughly half the nominal participation.
        let nominal = 200 * 5;
        assert!(
            total < nominal * 7 / 10,
            "dropout had no effect: {total}/{nominal}"
        );
        assert!(schedule.iter().all(|round| !round.is_empty()));
    }

    #[test]
    fn zero_dropout_keeps_full_rounds() {
        let cfg = FlConfig::for_input(64);
        let schedule = cfg.selection_schedule(30);
        assert!(schedule.iter().all(|r| r.len() == cfg.clients_per_round));
    }

    #[test]
    #[should_panic(expected = "dropout_prob")]
    fn dropout_prob_of_one_is_rejected() {
        let mut cfg = FlConfig::for_input(64);
        cfg.dropout_prob = 1.0;
        cfg.selection_schedule(10);
    }

    #[test]
    fn schedule_is_deterministic_in_seed() {
        let cfg = FlConfig::for_input(64);
        assert_eq!(cfg.selection_schedule(20), cfg.selection_schedule(20));
        let mut other = cfg.clone();
        other.seed += 1;
        assert_ne!(other.selection_schedule(20), cfg.selection_schedule(20));
    }
}
