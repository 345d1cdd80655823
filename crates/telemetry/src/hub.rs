//! Thread-safe aggregation of the event stream into run-level summaries.

use crate::event::Event;
use crate::recorder::Recorder;
use crate::snapshot::HubSnapshot;
use parking_lot::Mutex;

/// Summary statistics for one completed federated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Zero-based round index.
    pub round: usize,
    /// Number of clients that reported a local update this round.
    pub num_clients: usize,
    /// Mean of the clients' total local losses.
    pub mean_loss: f32,
    /// Mean per-client wall-clock time, milliseconds.
    pub mean_wall_ms: f64,
    /// Maximum per-client wall-clock time (the round's straggler),
    /// milliseconds.
    pub max_wall_ms: f64,
    /// Histogram of per-client wall-clock times for this round.
    pub wall_histogram: Histogram,
    /// Bytes the communication model predicted for the round.
    pub planned_bytes: u64,
    /// Bytes actually moved through the aggregator.
    pub observed_bytes: u64,
}

/// Fairness summary over per-client personalized accuracies, matching the
/// paper's evaluation protocol (Table 1 reports mean and the bottom decile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessSummary {
    /// Number of clients evaluated.
    pub num_clients: usize,
    /// Mean accuracy across clients.
    pub mean: f32,
    /// Population standard deviation of accuracy across clients.
    pub std: f32,
    /// Mean accuracy of the worst 10% of clients (at least one client).
    pub worst_10pct: f32,
}

/// A small fixed-bucket histogram of per-client wall-clock times.
///
/// Buckets are powers of two in milliseconds: `<1ms, <2ms, <4ms, ...` with a
/// final overflow bucket. Coarse on purpose — the point is spotting straggler
/// skew at a glance, not profiling.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    counts: [u32; Histogram::BUCKETS],
}

impl Histogram {
    const BUCKETS: usize = 12;

    /// Adds one observation in milliseconds.
    pub fn observe(&mut self, ms: f64) {
        let mut idx = 0usize;
        let mut bound = 1.0f64;
        while ms >= bound && idx < Self::BUCKETS - 1 {
            bound *= 2.0;
            idx += 1;
        }
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
    }

    /// Bucket counts; bucket `i` covers `[2^(i-1), 2^i)` milliseconds
    /// (bucket 0 is `[0, 1)`, the last bucket is open-ended).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }
}

#[derive(Default)]
struct RoundInProgress {
    wall_ms: Vec<f64>,
    losses: Vec<f32>,
}

#[derive(Default)]
struct HubState {
    current: Option<RoundInProgress>,
    rounds: Vec<RoundSummary>,
    accuracies: Vec<f32>,
    resilience: ResilienceSummary,
    attacks: AttackSummary,
    cohort_points: Vec<CohortSummary>,
}

/// One point of a massive-cohort scaling sweep, folded from
/// [`Event::CohortPoint`]. See the `cohort` bench and `DESIGN.md` §11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortSummary {
    /// Simulated cohort size (clients folded per round).
    pub cohort: usize,
    /// Model dimension (floats per update).
    pub dim: usize,
    /// Number of edge groups (0 = flat streaming sink).
    pub groups: usize,
    /// Rounds executed at this sweep point.
    pub rounds: usize,
    /// Throughput over the sweep point, rounds per second.
    pub rounds_per_sec: f64,
    /// Peak bytes held by the aggregation path across the point's rounds.
    pub peak_state_bytes: u64,
    /// Peak process RSS after the point, bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
}

/// Run-level totals of the chaos/resilience event stream.
///
/// All zeros for a run with no fault injection and no failures — the round
/// engine only emits [`Event::Fault`] / [`Event::RoundResilience`] when
/// something non-nominal happens: per round, the faults come before
/// [`Event::Aggregate`], the resilience record right after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// [`Event::Fault`] events across all rounds.
    pub faults_injected: usize,
    /// Of those, the faults the engine caught (dropouts, crashed or lost
    /// clients, rejected updates, clipped corruptions).
    pub faults_detected: usize,
    /// Client update attempts that were retried. Always 0 for runs of the
    /// current engine, which does not retry.
    pub retries: usize,
    /// Rounds skipped because the surviving quorum was below `min_quorum`.
    pub rounds_skipped: usize,
    /// Smallest quorum that was actually aggregated, if any round reported.
    pub min_quorum_seen: Option<usize>,
}

/// Run-level totals of the adversary event stream.
///
/// All zeros for a run with no attack plan — the adversary layer only
/// emits [`Event::Attack`] / [`Event::Quarantine`] when a seeded attack
/// actually fired, so a nominal run's summary stays `Default`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackSummary {
    /// Attacks injected across all rounds (all kinds).
    pub attacks_injected: usize,
    /// Sign-flip attacks (`"attack_flip"`).
    pub flips: usize,
    /// Scaling attacks (`"attack_scale"`).
    pub scales: usize,
    /// Model-replacement attacks (`"attack_replace"`).
    pub replaces: usize,
    /// Inlier-fitted noise attacks (`"attack_noise"`).
    pub noises: usize,
    /// Colluding-group attacks (`"attack_collude"`).
    pub colludes: usize,
    /// Clients quarantined by the reputation book.
    pub quarantined: usize,
    /// Largest suspicion score seen at quarantine time (0 when none).
    pub max_suspicion: f32,
}

/// A thread-safe reducer over the telemetry stream.
///
/// Implements [`Recorder`], so it can sit directly in the loop (usually via
/// [`crate::Fanout`] next to a [`crate::JsonlSink`]) and fold events into
/// [`RoundSummary`]s and a final [`FairnessSummary`] without keeping the raw
/// stream in memory.
///
/// ```
/// use calibre_telemetry::{MetricsHub, Recorder};
///
/// let hub = MetricsHub::new();
/// hub.round_start(0, &[0, 1]);
/// hub.round_end(0, 0.5, &[2.0, 9.0], &[0.4, 0.6], 128, 128);
/// hub.personalize(0, 0.7);
/// hub.personalize(1, 0.9);
///
/// let rounds = hub.round_summaries();
/// assert_eq!(rounds.len(), 1);
/// assert_eq!(rounds[0].max_wall_ms, 9.0);
/// let fairness = hub.fairness_summary().unwrap();
/// assert_eq!(fairness.num_clients, 2);
/// assert!((fairness.mean - 0.8).abs() < 1e-6);
/// assert!((fairness.worst_10pct - 0.7).abs() < 1e-6);
/// ```
#[derive(Default)]
pub struct MetricsHub {
    state: Mutex<HubState>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Summaries of all rounds that have ended, in round order.
    pub fn round_summaries(&self) -> Vec<RoundSummary> {
        self.state.lock().rounds.clone()
    }

    /// Fairness summary over the personalized accuracies seen so far, or
    /// `None` if no [`Event::Personalize`] has been recorded.
    pub fn fairness_summary(&self) -> Option<FairnessSummary> {
        let state = self.state.lock();
        let accs = &state.accuracies;
        if accs.is_empty() {
            return None;
        }
        let n = accs.len();
        let mean = accs.iter().sum::<f32>() / n as f32;
        let var = accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / n as f32;
        let mut sorted = accs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let worst_n = (n as f32 * 0.1).ceil().max(1.0) as usize;
        let worst = sorted.iter().take(worst_n).sum::<f32>() / worst_n as f32;
        Some(FairnessSummary {
            num_clients: n,
            mean,
            std: var.sqrt(),
            worst_10pct: worst,
        })
    }

    /// Run-level chaos/resilience totals (all zeros for a nominal run).
    pub fn resilience_summary(&self) -> ResilienceSummary {
        self.state.lock().resilience
    }

    /// Run-level adversary totals (all zeros for an unattacked run).
    pub fn attack_summary(&self) -> AttackSummary {
        self.state.lock().attacks
    }

    /// The massive-cohort sweep points recorded so far, in arrival order
    /// (empty for training runs — only the `cohort` bench emits them).
    pub fn cohort_summaries(&self) -> Vec<CohortSummary> {
        self.state.lock().cohort_points.clone()
    }

    /// Total planned and observed communication bytes across all completed
    /// rounds, as `(planned, observed)`.
    pub fn total_bytes(&self) -> (u64, u64) {
        let state = self.state.lock();
        state.rounds.iter().fold((0, 0), |(p, o), r| {
            (p + r.planned_bytes, o + r.observed_bytes)
        })
    }

    /// A consistent point-in-time copy of everything folded so far: the
    /// single source for console summaries, the `/status` endpoint, and the
    /// `calibre-obs` CLI. All sections are captured under one lock
    /// acquisition per accessor, taken back-to-back — good enough for a
    /// hub that is only appended to.
    pub fn snapshot(&self) -> HubSnapshot {
        let (planned_bytes, observed_bytes) = self.total_bytes();
        HubSnapshot {
            rounds: self.round_summaries(),
            fairness: self.fairness_summary(),
            resilience: self.resilience_summary(),
            attacks: self.attack_summary(),
            cohorts: self.cohort_summaries(),
            planned_bytes,
            observed_bytes,
        }
    }
}

impl Recorder for MetricsHub {
    fn record(&self, event: Event) {
        let mut state = self.state.lock();
        match event {
            Event::RoundStart { .. } => {
                state.current = Some(RoundInProgress::default());
            }
            Event::ClientUpdate {
                wall_ms, losses, ..
            } => {
                let cur = state.current.get_or_insert_with(RoundInProgress::default);
                cur.wall_ms.push(wall_ms);
                cur.losses.push(losses.total);
            }
            Event::Aggregate { .. } => {}
            Event::RoundEnd {
                round,
                mean_loss,
                client_wall_ms,
                client_loss,
                planned_bytes,
                observed_bytes,
            } => {
                // Prefer the per-client vectors carried by the event itself;
                // fall back to what client_update events accumulated.
                let cur = state.current.take();
                let wall = if client_wall_ms.is_empty() {
                    cur.as_ref().map(|c| c.wall_ms.clone()).unwrap_or_default()
                } else {
                    client_wall_ms
                };
                let losses = if client_loss.is_empty() {
                    cur.as_ref().map(|c| c.losses.clone()).unwrap_or_default()
                } else {
                    client_loss
                };
                let mut hist = Histogram::default();
                for &ms in &wall {
                    hist.observe(ms);
                }
                let n = wall.len();
                let mean_wall = if n == 0 {
                    0.0
                } else {
                    wall.iter().sum::<f64>() / n as f64
                };
                let max_wall = wall.iter().cloned().fold(0.0f64, f64::max);
                let mean_loss = if !mean_loss.is_finite() && !losses.is_empty() {
                    losses.iter().sum::<f32>() / losses.len() as f32
                } else {
                    mean_loss
                };
                state.rounds.push(RoundSummary {
                    round,
                    num_clients: n.max(losses.len()),
                    mean_loss,
                    mean_wall_ms: mean_wall,
                    max_wall_ms: max_wall,
                    wall_histogram: hist,
                    planned_bytes,
                    observed_bytes,
                });
            }
            Event::Personalize { accuracy, .. } => {
                state.accuracies.push(accuracy);
            }
            Event::Fault { detected, .. } => {
                state.resilience.faults_injected += 1;
                if detected {
                    state.resilience.faults_detected += 1;
                }
            }
            Event::RoundResilience {
                retries,
                quorum,
                skipped,
                ..
            } => {
                state.resilience.retries += retries;
                if skipped {
                    state.resilience.rounds_skipped += 1;
                } else {
                    let best = state
                        .resilience
                        .min_quorum_seen
                        .map_or(quorum, |q| q.min(quorum));
                    state.resilience.min_quorum_seen = Some(best);
                }
            }
            Event::Attack { kind, .. } => {
                state.attacks.attacks_injected += 1;
                match kind {
                    "attack_flip" => state.attacks.flips += 1,
                    "attack_scale" => state.attacks.scales += 1,
                    "attack_replace" => state.attacks.replaces += 1,
                    "attack_noise" => state.attacks.noises += 1,
                    "attack_collude" => state.attacks.colludes += 1,
                    _ => {}
                }
            }
            Event::Quarantine { suspicion, .. } => {
                state.attacks.quarantined += 1;
                if suspicion > state.attacks.max_suspicion {
                    state.attacks.max_suspicion = suspicion;
                }
            }
            Event::CohortPoint {
                cohort,
                dim,
                groups,
                rounds,
                rounds_per_sec,
                peak_state_bytes,
                peak_rss_bytes,
            } => {
                state.cohort_points.push(CohortSummary {
                    cohort,
                    dim,
                    groups,
                    rounds,
                    rounds_per_sec,
                    peak_state_bytes,
                    peak_rss_bytes,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ClientLosses;
    use std::time::Duration;

    #[test]
    fn folds_resilience_counters() {
        let hub = MetricsHub::new();
        assert_eq!(hub.resilience_summary(), ResilienceSummary::default());
        hub.fault(0, 3, 0, "dropout", false);
        hub.fault(0, 3, 0, "dropout", true);
        hub.fault(1, 2, 1, "corrupt_nan", false);
        hub.round_resilience(0, 1, 1, 1, 4, false);
        hub.round_resilience(1, 1, 0, 0, 2, false);
        hub.round_resilience(2, 0, 0, 0, 0, true);
        let s = hub.resilience_summary();
        assert_eq!(s.faults_injected, 3, "every fault event counts as injected");
        assert_eq!(
            s.faults_detected, 1,
            "only flagged faults count as detected"
        );
        assert_eq!(s.retries, 1);
        assert_eq!(s.rounds_skipped, 1);
        assert_eq!(s.min_quorum_seen, Some(2));
    }

    #[test]
    fn folds_attack_counters() {
        let hub = MetricsHub::new();
        assert_eq!(hub.attack_summary(), AttackSummary::default());
        hub.attack(0, 1, "attack_flip");
        hub.attack(0, 2, "attack_scale");
        hub.attack(1, 1, "attack_flip");
        hub.attack(1, 3, "attack_collude");
        hub.quarantine(2, 1, 3.5);
        hub.quarantine(3, 3, 2.25);
        let s = hub.attack_summary();
        assert_eq!(s.attacks_injected, 4);
        assert_eq!(s.flips, 2);
        assert_eq!(s.scales, 1);
        assert_eq!(s.colludes, 1);
        assert_eq!(s.quarantined, 2);
        assert!((s.max_suspicion - 3.5).abs() < 1e-6);
    }

    #[test]
    fn folds_rounds_and_fairness() {
        let hub = MetricsHub::new();
        for round in 0..3usize {
            hub.round_start(round, &[0, 1, 2]);
            for client in 0..3usize {
                hub.client_update(
                    round,
                    client,
                    Duration::from_millis(1 + client as u64),
                    ClientLosses {
                        total: 1.0,
                        ..Default::default()
                    },
                    0.0,
                );
            }
            hub.aggregate(round, 3, 3.0);
            hub.round_end(round, 1.0, &[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], 96, 96);
        }
        for client in 0..10usize {
            hub.personalize(client, 0.5 + client as f32 * 0.05);
        }

        let rounds = hub.round_summaries();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[1].round, 1);
        assert_eq!(rounds[1].num_clients, 3);
        assert!((rounds[1].mean_wall_ms - 2.0).abs() < 1e-9);
        assert_eq!(rounds[1].max_wall_ms, 3.0);
        assert_eq!(rounds[1].wall_histogram.total(), 3);

        let fairness = hub.fairness_summary().unwrap();
        assert_eq!(fairness.num_clients, 10);
        assert!((fairness.mean - 0.725).abs() < 1e-5);
        // Worst 10% of 10 clients is exactly the single worst client.
        assert!((fairness.worst_10pct - 0.5).abs() < 1e-6);
        assert!(fairness.std > 0.0);

        assert_eq!(hub.total_bytes(), (288, 288));
    }

    #[test]
    fn round_end_falls_back_to_accumulated_client_updates() {
        let hub = MetricsHub::new();
        hub.round_start(0, &[0, 1]);
        hub.client_update(
            0,
            0,
            Duration::from_millis(4),
            ClientLosses {
                total: 2.0,
                ..Default::default()
            },
            0.0,
        );
        hub.client_update(
            0,
            1,
            Duration::from_millis(6),
            ClientLosses {
                total: 4.0,
                ..Default::default()
            },
            0.0,
        );
        // Empty vectors in round_end: the hub uses what it saw in
        // client_update events.
        hub.round_end(0, f32::NAN, &[], &[], 0, 0);
        let rounds = hub.round_summaries();
        assert_eq!(rounds[0].num_clients, 2);
        assert!((rounds[0].mean_wall_ms - 5.0).abs() < 0.1);
        assert!((rounds[0].mean_loss - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fairness_empty_is_none() {
        assert!(MetricsHub::new().fairness_summary().is_none());
    }

    #[test]
    fn folds_cohort_sweep_points() {
        let hub = MetricsHub::new();
        assert!(hub.cohort_summaries().is_empty());
        hub.cohort_point(1_000, 1024, 0, 5, 20.0, 8192, 0);
        hub.cohort_point(10_000, 1024, 32, 5, 18.5, 262_144, 1 << 20);
        let points = hub.cohort_summaries();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].cohort, 1_000);
        assert_eq!(points[1].groups, 32);
        assert_eq!(points[1].peak_state_bytes, 262_144);
    }

    #[test]
    fn round_with_zero_accepted_clients_folds_to_zeros() {
        // A below-quorum round ends with no client data at all; the summary
        // must fold to zeros instead of NaN-ing or panicking on division.
        let hub = MetricsHub::new();
        hub.round_start(0, &[]);
        hub.round_end(0, f32::NAN, &[], &[], 0, 0);
        let rounds = hub.round_summaries();
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].num_clients, 0);
        assert_eq!(rounds[0].mean_wall_ms, 0.0);
        assert_eq!(rounds[0].max_wall_ms, 0.0);
        assert_eq!(rounds[0].wall_histogram.total(), 0);
        // mean_loss stays NaN (there is nothing to recompute it from) —
        // the JSON layer encodes that as null downstream.
        assert!(rounds[0].mean_loss.is_nan());
        assert_eq!(hub.total_bytes(), (0, 0));
    }

    #[test]
    fn single_round_run_summarizes_cleanly() {
        let hub = MetricsHub::new();
        hub.round_start(0, &[0]);
        hub.round_end(0, 0.25, &[4.0], &[0.25], 64, 64);
        hub.personalize(0, 0.9);
        let snap = hub.snapshot();
        assert_eq!(snap.rounds.len(), 1);
        assert_eq!(snap.rounds[0].num_clients, 1);
        assert_eq!(snap.rounds[0].mean_wall_ms, 4.0);
        assert_eq!(snap.rounds[0].max_wall_ms, 4.0);
        let fairness = snap.fairness.expect("one personalize event recorded");
        // With a single client, mean == worst-10% and std is zero.
        assert_eq!(fairness.num_clients, 1);
        assert!((fairness.mean - 0.9).abs() < 1e-6);
        assert!((fairness.worst_10pct - 0.9).abs() < 1e-6);
        assert_eq!(fairness.std, 0.0);
        assert_eq!((snap.planned_bytes, snap.observed_bytes), (64, 64));
    }

    #[test]
    fn snapshot_mirrors_the_accessors() {
        let hub = MetricsHub::new();
        hub.round_start(0, &[0, 1]);
        hub.round_end(0, 0.5, &[1.0, 2.0], &[0.4, 0.6], 128, 120);
        hub.personalize(0, 0.7);
        hub.cohort_point(100, 16, 0, 2, 5.0, 1024, 0);
        hub.round_resilience(0, 0, 0, 1, 2, false);
        let snap = hub.snapshot();
        assert_eq!(snap.rounds, hub.round_summaries());
        assert_eq!(snap.fairness, hub.fairness_summary());
        assert_eq!(snap.resilience, hub.resilience_summary());
        assert_eq!(snap.cohorts, hub.cohort_summaries());
        assert_eq!((snap.planned_bytes, snap.observed_bytes), hub.total_bytes());
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::default();
        h.observe(0.5); // bucket 0: [0, 1)
        h.observe(1.0); // bucket 1: [1, 2)
        h.observe(3.9); // bucket 2: [2, 4)
        h.observe(1e9); // overflow bucket
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[2], 1);
        assert_eq!(h.counts()[Histogram::BUCKETS - 1], 1);
        assert_eq!(h.total(), 4);
    }
}
