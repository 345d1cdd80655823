//! Round orchestration shared by every training loop and the serve engine.
//!
//! [`RoundScheduler`] owns the per-run decisions: which clients
//! participate in a round (a fixed schedule or a seeded [`Sampler`]), what
//! faults and attacks are injected ([`FaultInjector`],
//! [`AttackInjector`]), and how the round is screened and aggregated
//! ([`RoundPolicy`]).
//!
//! [`RoundScheduler::run_round`] is the one round engine. Client work runs
//! wherever a [`Transport`] puts it (in-process workers or remote
//! clients). The caller says how the round aggregates ([`Fold`]): each
//! accepted update streams into an [`UpdateSink`] the moment its wave
//! returns, in O(model) state for a weighted sink or O(groups × model) for
//! a [`crate::aggregate::HierarchicalSink`]; or the engine holds the
//! accepted replies' own buffers, at most a reservoir's capacity of them,
//! and seals them with the policy's aggregator. Detection scores every
//! accepted update, so a round it scores is held whole. The training loops
//! run on the engine through [`crate::pfl_ssl::run_training_round`], the
//! serve engine through [`crate::serve::run_rounds`]. See `DESIGN.md` §11
//! for the scaling model.
//!
//! # Determinism
//!
//! Rounds are replay-identical: selection depends only on `(seed, round)`,
//! fault and attack decisions only on `(round, client)`, and updates are
//! folded in selection-slot order (transports return replies in slot
//! order). With an inactive chaos plan and the default policy the training
//! loops are bit-identical to the historical nominal loop — the
//! golden-checksum tests pin this through the training entry points.

use crate::adversary::{
    anomaly_scores_against, AnomalyScore, AttackInjector, AttackPlan, ReputationBook,
};
use crate::aggregate::{
    aggregate_robust, clip_norm, median_and_midpoints, validate_update, Aggregator, Hold,
    UpdateSink,
};
use crate::chaos::{ClientFault, FaultInjector, FaultPlan};
use crate::config::FlConfig;
use crate::sampler::Sampler;
use crate::transport::{StreamUpdate, Transport, TransportError, WaveSlot};
use calibre_telemetry::{metrics, Recorder};
use serde::{Deserialize, Serialize};

/// How the server screens and aggregates one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundPolicy {
    /// Minimum number of accepted client updates required to aggregate;
    /// below this the round is skipped (global model unchanged). Values
    /// below 1 behave as 1.
    pub min_quorum: usize,
    /// Aggregation statistic applied to the accepted updates.
    pub aggregator: Aggregator,
    /// Optional L2 norm cap applied to each accepted update.
    pub clip_norm: Option<f32>,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            min_quorum: 1,
            aggregator: Aggregator::WeightedAverage,
            clip_norm: None,
        }
    }
}

/// How [`RoundScheduler::run_round`] aggregates a round's accepted updates.
pub enum Fold<'a> {
    /// Fold each accepted update into the sink as its wave returns; the
    /// sink's [`UpdateSink::finish`] is the round's aggregate.
    Stream(&'a mut dyn UpdateSink),
    /// Hold each accepted reply's own buffer, and seal the round with the
    /// policy's aggregator ([`aggregate_robust`]). Past `capacity` updates
    /// a seeded reservoir samples the round uniformly, unless detection
    /// scores it: then every accepted update is held.
    Hold {
        /// The most updates held (at least one).
        capacity: usize,
        /// Seeds the reservoir's replacement choices.
        seed: u64,
    },
}

impl std::fmt::Debug for Fold<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fold::Stream(sink) => write!(f, "Stream({} folded)", sink.folded()),
            Fold::Hold { capacity, seed } => {
                write!(f, "Hold {{ capacity: {capacity}, seed: {seed} }}")
            }
        }
    }
}

/// How a scheduler picks each round's cohort.
#[derive(Debug, Clone)]
enum Selection {
    /// A precomputed per-round schedule (the training loops' historical
    /// behaviour via [`FlConfig::selection_schedule`]).
    Fixed(Vec<Vec<usize>>),
    /// A seeded [`Sampler`] over a large population.
    Sampled {
        sampler: Sampler,
        population: usize,
        cohort: usize,
        rounds: usize,
    },
}

/// Result of one round ([`RoundScheduler::run_round`]).
#[derive(Debug, Default)]
pub struct StreamedRound {
    /// Cohort size this round (selected clients).
    pub cohort: usize,
    /// Updates folded into the sink.
    pub accepted: usize,
    /// The accepted client ids, in fold order.
    pub clients: Vec<usize>,
    /// Clients that never reported: a dropout or injected panic (decided
    /// before dispatch), or a reply the transport could not deliver.
    pub dropped: usize,
    /// Replies rejected by screening: a length other than the global
    /// model's, a non-finite or negative weight, or a non-finite update.
    pub rejected: usize,
    /// Sum of the folded aggregation weights.
    pub weight_sum: f32,
    /// Whether the round missed the minimum quorum (no aggregate).
    pub skipped: bool,
    /// The aggregate, unless the round was skipped.
    pub aggregated: Option<Vec<f32>>,
    /// Peak bytes held by the aggregation path, each byte once, after each
    /// wave: the sink's state, the engine's hold (the held replies, their
    /// spine and weights), and the wave's replies the round does not hold
    /// — the O(model) quantity the `cohort` bench pins for a streamed
    /// round.
    pub peak_state_bytes: usize,
    /// Mean reported loss over accepted clients (0 when none accepted).
    pub mean_loss: f32,
    /// Mean reported divergence over accepted clients (0 when untracked).
    pub mean_divergence: f32,
}

/// Owns selection, fault injection, adversary simulation, anomaly
/// detection, and round policy for a training run.
///
/// # Determinism
///
/// Selection, chaos, and attack decisions are all re-derived from
/// `(seed, round, client)`, so calling [`RoundScheduler::select`] twice —
/// or resuming a checkpointed run at round `k` — yields exactly the
/// schedule of an uninterrupted run. The one piece of mutable state is the
/// [`ReputationBook`]: it folds anomaly scores round by round, and because
/// the scores themselves are deterministic, a resumed run that restores
/// the book from a checkpoint (via [`RoundScheduler::with_reputation`])
/// replays identically too. An empty book leaves [`RoundScheduler::select`]
/// bit-identical to a detection-free scheduler.
///
/// # Examples
///
/// Sampling a 32-client cohort from a 10k population and streaming the
/// round through a constant-memory sink on in-process workers:
///
/// ```
/// use calibre_fl::aggregate::StreamingWeightedSink;
/// use calibre_fl::sampler::{Sampler, SamplerKind};
/// use calibre_fl::scheduler::{Fold, RoundScheduler};
/// use calibre_fl::transport::{InProcessTransport, StreamUpdate};
/// use calibre_telemetry::NullRecorder;
///
/// let scheduler =
///     RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 7), 10_000, 32, 3);
/// assert_eq!(scheduler.rounds(), 3);
/// let selected = scheduler.select(0, None);
/// assert_eq!(selected, scheduler.select(0, None), "replay-identical");
///
/// let global = vec![0.0f32; 4];
/// let mut transport = InProcessTransport::new(|_round, client, global: &[f32]| StreamUpdate {
///     update: vec![client as f32; global.len()],
///     weight: 1.0,
///     loss: 0.0,
///     divergence: 0.0,
/// });
/// let mut sink = StreamingWeightedSink::new();
/// let out = scheduler
///     .run_round(0, &selected, 8, &global, Fold::Stream(&mut sink), &mut transport, &NullRecorder)
///     .unwrap();
/// assert_eq!(out.accepted, 32);
/// assert!(!out.skipped);
/// assert_eq!(out.aggregated.unwrap().len(), 4);
/// ```
#[derive(Debug)]
pub struct RoundScheduler {
    selection: Selection,
    injector: Option<FaultInjector>,
    attacker: Option<AttackInjector>,
    detect: bool,
    reputation: std::cell::RefCell<ReputationBook>,
    policy: RoundPolicy,
}

impl RoundScheduler {
    /// The training loops' scheduler: fixed selection schedule, chaos
    /// injector, and round policy all taken from the run config.
    pub fn from_config(cfg: &FlConfig, num_clients: usize) -> Self {
        RoundScheduler {
            selection: Selection::Fixed(cfg.selection_schedule(num_clients)),
            injector: cfg
                .chaos
                .is_active()
                .then(|| FaultInjector::for_run(cfg.chaos.clone(), cfg.seed)),
            attacker: cfg
                .attack
                .is_active()
                .then(|| AttackInjector::for_run(cfg.attack.clone(), cfg.seed)),
            detect: cfg.detect,
            reputation: std::cell::RefCell::new(ReputationBook::new()),
            policy: cfg.policy,
        }
    }

    /// A scheduler that samples `cohort` of `population` clients per round
    /// for `rounds` rounds, with the default [`RoundPolicy`] and no chaos.
    pub fn sampled(sampler: Sampler, population: usize, cohort: usize, rounds: usize) -> Self {
        RoundScheduler {
            selection: Selection::Sampled {
                sampler,
                population,
                cohort,
                rounds,
            },
            injector: None,
            attacker: None,
            detect: false,
            reputation: std::cell::RefCell::new(ReputationBook::new()),
            policy: RoundPolicy::default(),
        }
    }

    /// Replaces the round policy (quorum, aggregator, clipping).
    pub fn with_policy(mut self, policy: RoundPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms deterministic fault injection with the given plan and run seed
    /// (a no-op for inactive plans, matching the training loops).
    pub fn with_chaos(mut self, plan: FaultPlan, run_seed: u64) -> Self {
        self.injector = plan
            .is_active()
            .then(|| FaultInjector::for_run(plan, run_seed));
        self
    }

    /// Arms deterministic Byzantine-client simulation with the given
    /// [`AttackPlan`] and run seed (a no-op for inactive plans). Attack
    /// decisions are a pure function of `(plan.seed, run_seed, round,
    /// client)` and independent of the chaos stream, so arming both never
    /// correlates their draws.
    pub fn with_attack(mut self, plan: AttackPlan, run_seed: u64) -> Self {
        self.attacker = plan
            .is_active()
            .then(|| AttackInjector::for_run(plan, run_seed));
        self
    }

    /// Enables server-side anomaly detection: each executed round scores
    /// the accepted updates ([`crate::adversary::anomaly_scores`]), folds
    /// them into the [`ReputationBook`], and quarantined clients stop being
    /// drawn by [`RoundScheduler::select`]. Detection scores every accepted
    /// update, so the engine holds a detected round whole, beside a
    /// streaming sink too, and a held round's reservoir never samples:
    /// O(cohort × model), accounted into `peak_state_bytes`. Leave it off
    /// for massive-cohort runs.
    pub fn with_detection(mut self, on: bool) -> Self {
        self.detect = on;
        self
    }

    /// Restores reputation state from a checkpoint, so a resumed run
    /// quarantines exactly as the uninterrupted run would.
    pub fn with_reputation(mut self, book: ReputationBook) -> Self {
        self.reputation = std::cell::RefCell::new(book);
        self
    }

    /// A snapshot of the current reputation state (for checkpointing).
    pub fn reputation(&self) -> ReputationBook {
        self.reputation.borrow().clone()
    }

    /// The round policy this scheduler executes under.
    pub fn policy(&self) -> &RoundPolicy {
        &self.policy
    }

    /// Total number of rounds in the run.
    pub fn rounds(&self) -> usize {
        match &self.selection {
            Selection::Fixed(schedule) => schedule.len(),
            Selection::Sampled { rounds, .. } => *rounds,
        }
    }

    /// The cohort for `round`, sorted ascending. `scores` feeds weighted
    /// samplers (see [`Sampler::select`]); fixed schedules ignore it.
    ///
    /// Quarantined clients (see [`RoundScheduler::with_detection`]) are
    /// never drawn: sampled selections route through
    /// [`Sampler::select_excluding`], fixed schedules are filtered. With an
    /// empty reputation book the selection is bit-identical to a
    /// detection-free scheduler.
    pub fn select(&self, round: usize, scores: Option<&[f32]>) -> Vec<usize> {
        let banned = self.reputation.borrow().quarantined();
        match &self.selection {
            Selection::Fixed(schedule) => {
                let mut selected = schedule.get(round).cloned().unwrap_or_default();
                if !banned.is_empty() {
                    selected.retain(|id| !banned.contains(id));
                }
                selected
            }
            Selection::Sampled {
                sampler,
                population,
                cohort,
                ..
            } => sampler.select_excluding(round, *population, *cohort, scores, &banned),
        }
    }

    /// Emits one [`calibre_telemetry::Event::Attack`] per cohort member the
    /// adversary plan fires on this round. Decisions are pure per
    /// `(round, client)`, so the event stream is identical on every
    /// transport regardless of chaos dropouts downstream.
    fn record_attacks(&self, round: usize, selected: &[usize], recorder: &dyn Recorder) {
        if let Some(atk) = &self.attacker {
            for &id in selected {
                if let Some(kind) = atk.decide(round, id) {
                    recorder.attack(round, id, kind.kind_tag());
                }
            }
        }
    }

    /// Folds one executed round's anomaly scores into the reputation book
    /// and emits a [`calibre_telemetry::Event::Quarantine`] per newly
    /// quarantined client. The scores come from the accepted updates
    /// exactly as the aggregator saw them. Skipped rounds still observe:
    /// detection must not pause while an adversary suppresses quorum.
    fn observe_round(&self, round: usize, scores: &[AnomalyScore], recorder: &dyn Recorder) {
        if scores.is_empty() {
            return;
        }
        let newly = self.reputation.borrow_mut().observe_round(scores);
        for client in newly {
            let suspicion = scores
                .iter()
                .find(|s| s.client == client)
                .map_or(0.0, AnomalyScore::suspicion);
            recorder.quarantine(round, client, suspicion);
        }
        metrics::gauge_set(
            "calibre_quarantined_clients",
            &[],
            self.reputation.borrow().quarantined_count() as f64,
        );
    }

    /// Executes one round through a [`Transport`], aggregating the
    /// accepted updates as `fold` says: streamed into a sink as each wave
    /// returns, or held and sealed with the policy's aggregator. Client
    /// work runs wherever the transport puts it — in-process workers
    /// ([`crate::transport::InProcessTransport`]) or remote
    /// `calibre-client` processes ([`crate::transport::SocketTransport`]) —
    /// at most `wave` clients in flight at once, and replies are folded or
    /// held in selection-slot order, a streamed one with the client id as
    /// [`UpdateSink::fold`]'s `client` argument.
    ///
    /// Chaos composes with sampling. Dropouts and injected mid-update
    /// panics remove the client before dispatch (there are no retries: a
    /// lost client is noise, and the next round selects again).
    /// Stragglers are reported, not slept. A reply is rejected, never
    /// folded, when its update length differs from `global`'s, its weight
    /// is non-finite or negative, or its update is non-finite after
    /// adversarial tampering and chaos corruption — so `global` must be
    /// the round's real model. Accepted updates are norm-clipped when the
    /// policy says so.
    ///
    /// The quorum gate is checked at the end: a round with fewer than
    /// [`RoundPolicy::min_quorum`] accepted updates reports
    /// `skipped: true` and is not aggregated. Folds cannot be undone, so
    /// callers build a fresh sink every round. A held median round that
    /// detection scores and that meets its quorum seals in one pass per
    /// column ([`median_and_midpoints`]), which gives detection its column
    /// medians too.
    ///
    /// Every reply's update buffer goes back to the transport exactly once
    /// ([`Transport::reclaim`]), as soon as the round is done with it: a
    /// rejected reply, or one the reservoir passes over or displaces, at
    /// once; a streamed one after its fold; a held one after the seal,
    /// whether or not the round met its quorum.
    ///
    /// Telemetry: one `attack` event per attacked selection, one `fault`
    /// event per client outcome the engine decides, in slot order —
    /// `dropout` and `panic` before dispatch, the corruption tag or
    /// `invalid` when screening rejects a reply, `lost` for a reply the
    /// transport could not deliver (all `detected: true`), plus `straggle`
    /// and finite corruptions on folded replies (`detected` only when the
    /// norm clip bit) — then one `aggregate` event, and `round_resilience`
    /// when anything was dropped or rejected or the quorum was missed.
    /// Per-client `client_update` events belong to the caller: they would
    /// dominate a 100k-client run.
    ///
    /// # Determinism
    ///
    /// With the same seeds and cohort schedule, and a transport that
    /// delivers every surviving client's reply (possibly after retries
    /// below the seam), every transport folds bit-identically — the golden
    /// cross-transport test pins it.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable [`TransportError`]s; per-client delivery
    /// failures are absorbed as drops.
    #[allow(clippy::too_many_arguments)] // one argument per round input
    pub fn run_round(
        &self,
        round: usize,
        selected: &[usize],
        wave: usize,
        global: &[f32],
        fold: Fold<'_>,
        transport: &mut dyn Transport,
        recorder: &dyn Recorder,
    ) -> Result<StreamedRound, TransportError> {
        let wave = wave.max(1);
        let _round_timer = metrics::start_timer("calibre_round_duration_ms", &[]);
        self.record_attacks(round, selected, recorder);
        let mut out = StreamedRound {
            cohort: selected.len(),
            ..StreamedRound::default()
        };
        // Dropouts and panics are decided up front on the scheduler
        // thread, per (round, id) — identical on replay.
        let survivors = self.survivors(round, selected, &mut out, recorder);

        // Detection scores every accepted update, so a round it scores is
        // held whole, beside a streaming sink too.
        let (mut sink, mut hold) = match fold {
            Fold::Stream(sink) => (Some(sink), self.detect.then(|| Hold::new(usize::MAX, 0))),
            Fold::Hold { capacity, seed } => {
                let capacity = if self.detect { usize::MAX } else { capacity };
                (None, Some(Hold::new(capacity, seed)))
            }
        };
        let (mut loss_sum, mut div_sum) = (0.0f32, 0.0f32);
        let mut wire_slot = 0usize;
        for chunk in survivors.chunks(wave) {
            let slots: Vec<WaveSlot> = chunk
                .iter()
                .enumerate()
                .map(|(i, &(id, _))| WaveSlot {
                    slot: wire_slot + i,
                    client: id,
                })
                .collect();
            wire_slot += chunk.len();
            let replies = transport.wave(round, &slots, global)?;
            // Bytes of this wave's replies the round does not hold: they
            // are held until the wave loop is done with them.
            let mut loose_bytes = 0usize;
            for ((id, fault), reply) in chunk.iter().copied().zip(replies) {
                // A reply the transport exhausted its delivery attempts on
                // is, at the orchestration layer, a dropout.
                let Some(mut reply) = reply else {
                    out.dropped += 1;
                    recorder.fault(round, id, 0, "lost", true);
                    continue;
                };
                let spent = match self.screen(round, id, fault, &mut reply, global.len()) {
                    Err(tag) => {
                        out.rejected += 1;
                        recorder.fault(round, id, 0, tag, true);
                        Some(reply.update)
                    }
                    Ok(clipped) => {
                        match fault {
                            Some(ClientFault::Straggle) => {
                                recorder.fault(round, id, 0, "straggle", false);
                            }
                            Some(ClientFault::Corrupt(kind)) => {
                                recorder.fault(round, id, 0, kind.kind_tag(), clipped);
                            }
                            _ => {}
                        }
                        out.clients.push(id);
                        out.weight_sum += reply.weight;
                        loss_sum += reply.loss;
                        div_sum += reply.divergence;
                        // Screening matched the update's length to the
                        // global model, so the fold cannot fail.
                        if let Some(sink) = sink.as_mut() {
                            let _ = sink.fold(id, &reply.update, reply.weight);
                        }
                        match hold.as_mut() {
                            Some(hold) => hold.keep(reply.update, reply.weight),
                            None => Some(reply.update),
                        }
                    }
                };
                if let Some(update) = spent {
                    loose_bytes += std::mem::size_of_val(update.as_slice());
                    transport.reclaim(update);
                }
            }
            let kept_bytes = sink.as_ref().map_or(0, |sink| sink.state_bytes())
                + hold.as_ref().map_or(0, Hold::state_bytes);
            out.peak_state_bytes = out.peak_state_bytes.max(kept_bytes + loose_bytes);
        }
        out.accepted = out.clients.len();
        if out.accepted > 0 {
            // Division (not multiply-by-reciprocal) to stay bit-identical
            // with the historical training loops.
            // analyze:allow(lossy-cast) -- cohort sizes sit far below f32
            // integer precision loss (2^24).
            let n = out.accepted as f32;
            out.mean_loss = loss_sum / n;
            out.mean_divergence = div_sum / n;
        }

        // The reputation book and its `quarantine` events follow the
        // round's `aggregate` and `round_resilience` events.
        let (aggregated, scores) = self.seal(&out.clients, sink, hold.as_ref(), out.accepted);
        let sealed = self.seal_round(round, out, aggregated, recorder);
        if let Some(scores) = scores {
            self.observe_round(round, &scores, recorder);
        }
        for update in hold.map(Hold::into_buffers).unwrap_or_default() {
            transport.reclaim(update);
        }
        Ok(sealed)
    }

    /// The round's aggregate, when `accepted` meets the quorum, and the
    /// accepted updates' anomaly scores, when detection is on. A held
    /// median round that detection scores and that meets its quorum
    /// computes both in one pass per column.
    fn seal(
        &self,
        clients: &[usize],
        sink: Option<&mut dyn UpdateSink>,
        hold: Option<&Hold>,
        accepted: usize,
    ) -> (Option<Vec<f32>>, Option<Vec<AnomalyScore>>) {
        let quorate = accepted >= self.policy.min_quorum.max(1);
        let updates = hold.map(Hold::updates).unwrap_or_default();
        let weights = hold.map(Hold::weights).unwrap_or_default();
        let fused = self.detect
            && quorate
            && sink.is_none()
            && self.policy.aggregator == Aggregator::CoordinateMedian;
        let (aggregated, medians) = if fused {
            median_and_midpoints(&updates, weights).ok().unzip()
        } else {
            let aggregated = quorate.then(|| match sink {
                Some(sink) => sink.finish(),
                None => aggregate_robust(self.policy.aggregator, &updates, weights),
            });
            (aggregated.and_then(Result::ok), None)
        };
        let scores = self
            .detect
            .then(|| anomaly_scores_against(clients, &updates, medians));
        (aggregated, scores)
    }

    /// Applies the round's up-front chaos decisions: dropouts and injected
    /// mid-update panics remove the client for the round (reported as
    /// detected faults); other faults ride along to be applied to the
    /// reply.
    fn survivors(
        &self,
        round: usize,
        selected: &[usize],
        out: &mut StreamedRound,
        recorder: &dyn Recorder,
    ) -> Vec<(usize, Option<ClientFault>)> {
        let mut survivors: Vec<(usize, Option<ClientFault>)> = Vec::with_capacity(selected.len());
        for &id in selected {
            let fault = self.injector.as_ref().and_then(|i| i.decide(round, id, 0));
            match fault {
                Some(f @ (ClientFault::Dropout | ClientFault::PanicMidUpdate)) => {
                    out.dropped += 1;
                    recorder.fault(round, id, 0, f.kind_tag(), true);
                }
                _ => survivors.push((id, fault)),
            }
        }
        survivors
    }

    /// Screens one delivered reply in place. A reply whose shape or weight
    /// is malformed (length other than `dim`, non-finite or negative
    /// weight) is rejected as received. Otherwise adversarial tampering
    /// lands first (the client is compromised), then per-reply chaos
    /// corruption, validation, and norm clipping. Returns whether the clip
    /// bit, or the fault tag a rejection is reported under.
    fn screen(
        &self,
        round: usize,
        id: usize,
        fault: Option<ClientFault>,
        reply: &mut StreamUpdate,
        dim: usize,
    ) -> Result<bool, &'static str> {
        if reply.update.len() != dim || !reply.weight.is_finite() || reply.weight < 0.0 {
            return Err("invalid");
        }
        if let Some(atk) = &self.attacker {
            if let Some(kind) = atk.decide(round, id) {
                atk.apply(round, id, kind, &mut reply.update);
            }
        }
        let corruption = match fault {
            Some(ClientFault::Corrupt(kind)) => Some(kind),
            _ => None,
        };
        if let (Some(kind), Some(inj)) = (corruption, self.injector.as_ref()) {
            inj.corrupt(round, id, 0, kind, &mut reply.update);
        }
        if !validate_update(&reply.update) {
            return Err(corruption.map_or("invalid", |kind| kind.kind_tag()));
        }
        Ok(self
            .policy
            .clip_norm
            .is_some_and(|max_norm| clip_norm(&mut reply.update, max_norm)))
    }

    /// The round's aggregate, telemetry, and metrics that close a round.
    fn seal_round(
        &self,
        round: usize,
        mut out: StreamedRound,
        aggregated: Option<Vec<f32>>,
        recorder: &dyn Recorder,
    ) -> StreamedRound {
        out.aggregated = aggregated;
        out.skipped = out.aggregated.is_none();
        recorder.aggregate(round, out.accepted, out.weight_sum);
        if out.dropped > 0 || out.rejected > 0 || out.skipped {
            recorder.round_resilience(
                round,
                out.dropped + out.rejected,
                out.dropped + out.rejected,
                0,
                out.accepted,
                out.skipped,
            );
        }

        metrics::counter_add("calibre_rounds_total", &[], 1);
        metrics::counter_add("calibre_clients_accepted_total", &[], out.accepted as u64);
        metrics::counter_add("calibre_clients_dropped_total", &[], out.dropped as u64);
        metrics::counter_add("calibre_clients_rejected_total", &[], out.rejected as u64);
        metrics::observe("calibre_round_quorum", &[], out.accepted as f64);
        metrics::counter_add(
            "calibre_quorum_outcomes_total",
            &[("outcome", if out.skipped { "missed" } else { "met" })],
            1,
        );
        if out.skipped {
            metrics::counter_add("calibre_rounds_skipped_total", &[], 1);
        }
        metrics::gauge_max(
            "calibre_sink_peak_state_bytes",
            &[],
            out.peak_state_bytes as f64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::anomaly_scores;
    use crate::aggregate::{coordinate_median, AggregateError, StreamingWeightedSink};
    use crate::sampler::SamplerKind;
    use crate::transport::InProcessTransport;
    use calibre_telemetry::{Event, MemoryRecorder, NullRecorder};

    fn toy_scheduler(cohort: usize, rounds: usize) -> RoundScheduler {
        RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 1_000, cohort, rounds)
    }

    /// One round over in-process workers against a zero global
    /// model of `dim`: each client replies `update_of(client)` at weight 1,
    /// folded into a deferred weighted sink.
    fn in_process_round<U>(
        scheduler: &RoundScheduler,
        round: usize,
        selected: &[usize],
        wave: usize,
        dim: usize,
        update_of: U,
        recorder: &dyn Recorder,
    ) -> StreamedRound
    where
        U: Fn(usize) -> Vec<f32> + Sync,
    {
        let mut transport = InProcessTransport::new(|_round, id, _global: &[f32]| StreamUpdate {
            update: update_of(id),
            weight: 1.0,
            loss: 0.0,
            divergence: 0.0,
        });
        let mut sink = StreamingWeightedSink::new();
        scheduler
            .run_round(
                round,
                selected,
                wave,
                &vec![0.0; dim],
                Fold::Stream(&mut sink),
                &mut transport,
                recorder,
            )
            .unwrap()
    }

    #[test]
    fn fixed_selection_mirrors_the_config_schedule() {
        let mut cfg = FlConfig::for_input(16);
        cfg.rounds = 4;
        cfg.clients_per_round = 3;
        let scheduler = RoundScheduler::from_config(&cfg, 10);
        assert_eq!(scheduler.rounds(), 4);
        let schedule = cfg.selection_schedule(10);
        for (round, expected) in schedule.iter().enumerate() {
            assert_eq!(&scheduler.select(round, None), expected);
        }
    }

    #[test]
    fn streaming_round_matches_the_collected_aggregate() {
        let scheduler = toy_scheduler(16, 1);
        let selected = scheduler.select(0, None);
        // analyze:allow(lossy-cast) -- toy ids in tests.
        let update_of = |id: usize| vec![id as f32 * 0.5, 1.0 - id as f32];
        let out = in_process_round(&scheduler, 0, &selected, 4, 2, update_of, &NullRecorder);
        let updates: Vec<Vec<f32>> = selected.iter().map(|&id| update_of(id)).collect();
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0; refs.len()];
        let expected = aggregate_robust(Aggregator::WeightedAverage, &refs, &weights).unwrap();
        let got = out.aggregated.unwrap();
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-5, "{g} vs {e}");
        }
        assert_eq!(out.accepted, 16);
        assert_eq!(out.cohort, 16);
    }

    #[test]
    fn streaming_round_is_replay_identical() {
        let run = || {
            let scheduler = toy_scheduler(32, 1).with_chaos(
                FaultPlan {
                    drop_prob: 0.2,
                    ..FaultPlan::default()
                },
                77,
            );
            let selected = scheduler.select(0, None);
            let out = in_process_round(
                &scheduler,
                0,
                &selected,
                8,
                3,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| vec![id as f32; 3],
                &NullRecorder,
            );
            (out.accepted, out.dropped, out.aggregated)
        };
        let (a_acc, a_drop, a_agg) = run();
        let (b_acc, b_drop, b_agg) = run();
        assert_eq!(a_acc, b_acc);
        assert_eq!(a_drop, b_drop);
        assert_eq!(a_agg, b_agg, "same seed replays bit-identically");
        assert!(a_drop > 0, "0.2 drop over 32 clients should hit someone");
    }

    #[test]
    fn streaming_round_reports_accepted_loss_means() {
        let scheduler = toy_scheduler(8, 1);
        let selected = scheduler.select(0, None);
        let mut transport = InProcessTransport::new(|_round, _id, _global: &[f32]| StreamUpdate {
            update: vec![1.0, 2.0],
            weight: 1.0,
            loss: 0.75,
            divergence: 1.5,
        });
        let mut sink = StreamingWeightedSink::new();
        let out = scheduler
            .run_round(
                0,
                &selected,
                4,
                &[0.0; 2],
                Fold::Stream(&mut sink),
                &mut transport,
                &NullRecorder,
            )
            .unwrap();
        assert_eq!(out.accepted, 8);
        assert!((out.mean_loss - 0.75).abs() < 1e-6);
        assert!((out.mean_divergence - 1.5).abs() < 1e-6);
    }

    /// Forwards to a deferred weighted sink and records every fold's
    /// `client` argument.
    #[derive(Default)]
    struct RecordingSink {
        inner: StreamingWeightedSink,
        clients: Vec<usize>,
    }

    impl UpdateSink for RecordingSink {
        fn fold(
            &mut self,
            client: usize,
            update: &[f32],
            weight: f32,
        ) -> Result<(), AggregateError> {
            self.clients.push(client);
            self.inner.fold(client, update, weight)
        }

        fn folded(&self) -> usize {
            self.inner.folded()
        }

        fn state_bytes(&self) -> usize {
            self.inner.state_bytes()
        }

        fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
            self.inner.finish()
        }
    }

    #[test]
    fn sinks_fold_with_the_client_id_under_chaos_drops() {
        // A hierarchical sink hashes the fold's `client` argument to an
        // edge group, so it must be the client id — never the acceptance
        // index, which one dropout shifts for every later client.
        let plan = FaultPlan {
            drop_prob: 0.3,
            seed: 3,
            ..FaultPlan::default()
        };
        let scheduler = toy_scheduler(16, 1).with_chaos(plan.clone(), 77);
        let selected = scheduler.select(0, None);
        let injector = FaultInjector::for_run(plan, 77);
        let survivors: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|&id| injector.decide(0, id, 0) != Some(ClientFault::Dropout))
            .collect();
        assert!(
            survivors.len() < selected.len() && !survivors.is_empty(),
            "0.3 drop over 16 clients should drop some, not all"
        );
        let mut sink = RecordingSink::default();
        let mut transport = InProcessTransport::new(|_round, id, _global: &[f32]| StreamUpdate {
            // analyze:allow(lossy-cast) -- toy ids in tests.
            update: vec![id as f32, 1.0],
            weight: 1.0,
            loss: 0.0,
            divergence: 0.0,
        });
        let out = scheduler
            .run_round(
                0,
                &selected,
                4,
                &[0.0; 2],
                Fold::Stream(&mut sink),
                &mut transport,
                &NullRecorder,
            )
            .unwrap();
        assert_eq!(sink.clients, survivors, "fold arguments are client ids");
        assert_eq!(
            out.clients, sink.clients,
            "StreamedRound::clients is the fold order"
        );
        assert_eq!(out.accepted, survivors.len());
    }

    #[test]
    fn streaming_round_misses_quorum_without_touching_the_sink() {
        let scheduler = toy_scheduler(4, 1).with_policy(RoundPolicy {
            min_quorum: 8,
            ..RoundPolicy::default()
        });
        let selected = scheduler.select(0, None);
        let rec = MemoryRecorder::new();
        let out = in_process_round(&scheduler, 0, &selected, 2, 2, |_| vec![1.0, 2.0], &rec);
        assert!(out.skipped);
        assert!(out.aggregated.is_none());
        assert!(matches!(
            rec.events().last(),
            Some(Event::RoundResilience { skipped: true, .. })
        ));
    }

    #[test]
    fn malformed_replies_are_rejected_and_never_folded() {
        // One bad client out of 8 (the first slot), dim 4, weighted sink:
        // each malformed shape must be counted as rejected and leave the
        // aggregate equal to the weighted mean of the 7 honest replies.
        type Corrupt = fn(&mut StreamUpdate);
        let cases: [(&str, Corrupt); 3] = [
            ("weight NaN", |r| r.weight = f32::NAN),
            ("length 2", |r| r.update.truncate(2)),
            ("weight -6.5 on a 100x update", |r| {
                r.weight = -6.5;
                r.update.iter_mut().for_each(|v| *v *= 100.0);
            }),
        ];
        let scheduler = RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 8, 8, 1);
        let selected = scheduler.select(0, None);
        let bad = selected[0];
        // analyze:allow(lossy-cast) -- toy ids in tests.
        let honest = |id: usize| vec![1.0 + id as f32, -2.0, 0.5, id as f32];
        // analyze:allow(lossy-cast) -- toy ids in tests.
        let weight_of = |id: usize| 1.0 + (id % 3) as f32;
        for (name, corrupt) in cases {
            let mut transport = InProcessTransport::new(|_round, id, _global: &[f32]| {
                let mut reply = StreamUpdate {
                    update: honest(id),
                    weight: weight_of(id),
                    loss: 0.0,
                    divergence: 0.0,
                };
                if id == bad {
                    corrupt(&mut reply);
                }
                reply
            });
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler
                .run_round(
                    0,
                    &selected,
                    8,
                    &[0.0; 4],
                    Fold::Stream(&mut sink),
                    &mut transport,
                    &NullRecorder,
                )
                .unwrap();
            assert_eq!((out.accepted, out.rejected), (7, 1), "{name}");
            let good = &selected[1..];
            let weight_sum: f32 = good.iter().map(|&id| weight_of(id)).sum();
            assert_eq!(out.weight_sum, weight_sum, "{name}: weight_sum");
            let agg = out.aggregated.expect("quorum of one is met");
            assert_eq!(agg.len(), 4, "{name}: aggregate length");
            for (d, got) in agg.iter().enumerate() {
                let want = good
                    .iter()
                    .map(|&id| weight_of(id) * honest(id)[d])
                    .sum::<f32>()
                    / weight_sum;
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "{name}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn inactive_attack_plan_is_bit_identical_to_an_unarmed_scheduler() {
        let run = |armed: bool| {
            let mut scheduler = toy_scheduler(16, 1);
            if armed {
                scheduler = scheduler
                    .with_attack(AttackPlan::default(), 123)
                    .with_detection(false);
            }
            let selected = scheduler.select(0, None);
            let out = in_process_round(
                &scheduler,
                0,
                &selected,
                4,
                3,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| vec![id as f32; 3],
                &NullRecorder,
            );
            (selected, out.aggregated)
        };
        let (sel_a, agg_a) = run(false);
        let (sel_b, agg_b) = run(true);
        assert_eq!(sel_a, sel_b, "selection untouched by an inactive plan");
        let bits = |v: &Option<Vec<f32>>| {
            v.as_ref()
                .map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&agg_a), bits(&agg_b), "aggregate bit-identical");
    }

    #[test]
    fn attacked_rounds_replay_identically_and_move_the_aggregate() {
        let plan = AttackPlan {
            flip_prob: 0.2,
            scale_prob: 0.1,
            seed: 9,
            ..AttackPlan::default()
        };
        let run = |plan: Option<AttackPlan>| {
            let mut scheduler = toy_scheduler(32, 1);
            if let Some(plan) = plan {
                scheduler = scheduler.with_attack(plan, 77);
            }
            let selected = scheduler.select(0, None);
            let rec = MemoryRecorder::new();
            let out = in_process_round(
                &scheduler,
                0,
                &selected,
                8,
                3,
                // analyze:allow(lossy-cast) -- toy ids in tests.
                |id| vec![id as f32 + 1.0; 3],
                &rec,
            );
            let attacks = rec
                .events()
                .iter()
                .filter(|e| matches!(e, Event::Attack { .. }))
                .count();
            (out.aggregated, attacks)
        };
        let (a, attacks_a) = run(Some(plan.clone()));
        let (b, attacks_b) = run(Some(plan));
        assert_eq!(a, b, "same attack seed replays bit-identically");
        assert_eq!(attacks_a, attacks_b);
        assert!(attacks_a > 0, "0.3 total rate over 32 clients should fire");
        let (clean, no_attacks) = run(None);
        assert_eq!(no_attacks, 0);
        assert_ne!(a, clean, "an active attack must move the aggregate");
    }

    #[test]
    fn detection_quarantines_a_persistent_adversary() {
        // Population == cohort so the adversary is observed every round and
        // its strikes accumulate to quarantine.
        let scheduler = RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 8, 8, 16)
            .with_detection(true);
        let rec = MemoryRecorder::new();
        // Track the lowest selected id each round and make it an extreme
        // outlier; its suspicion accumulates strikes until quarantine.
        let mut quarantined_round = None;
        let mut villain = None;
        for round in 0..scheduler.rounds() {
            let selected = scheduler.select(round, None);
            assert!(!selected.is_empty());
            let bad = villain.unwrap_or(selected[0]);
            if villain.is_none() {
                villain = Some(bad);
            }
            if scheduler.reputation().is_quarantined(bad) {
                quarantined_round = Some(round);
                assert!(
                    !selected.contains(&bad),
                    "quarantined client must not be drawn"
                );
                break;
            }
            let _ = in_process_round(
                &scheduler,
                round,
                &selected,
                4,
                4,
                |id| {
                    if id == bad {
                        vec![1.0e6; 4]
                    } else {
                        vec![1.0, 2.0, 3.0, 4.0]
                    }
                },
                &rec,
            );
        }
        assert!(
            quarantined_round.is_some(),
            "a persistent extreme outlier must be quarantined"
        );
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, Event::Quarantine { .. })),
            "quarantine must be reported to telemetry"
        );
        // The book survives a checkpoint round-trip into a fresh scheduler.
        let book = scheduler.reputation();
        let resumed = RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 9), 8, 8, 16)
            .with_detection(true)
            .with_reputation(book.clone());
        assert_eq!(resumed.reputation(), book);
    }

    #[test]
    fn held_rounds_finish_with_the_policys_aggregator() {
        // Four clients, each replying its row of `updates`: a held round's
        // aggregate is the policy's aggregator over them, and a Krum round
        // of one client, too small for the statistic, is skipped.
        let updates: [&[f32]; 4] = [&[1.0, 8.0], &[2.0, -4.0], &[3.0, 0.5], &[400.0, 1.0]];
        let weights = [1.0; 4];
        let held_round = |aggregator: Aggregator, population: usize| {
            let scheduler = RoundScheduler::sampled(
                Sampler::new(SamplerKind::Uniform, 9),
                population,
                population,
                1,
            )
            .with_policy(RoundPolicy {
                aggregator,
                ..RoundPolicy::default()
            });
            let selected = scheduler.select(0, None);
            let mut transport =
                InProcessTransport::new(|_round, id, _global: &[f32]| StreamUpdate {
                    update: updates[id].to_vec(),
                    weight: 1.0,
                    loss: 0.0,
                    divergence: 0.0,
                });
            let fold = Fold::Hold {
                capacity: 64,
                seed: 11,
            };
            scheduler
                .run_round(
                    0,
                    &selected,
                    4,
                    &[0.0; 2],
                    fold,
                    &mut transport,
                    &NullRecorder,
                )
                .unwrap()
        };
        for agg in [
            Aggregator::WeightedAverage,
            Aggregator::TrimmedMean(0.25),
            Aggregator::CoordinateMedian,
            Aggregator::Krum { f: 1 },
            Aggregator::MultiKrum { f: 1, m: 2 },
            Aggregator::GeometricMedian,
            Aggregator::NormBound(10.0),
            Aggregator::CenteredClip(5.0),
        ] {
            let streamed = held_round(agg, updates.len()).aggregated.unwrap();
            let reference = aggregate_robust(agg, &updates, &weights).unwrap();
            for (s, r) in streamed.iter().zip(reference.iter()) {
                assert!((s - r).abs() < 1e-5, "{agg:?}: {s} vs {r}");
            }
        }
        let out = held_round(Aggregator::Krum { f: 1 }, 1);
        assert!(
            out.skipped && out.aggregated.is_none(),
            "single-client cohort must take the typed skipped-round path"
        );
    }

    #[test]
    fn detection_scores_the_sinks_buffers_and_holds_each_update_once() {
        // Every client is drawn every round until quarantined. Clients
        // 0, 5 and 10 reply NaN and are rejected; client 7 is an extreme
        // outlier, so its strikes reach quarantine.
        let (dim, population, bad) = (16, 12, 7);
        let scheduler = RoundScheduler::sampled(
            Sampler::new(SamplerKind::Uniform, 9),
            population,
            population,
            5,
        )
        .with_policy(RoundPolicy {
            aggregator: Aggregator::CoordinateMedian,
            ..RoundPolicy::default()
        })
        .with_detection(true);
        let update_of = |round: usize, id: usize| -> Vec<f32> {
            match id {
                _ if id.is_multiple_of(5) => vec![f32::NAN; dim],
                _ if id == bad => vec![1.0e6; dim],
                // analyze:allow(lossy-cast) -- toy values in tests.
                _ => (0..dim)
                    .map(|d| ((id * dim + d + round) % 23) as f32 * 0.1)
                    .collect(),
            }
        };
        // analyze:allow(lossy-cast) -- toy weights in tests.
        let weight_of = |id: usize| 1.0 + (id % 3) as f32;
        let rec = MemoryRecorder::new();
        let mut book = ReputationBook::new();
        for round in 0..scheduler.rounds() {
            let selected = scheduler.select(round, None);
            let mut transport =
                InProcessTransport::new(|round, id, _global: &[f32]| StreamUpdate {
                    update: update_of(round, id),
                    weight: weight_of(id),
                    loss: 0.0,
                    divergence: 0.0,
                });
            let fold = Fold::Hold {
                capacity: selected.len(),
                seed: 3,
            };
            let seen = rec.events().len();
            let out = scheduler
                .run_round(
                    round,
                    &selected,
                    selected.len(),
                    &vec![0.0; dim],
                    fold,
                    &mut transport,
                    &rec,
                )
                .unwrap();
            assert_eq!(out.rejected, 3, "round {round}");

            // One wave: the peak is what a hold of the accepted updates
            // holds, plus the rejected replies.
            let accepted: Vec<Vec<f32>> =
                out.clients.iter().map(|&id| update_of(round, id)).collect();
            let mut holding = Hold::new(selected.len(), 3);
            for (&id, u) in out.clients.iter().zip(&accepted) {
                assert!(holding.keep(u.clone(), weight_of(id)).is_none());
            }
            let rejected_bytes = out.rejected * dim * std::mem::size_of::<f32>();
            assert_eq!(
                out.peak_state_bytes,
                holding.state_bytes() + rejected_bytes,
                "round {round}: each held byte counts once"
            );

            // The book is the accepted updates' scores, in fold order.
            let refs: Vec<&[f32]> = accepted.iter().map(Vec::as_slice).collect();
            let newly = book.observe_round(&anomaly_scores(&out.clients, &refs));
            assert_eq!(scheduler.reputation(), book, "round {round}");

            // `aggregate`, `round_resilience`, then one `quarantine` per
            // newly quarantined client.
            let closing: Vec<&str> = rec.events()[seen..]
                .iter()
                .filter_map(|e| match e {
                    Event::Aggregate { .. } => Some("aggregate"),
                    Event::RoundResilience { .. } => Some("round_resilience"),
                    Event::Quarantine { .. } => Some("quarantine"),
                    _ => None,
                })
                .collect();
            let mut want = vec!["aggregate", "round_resilience"];
            want.extend(newly.iter().map(|_| "quarantine"));
            assert_eq!(closing, want, "round {round}");
        }
        assert!(book.is_quarantined(bad), "the outlier must be quarantined");
    }

    /// A sink that copies each update and finishes with their coordinate
    /// median, so detection beside it computes the column medians itself.
    /// It reports no state: a round's peak is the engine's hold alone, as
    /// in a held round.
    #[derive(Default)]
    struct MedianAtFinish {
        updates: Vec<Vec<f32>>,
        weights: Vec<f32>,
    }

    impl UpdateSink for MedianAtFinish {
        fn fold(
            &mut self,
            _client: usize,
            update: &[f32],
            weight: f32,
        ) -> Result<(), AggregateError> {
            self.updates.push(update.to_vec());
            self.weights.push(weight);
            Ok(())
        }

        fn folded(&self) -> usize {
            self.updates.len()
        }

        fn state_bytes(&self) -> usize {
            0
        }

        fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
            let refs: Vec<&[f32]> = self.updates.iter().map(Vec::as_slice).collect();
            coordinate_median(&refs, &self.weights)
        }
    }

    #[test]
    fn a_sealed_median_round_reads_as_an_unsealed_one() {
        // A held median round seals its aggregate and detection's medians
        // in one pass. Forty clients put the cohort past the selection's
        // sorted window; integer weights select, fractional ones walk, and
        // a quorum of 64 skips every round, so nothing is sealed. Events,
        // bytes, aggregates and the book must match a round whose sink
        // finishes the median apart from detection's medians.
        let (dim, population) = (24, 40);
        // analyze:allow(lossy-cast) -- toy values and weights in tests.
        let update_of = |round: usize, id: usize| -> Vec<f32> {
            (0..dim)
                .map(|d| ((id * 7 + d * 3 + round) % 29) as f32 * 0.25 - 2.0)
                .map(|v| if id % 9 == 4 { -40.0 * v } else { v })
                .collect()
        };
        // Weights `(1 + id % 7) / divisor`: integers, then thirds.
        for (divisor, min_quorum) in [(1.0f32, 1usize), (3.0, 1), (1.0, 64)] {
            // analyze:allow(lossy-cast) -- toy weights in tests.
            let weight_of = |id: usize| (1 + id % 7) as f32 / divisor;
            let run = |seal: bool| {
                let scheduler = RoundScheduler::sampled(
                    Sampler::new(SamplerKind::Uniform, 4),
                    population,
                    population,
                    4,
                )
                .with_policy(RoundPolicy {
                    aggregator: Aggregator::CoordinateMedian,
                    min_quorum,
                    ..RoundPolicy::default()
                })
                .with_detection(true);
                let rec = MemoryRecorder::new();
                let mut rounds = Vec::new();
                for round in 0..scheduler.rounds() {
                    let selected = scheduler.select(round, None);
                    let mut transport =
                        InProcessTransport::new(|round, id, _global: &[f32]| StreamUpdate {
                            update: update_of(round, id),
                            weight: weight_of(id),
                            loss: 0.0,
                            divergence: 0.0,
                        });
                    let mut unsealed = MedianAtFinish::default();
                    let fold = if seal {
                        Fold::Hold {
                            capacity: selected.len(),
                            seed: 3,
                        }
                    } else {
                        Fold::Stream(&mut unsealed)
                    };
                    let out = scheduler
                        .run_round(
                            round,
                            &selected,
                            selected.len(),
                            &vec![0.0; dim],
                            fold,
                            &mut transport,
                            &rec,
                        )
                        .unwrap();
                    let bits: Option<Vec<u32>> = out
                        .aggregated
                        .as_ref()
                        .map(|a| a.iter().map(|v| v.to_bits()).collect());
                    rounds.push((out.accepted, out.skipped, out.peak_state_bytes, bits));
                }
                (rounds, rec.events(), scheduler.reputation())
            };
            let (sealed, unsealed) = (run(true), run(false));
            assert_eq!(sealed.0, unsealed.0, "quorum {min_quorum}: rounds");
            assert_eq!(sealed.1, unsealed.1, "quorum {min_quorum}: events");
            assert_eq!(sealed.2, unsealed.2, "quorum {min_quorum}: reputation");
            // Quarantine shrinks later cohorts, but not below the window.
            assert!(sealed
                .0
                .iter()
                .all(|r| r.0 > 16 && r.1 == (min_quorum > r.0)));
        }
    }

    /// A transport that keeps every reclaimed buffer alive, so each reply
    /// of a round has its own address, and records the client and address
    /// of every reply it returns.
    struct Recycling<T> {
        inner: T,
        replied: Vec<(usize, usize)>,
        reclaimed: Vec<Vec<f32>>,
    }

    impl<T: Transport> Transport for Recycling<T> {
        fn wave(
            &mut self,
            round: usize,
            slots: &[WaveSlot],
            global: &[f32],
        ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
            let replies = self.inner.wave(round, slots, global)?;
            for (slot, reply) in slots.iter().zip(&replies) {
                if let Some(r) = reply {
                    self.replied.push((slot.client, r.update.as_ptr() as usize));
                }
            }
            Ok(replies)
        }

        fn finish(&mut self, rounds: usize, checksum: u64) -> Result<(), TransportError> {
            self.inner.finish(rounds, checksum)
        }

        fn reclaim(&mut self, update: Vec<f32>) {
            self.reclaimed.push(update);
        }
    }

    #[test]
    fn replies_the_round_is_done_with_are_reclaimed_exactly_once() {
        // Twelve clients in waves of four, dim 16: clients 0, 5 and 10
        // reply NaN and client 3 the wrong length, so four are rejected.
        let (dim, population) = (16, 12);
        let update_of = |id: usize| -> Vec<f32> {
            match id {
                _ if id.is_multiple_of(5) => vec![f32::NAN; dim],
                3 => vec![1.0; dim - 1],
                // analyze:allow(lossy-cast) -- toy values in tests.
                _ => (0..dim)
                    .map(|d| ((id * dim + d) % 23) as f32 * 0.1)
                    .collect(),
            }
        };
        let run = |aggregator: Aggregator, detect: bool, min_quorum: usize, recycle: bool| {
            let scheduler = RoundScheduler::sampled(
                Sampler::new(SamplerKind::Uniform, 9),
                population,
                population,
                1,
            )
            .with_policy(RoundPolicy {
                aggregator,
                min_quorum,
                ..RoundPolicy::default()
            })
            .with_detection(detect);
            let selected = scheduler.select(0, None);
            let inner = InProcessTransport::new(|_round, id, _global: &[f32]| StreamUpdate {
                update: update_of(id),
                weight: 1.0,
                loss: 0.0,
                divergence: 0.0,
            });
            let mut recycling = Recycling {
                inner,
                replied: Vec::new(),
                reclaimed: Vec::new(),
            };
            // The bare inner transport drops what it is handed back.
            let transport: &mut dyn Transport = if recycle {
                &mut recycling
            } else {
                &mut recycling.inner
            };
            let rec = MemoryRecorder::new();
            let mut weighted = StreamingWeightedSink::new();
            let fold = if aggregator == Aggregator::WeightedAverage {
                Fold::Stream(&mut weighted)
            } else {
                Fold::Hold {
                    capacity: selected.len(),
                    seed: 3,
                }
            };
            let out = scheduler
                .run_round(0, &selected, 4, &vec![0.0; dim], fold, transport, &rec)
                .unwrap();
            assert_eq!((out.accepted, out.rejected), (8, 4));
            assert_eq!(out.skipped, min_quorum > 8);
            let reclaimed: Vec<usize> = recycling
                .reclaimed
                .iter()
                .map(|u| u.as_ptr() as usize)
                .collect();
            (out, rec.events(), recycling.replied, reclaimed)
        };
        let streaming = Aggregator::WeightedAverage;
        let keeping = Aggregator::CoordinateMedian;
        for (aggregator, detect) in [
            (streaming, false),
            (keeping, false),
            (streaming, true),
            (keeping, true),
        ] {
            // A quorum of 64 skips the round: nothing is finished.
            for min_quorum in [1, 64] {
                let (out, events, replied, mut reclaimed) =
                    run(aggregator, detect, min_quorum, true);
                let (plain, plain_events, ..) = run(aggregator, detect, min_quorum, false);
                let case = format!("{aggregator:?}, detect {detect}, quorum {min_quorum}");
                // Reclaiming changes no event, no figure and no bit.
                assert_eq!(events, plain_events, "{case}: events");
                assert_eq!(out.peak_state_bytes, plain.peak_state_bytes, "{case}: peak");
                let bits = |v: &Option<Vec<f32>>| {
                    v.as_ref()
                        .map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(bits(&out.aggregated), bits(&plain.aggregated), "{case}");

                // Every reply comes back exactly once, whoever kept it.
                let mut want: Vec<usize> = replied.iter().map(|&(_, addr)| addr).collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(want.len(), population, "{case}: distinct replies");
                reclaimed.sort_unstable();
                assert_eq!(reclaimed, want, "{case}: reclaimed buffers");
            }
        }
    }

    #[test]
    fn streaming_peak_memory_is_flat_across_cohort_sizes() {
        let dim = 64;
        let peak_of = |cohort: usize| {
            let scheduler = toy_scheduler(cohort, 1);
            let selected = scheduler.select(0, None);
            let out = in_process_round(
                &scheduler,
                0,
                &selected,
                8,
                dim,
                |_| vec![1.0; dim],
                &NullRecorder,
            );
            out.peak_state_bytes
        };
        let small = peak_of(16);
        let large = peak_of(512);
        assert_eq!(
            small, large,
            "peak aggregation memory must not grow with the cohort"
        );
    }
}
