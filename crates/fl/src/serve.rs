//! The `calibre-serve` engine: round orchestration over a [`Transport`].
//!
//! One function, [`run_rounds`], owns the whole server loop — cohort
//! selection through [`crate::sampler`], round execution through
//! [`RoundScheduler::run_round`], model application, and
//! crash-safe persistence through [`CheckpointStore`]. The two public
//! entries differ **only** in the transport they plug in:
//!
//! * [`run_in_process`] — an [`InProcessTransport`] over the deterministic
//!   simulated workload ([`sim_update_into`], writing each update into a
//!   buffer an earlier round's reply was handed back in);
//! * [`run_server`] — a [`SocketTransport`] speaking [`crate::proto`]
//!   frames to real `calibre-client` processes.
//!
//! Because both paths execute the same loop body, the cross-transport
//! guarantee — same seeds + same cohort schedule ⇒ byte-identical final
//! model — holds by construction wherever the transport delivers every
//! surviving reply (bounded retries absorb recoverable wire faults).

use std::path::PathBuf;

use calibre_telemetry::{metrics, Recorder};

use crate::adversary::{AttackPlan, ReputationBook};
use crate::aggregate::{Aggregator, StreamingWeightedSink, UpdateSink};
use crate::chaos::{FaultPlan, WireFaultPlan, WireInjector};
use crate::checkpoint::{CheckpointStore, ServerCheckpoint};
use crate::proto::model_checksum;
use crate::sampler::{Sampler, SamplerKind};
use crate::scheduler::{Fold, RoundPolicy, RoundScheduler};
use crate::transport::{
    ClientWork, InProcessTransport, Listener, NetPolicy, SocketTransport, StreamUpdate, Transport,
    TransportError, WelcomeInfo,
};
use calibre_tensor::rng;
use rand::Rng;

/// Everything a serve run is derived from. Two runs with equal configs
/// produce byte-identical final models on any transport that delivers.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registered client population (valid ids are `0..population`).
    pub population: usize,
    /// Clients sampled per round.
    pub cohort: usize,
    /// Federated rounds.
    pub rounds: usize,
    /// Model dimension.
    pub dim: usize,
    /// Clients in flight at once per wave.
    pub wave: usize,
    /// Run seed — sampling, initialization, workload, and chaos all derive
    /// from it.
    pub seed: u64,
    /// Quorum/aggregation policy.
    pub policy: RoundPolicy,
    /// Client-level chaos (dropout, corruption), applied by the scheduler
    /// identically on every transport.
    pub chaos: FaultPlan,
    /// Byzantine-client simulation, applied by the scheduler identically
    /// on every transport. Inactive by default.
    pub attack: AttackPlan,
    /// Server-side anomaly detection and quarantine. Off by default; when
    /// on, quarantined clients stop being sampled and the reputation book
    /// persists through the server checkpoint.
    pub detect: bool,
    /// Wire-level chaos (frame drops, delays, truncations, partitions,
    /// reconnect churn), applied only by the socket transport.
    pub wire: WireFaultPlan,
    /// Socket retry/timeout policy.
    pub net: NetPolicy,
    /// Server checkpoint path; `None` disables persistence.
    pub checkpoint: Option<PathBuf>,
}

impl ServeConfig {
    /// The loopback smoke configuration the CI serve job and the identity
    /// tests share: 4 clients, cohort 3, 3 rounds.
    pub fn smoke() -> Self {
        ServeConfig {
            population: 4,
            cohort: 3,
            rounds: 3,
            dim: 32,
            wave: 2,
            seed: 0xCA11_B8E5,
            policy: RoundPolicy {
                min_quorum: 2,
                ..RoundPolicy::default()
            },
            chaos: FaultPlan::default(),
            attack: AttackPlan::default(),
            detect: false,
            wire: WireFaultPlan::default(),
            net: NetPolicy::default(),
            checkpoint: None,
        }
    }

    /// Planned wire bytes for one nominal round: one model down and one
    /// update up per cohort member, plus frame overhead (retries and
    /// reconnects add observed bytes on top).
    pub fn planned_round_bytes(&self) -> u64 {
        (2 * crate::comm::framed_bytes(self.dim) * self.cohort) as u64
    }
}

/// What a serve run produced — the bits the smoke gates assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Rounds executed (including skipped ones).
    pub rounds_run: usize,
    /// Rounds that missed quorum and left the model untouched.
    pub skipped_rounds: usize,
    /// Total accepted client updates across rounds.
    pub accepted_total: usize,
    /// Total dropped clients (chaos dropouts + undelivered replies).
    pub dropped_total: usize,
    /// The final global model.
    pub model: Vec<f32>,
    /// FNV-1a fingerprint of the final model's bit patterns — the quantity
    /// the cross-transport identity test compares.
    pub checksum: u64,
}

/// Deterministic initial model for a serve run: seeded, zero-mean, small.
pub fn sim_init(seed: u64, dim: usize) -> Vec<f32> {
    let mut r = rng::seeded(seed ^ 0x1217_AC3D_5EED_F00D);
    (0..dim).map(|_| 0.1 * (r.gen::<f32>() - 0.5)).collect()
}

/// The deterministic simulated client workload both transports run: a
/// decay pull toward zero plus seeded exploration noise. Crucially the
/// update **depends on the received global model**, so any lost, stale, or
/// reordered delivery changes the final checksum — the identity test
/// detects transport bugs, not just RNG agreement.
pub fn sim_update(seed: u64, round: usize, client: usize, global: &[f32]) -> StreamUpdate {
    sim_update_into(seed, round, client, global, Vec::new())
}

/// [`sim_update`], writing the update into `spare` whatever it holds: the
/// same bits, in `spare`'s allocation when it has room for `global`.
pub fn sim_update_into(
    seed: u64,
    round: usize,
    client: usize,
    global: &[f32],
    spare: Vec<f32>,
) -> StreamUpdate {
    let mixed = seed
        .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((client as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let mut r = rng::seeded(mixed);
    let mut update = spare;
    update.clear();
    // A fresh buffer gets exactly `global.len()`, as `collect` gave it:
    // buffering sinks count capacity in `state_bytes`.
    update.reserve_exact(global.len());
    update.extend(
        global
            .iter()
            .map(|g| -0.1 * g + 0.05 * (r.gen::<f32>() - 0.5)),
    );
    let loss = if update.is_empty() {
        0.0
    } else {
        // analyze:allow(lossy-cast) -- model dims sit far below f32
        // integer precision loss (2^24).
        update.iter().map(|v| v * v).sum::<f32>() / update.len() as f32
    };
    StreamUpdate {
        update,
        // analyze:allow(lossy-cast) -- small residue classes only.
        weight: 1.0 + (client % 7) as f32,
        loss,
        divergence: 0.0,
    }
}

fn restore_or_init(
    cfg: &ServeConfig,
    store: Option<&CheckpointStore>,
) -> (usize, Vec<f32>, ReputationBook) {
    if let Some(store) = store {
        if let Ok(ckpt) = store.load_with(ServerCheckpoint::parse) {
            if ckpt.model.len() == cfg.dim && ckpt.round <= cfg.rounds {
                return (ckpt.round, ckpt.model, ckpt.reputation);
            }
        }
    }
    (0, sim_init(cfg.seed, cfg.dim), ReputationBook::new())
}

/// Runs the full round loop over any transport. This is the single body
/// both [`run_server`] and [`run_in_process`] execute — the heart of the
/// cross-transport identity guarantee.
///
/// Each round's aggregate, once applied to the model, is handed to the
/// next round's weighted sink ([`crate::aggregate::UpdateSink::adopt`]),
/// so a weighted round accumulates in it instead of a fresh buffer.
///
/// # Errors
///
/// Propagates unrecoverable [`TransportError`]s (per-client delivery
/// failures are absorbed as drops) and surfaces checkpoint I/O failures as
/// [`TransportError::Protocol`].
pub fn run_rounds(
    cfg: &ServeConfig,
    transport: &mut dyn Transport,
    recorder: &dyn Recorder,
) -> Result<ServeOutcome, TransportError> {
    let store = cfg.checkpoint.as_ref().map(CheckpointStore::new);
    let (start_round, mut model, reputation) = restore_or_init(cfg, store.as_ref());

    let scheduler = RoundScheduler::sampled(
        Sampler::new(SamplerKind::Uniform, cfg.seed),
        cfg.population,
        cfg.cohort,
        cfg.rounds,
    )
    .with_policy(cfg.policy)
    .with_chaos(cfg.chaos.clone(), cfg.seed)
    .with_attack(cfg.attack.clone(), cfg.seed)
    .with_detection(cfg.detect)
    .with_reputation(reputation);

    let mut out = ServeOutcome {
        rounds_run: start_round,
        skipped_rounds: 0,
        accepted_total: 0,
        dropped_total: 0,
        model: Vec::new(),
        checksum: 0,
    };
    let mut spent = Vec::new();
    for round in start_round..cfg.rounds {
        let selected = scheduler.select(round, None);
        recorder.round_start(round, &selected);
        // Plain weighted averaging streams in O(model); a robust defense
        // holds the round, sized to the cohort, and aggregates at the seal.
        // The reservoir seed mixes the round index so any capacity-forced
        // sampling still replays identically.
        let mut weighted = StreamingWeightedSink::new();
        weighted.adopt(std::mem::take(&mut spent));
        let fold = if cfg.policy.aggregator == Aggregator::WeightedAverage {
            Fold::Stream(&mut weighted)
        } else {
            Fold::Hold {
                capacity: selected.len(),
                seed: cfg.seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            }
        };
        let streamed = scheduler.run_round(
            round, &selected, cfg.wave, &model, fold, transport, recorder,
        )?;
        out.accepted_total += streamed.accepted;
        out.dropped_total += streamed.dropped;
        if let Some(aggregate) = streamed.aggregated {
            for (m, a) in model.iter_mut().zip(aggregate.iter()) {
                *m += a;
            }
            spent = aggregate;
        } else {
            out.skipped_rounds += 1;
        }
        out.rounds_run = round + 1;
        metrics::gauge_set("calibre_serve_round", &[], (round + 1) as f64);
        metrics::gauge_set(
            "calibre_serve_mean_loss",
            &[],
            f64::from(streamed.mean_loss),
        );
        if let Some(store) = &store {
            let text = ServerCheckpoint::text_of(round + 1, &model, &scheduler.reputation());
            store
                .save_text(&text)
                .map_err(|e| TransportError::Protocol(format!("checkpoint save: {e}")))?;
        }
    }

    out.checksum = model_checksum(&model);
    out.model = model;
    metrics::gauge_set(
        "calibre_serve_skipped_rounds",
        &[],
        out.skipped_rounds as f64,
    );
    Ok(out)
}

/// Runs the serve loop entirely in-process over the simulated workload —
/// the "golden twin" the socket path is compared against.
///
/// # Errors
///
/// Only checkpoint I/O can fail; the in-process transport itself cannot.
pub fn run_in_process(
    cfg: &ServeConfig,
    recorder: &dyn Recorder,
) -> Result<ServeOutcome, TransportError> {
    let mut transport = InProcessTransport::with_work(SimClients { seed: cfg.seed });
    run_rounds(cfg, &mut transport, recorder)
}

/// The simulated population as in-process client work: each update is
/// written into the buffer the transport hands it.
struct SimClients {
    seed: u64,
}

impl ClientWork for SimClients {
    fn reply(&self, round: usize, client: usize, global: &[f32], spare: Vec<f32>) -> StreamUpdate {
        sim_update_into(self.seed, round, client, global, spare)
    }

    fn fills(&self) -> bool {
        true
    }
}

/// The `Welcome` a server derives from its config (public so the bins and
/// tests can build transports directly).
pub fn welcome_info(cfg: &ServeConfig) -> WelcomeInfo {
    WelcomeInfo {
        seed: cfg.seed,
        rounds: cfg.rounds as u32,
        dim: cfg.dim as u32,
        population: cfg.population as u32,
        churn_prob: cfg.wire.churn_prob,
        churn_seed: WireInjector::for_run(cfg.wire.clone(), cfg.seed).mixed_seed(),
    }
}

/// Serves a run over a bound listener: registers `population` clients,
/// drives the rounds through a [`SocketTransport`] (with deterministic
/// wire chaos when `cfg.wire` is active), then broadcasts `Finish` with
/// the final model fingerprint.
///
/// # Errors
///
/// [`TransportError::Registration`] when the population never assembles,
/// otherwise as [`run_rounds`].
pub fn run_server(
    cfg: &ServeConfig,
    listener: Listener,
    recorder: &dyn Recorder,
) -> Result<ServeOutcome, TransportError> {
    let wire = cfg
        .wire
        .is_active()
        .then(|| WireInjector::for_run(cfg.wire.clone(), cfg.seed));
    let mut transport = SocketTransport::new(listener, welcome_info(cfg), cfg.net.clone(), wire);
    transport.register()?;
    let out = run_rounds(cfg, &mut transport, recorder)?;
    transport.finish(out.rounds_run, out.checksum)?;
    Ok(out)
}

/// The client-side work closure matching [`sim_update`] — what
/// `calibre-client` and the loopback tests hand to
/// [`crate::transport::run_client`].
pub fn sim_client_work(seed: u64, client: usize) -> impl FnMut(usize, &[f32]) -> StreamUpdate {
    move |round, global| sim_update(seed, round, client, global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_telemetry::NullRecorder;

    #[test]
    fn the_filling_sim_update_matches_sim_update_bit_for_bit() {
        let bits = |r: &StreamUpdate| {
            let update: Vec<u32> = r.update.iter().map(|v| v.to_bits()).collect();
            (
                update,
                r.weight.to_bits(),
                r.loss.to_bits(),
                r.divergence.to_bits(),
            )
        };
        let global = sim_init(5, 40);
        let junk = |len: usize, cap: usize| {
            let mut v = Vec::with_capacity(cap);
            v.resize(len, f32::NAN);
            v
        };
        for (round, client) in [(0, 0), (3, 11), (7, 20_000)] {
            let want = bits(&sim_update(9, round, client, &global));
            // Empty, short, long and exactly-fitting spares, junk-filled.
            for spare in [
                Vec::new(),
                junk(7, 7),
                junk(64, 96),
                junk(40, 40),
                junk(0, 40),
            ] {
                let fits = spare.capacity() >= global.len();
                let at = spare.as_ptr();
                let got = sim_update_into(9, round, client, &global, spare);
                assert_eq!(bits(&got), want, "round {round}, client {client}");
                if fits {
                    assert_eq!(got.update.as_ptr(), at, "a spare that fits is reused");
                } else {
                    // The allocator may grow a short spare in place, so its
                    // address proves nothing; its capacity must be exact.
                    assert_eq!(got.update.capacity(), global.len(), "a short spare");
                }
            }
        }
    }

    /// The simulated population, recording each slot's round, the address
    /// and capacity of the spare it is handed, and its reply's address.
    struct Recorded<'a> {
        seed: u64,
        slots: &'a std::sync::Mutex<Vec<(usize, usize, usize, usize)>>,
    }

    impl ClientWork for Recorded<'_> {
        fn reply(
            &self,
            round: usize,
            client: usize,
            global: &[f32],
            spare: Vec<f32>,
        ) -> StreamUpdate {
            let (at, capacity) = (spare.as_ptr() as usize, spare.capacity());
            let reply = sim_update_into(self.seed, round, client, global, spare);
            let replied = reply.update.as_ptr() as usize;
            self.slots
                .lock()
                .unwrap()
                .push((round, at, capacity, replied));
            reply
        }

        fn fills(&self) -> bool {
            true
        }
    }

    #[test]
    fn in_process_rounds_write_replies_into_the_last_rounds_buffers() {
        // Waves of two over a cohort of three: a streaming sink gives each
        // reply back after its fold, a keeping sink or detection after the
        // round. Either way every slot after round 0 is handed a spare that
        // fits, and its reply lands in that allocation, one of the last
        // round's replies. A spare is held from its reclaim to its hand-out,
        // so an equal address is the same allocation. The model keeps its
        // bits.
        for (aggregator, detect) in [
            (Aggregator::WeightedAverage, false),
            (Aggregator::WeightedAverage, true),
            (Aggregator::CoordinateMedian, false),
            (Aggregator::CoordinateMedian, true),
        ] {
            let mut cfg = ServeConfig::smoke();
            cfg.rounds = 5;
            cfg.policy.aggregator = aggregator;
            cfg.detect = detect;
            let case = format!("{aggregator:?}, detect {detect}");
            let recorded = std::sync::Mutex::new(Vec::new());
            let mut transport = InProcessTransport::with_work(Recorded {
                seed: cfg.seed,
                slots: &recorded,
            });
            let out = run_rounds(&cfg, &mut transport, &NullRecorder).unwrap();
            assert_eq!(
                out.checksum,
                run_in_process(&cfg, &NullRecorder).unwrap().checksum,
                "{case}"
            );
            let seed = cfg.seed;
            let mut allocating = InProcessTransport::new(move |round, client, global: &[f32]| {
                sim_update(seed, round, client, global)
            });
            let fresh = run_rounds(&cfg, &mut allocating, &NullRecorder).unwrap();
            assert_eq!(out.checksum, fresh.checksum, "{case}");

            let slots = recorded.into_inner().unwrap();
            let replies_in = |round: usize| -> Vec<usize> {
                slots.iter().filter(|s| s.0 == round).map(|s| s.3).collect()
            };
            for round in 1..cfg.rounds {
                let last = replies_in(round - 1);
                let these: Vec<_> = slots.iter().filter(|s| s.0 == round).collect();
                assert_eq!(these.len(), cfg.cohort, "{case}, round {round}");
                for &&(_, at, capacity, replied) in &these {
                    assert!(capacity >= cfg.dim, "{case}, round {round}: no spare");
                    assert_eq!(replied, at, "{case}, round {round}: not filled in place");
                    assert!(last.contains(&at), "{case}, round {round}: a new buffer");
                }
            }
        }
    }

    #[test]
    fn in_process_serve_is_replay_identical() {
        let cfg = ServeConfig::smoke();
        let a = run_in_process(&cfg, &NullRecorder).unwrap();
        let b = run_in_process(&cfg, &NullRecorder).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.model, b.model);
        assert_eq!(a.rounds_run, 3);
        assert_eq!(a.skipped_rounds, 0);
        assert!(a.accepted_total > 0);

        let mut other = cfg;
        other.seed ^= 1;
        let c = run_in_process(&other, &NullRecorder).unwrap();
        assert_ne!(a.checksum, c.checksum, "seed must matter");
    }

    #[test]
    fn serve_checkpoint_resume_is_bit_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("calibre-serve-ckpt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("server.ckpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt.prev"));

        let mut cfg = ServeConfig::smoke();
        let uninterrupted = run_in_process(&cfg, &NullRecorder).unwrap();

        // Run only 2 of 3 rounds, "crash", then resume to completion.
        cfg.checkpoint = Some(path.clone());
        let mut partial = cfg.clone();
        partial.rounds = 2;
        run_in_process(&partial, &NullRecorder).unwrap();
        let resumed = run_in_process(&cfg, &NullRecorder).unwrap();
        assert_eq!(
            resumed.checksum, uninterrupted.checksum,
            "resume must replay bit-identically"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("server.ckpt.prev"));
    }

    #[test]
    fn the_serve_checkpoint_is_the_snapshot_text() {
        let dir = std::env::temp_dir().join(format!("calibre-serve-text-{}", std::process::id()));
        let path = dir.join("server.ckpt");
        let mut cfg = ServeConfig::smoke();
        cfg.checkpoint = Some(path.clone());
        let out = run_in_process(&cfg, &NullRecorder).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        let snapshot = ServerCheckpoint {
            round: cfg.rounds,
            model: out.model,
            reputation: ReputationBook::new(),
        };
        assert_eq!(written, snapshot.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_round_bytes_counts_both_directions_plus_framing() {
        let cfg = ServeConfig::smoke();
        let expected = (2 * 32 * 4 + 2 * 14) as u64 * 3;
        assert_eq!(cfg.planned_round_bytes(), expected);
    }
}
