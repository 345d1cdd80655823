//! End-to-end acceptance test for the chaos layer: a seeded run with heavy
//! dropout, corruption and at least one injected mid-update panic must
//! complete every round with finite losses, and the telemetry stream must
//! account for the injected faults.

use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::chaos::{ClientFault, FaultInjector, FaultPlan};
use calibre_fl::pfl_ssl::train_pfl_ssl_encoder_observed;
use calibre_fl::{FlConfig, RoundPolicy};
use calibre_ssl::SslKind;
use calibre_telemetry::{Event, MemoryRecorder, MetricsHub, Recorder};
use calibre_tensor::nn::Module;

fn tiny_fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 3,
            train_per_client: 40,
            test_per_client: 10,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 11,
        },
    )
}

fn chaos_config(seed: u64) -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 8;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.seed = seed;
    cfg.chaos = FaultPlan {
        drop_prob: 0.3,
        corrupt_prob: 0.1,
        panic_prob: 0.15,
        straggle_prob: 0.0,
        seed,
    };
    cfg.policy = RoundPolicy {
        min_quorum: 2,
        ..RoundPolicy::default()
    };
    cfg
}

/// Counts the faults the injector will fire at attempt 0 over the whole
/// schedule, as `(dropouts, panics, corruptions)`.
fn first_attempt_faults(cfg: &FlConfig, num_clients: usize) -> (usize, usize, usize) {
    let injector = FaultInjector::for_run(cfg.chaos.clone(), cfg.seed);
    let (mut drops, mut panics, mut corrupts) = (0, 0, 0);
    for (round, selected) in cfg.selection_schedule(num_clients).iter().enumerate() {
        for &client in selected {
            match injector.decide(round, client, 0) {
                Some(ClientFault::Dropout) => drops += 1,
                Some(ClientFault::PanicMidUpdate) => panics += 1,
                Some(ClientFault::Corrupt(_)) => corrupts += 1,
                _ => {}
            }
        }
    }
    (drops, panics, corrupts)
}

#[test]
fn heavy_chaos_run_completes_and_accounts_for_every_fault() {
    let fed = tiny_fed();

    // Pre-scan seeds so the run provably exercises all three fault kinds:
    // at least one dropout, one mid-update panic and one corrupted update.
    let cfg = (0u64..200)
        .map(chaos_config)
        .find(|cfg| {
            let (d, p, c) = first_attempt_faults(cfg, fed.num_clients());
            d >= 1 && p >= 1 && c >= 1
        })
        .expect("no seed in 0..200 fires all three fault kinds");
    let (drops, panics, corrupts) = first_attempt_faults(&cfg, fed.num_clients());
    let scanned = drops + panics + corrupts;

    let memory = MemoryRecorder::new();
    let (encoder, losses) = train_pfl_ssl_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &AugmentConfig::default(),
        None,
        &memory,
    );

    // The run survived: every round produced a finite loss and the global
    // encoder never absorbed a corrupted update.
    assert_eq!(losses.len(), cfg.rounds, "a round went missing");
    assert!(
        losses.iter().all(|l| l.is_finite()),
        "chaos leaked a non-finite loss: {losses:?}"
    );
    assert!(
        encoder.to_flat().iter().all(|v| v.is_finite()),
        "global encoder picked up a non-finite parameter"
    );

    // The telemetry stream names every fault kind the pre-scan predicted.
    let events = memory.events();
    let fault_kinds: Vec<&'static str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(
        fault_kinds.contains(&"dropout"),
        "no dropout surfaced in telemetry: {fault_kinds:?}"
    );
    assert!(
        fault_kinds.contains(&"panic"),
        "no injected panic surfaced in telemetry: {fault_kinds:?}"
    );
    assert!(
        fault_kinds.iter().any(|k| k.starts_with("corrupt")),
        "no corruption surfaced in telemetry: {fault_kinds:?}"
    );
    assert!(
        fault_kinds.len() >= scanned,
        "telemetry reports fewer faults ({}) than the attempt-0 scan predicted ({scanned})",
        fault_kinds.len()
    );

    // Folding the same stream through the hub reproduces the totals.
    let hub = MetricsHub::new();
    for event in events {
        hub.record(event);
    }
    let summary = hub.resilience_summary();
    assert_eq!(summary.faults_injected, fault_kinds.len());
    assert!(
        summary.faults_detected >= drops + panics,
        "dropouts and caught panics must all count as detected"
    );
    if let Some(q) = summary.min_quorum_seen {
        assert!(
            q >= cfg.policy.min_quorum,
            "aggregated below the configured quorum"
        );
    }
}

#[test]
fn ten_thousand_client_streaming_round_accounts_for_every_client() {
    // The massive-cohort acceptance test: sampling + dropout + corruption +
    // quorum at a 10k-client simulated cohort. Every round must complete,
    // every selected client must land in exactly one of
    // accepted/dropped/rejected, and the whole run must replay
    // bit-identically from the same seeds.
    use calibre_fl::aggregate::StreamingWeightedSink;
    use calibre_fl::sampler::{Sampler, SamplerKind};
    use calibre_fl::scheduler::{Fold, RoundScheduler};
    use calibre_fl::transport::{InProcessTransport, StreamUpdate};

    let run = || {
        let scheduler =
            RoundScheduler::sampled(Sampler::new(SamplerKind::Uniform, 13), 20_000, 10_000, 3)
                .with_chaos(
                    FaultPlan {
                        drop_prob: 0.15,
                        corrupt_prob: 0.05,
                        seed: 13,
                        ..FaultPlan::default()
                    },
                    13,
                )
                .with_policy(RoundPolicy {
                    min_quorum: 100,
                    ..RoundPolicy::default()
                });

        let memory = MemoryRecorder::new();
        let mut transport = InProcessTransport::new(|_round, id, _global: &[f32]| StreamUpdate {
            update: vec![(id % 7) as f32, 1.0, -0.5],
            weight: 1.0,
            loss: 0.0,
            divergence: 0.0,
        });
        let mut counts = Vec::new();
        let mut aggregates = Vec::new();
        for round in 0..scheduler.rounds() {
            let selected = scheduler.select(round, None);
            assert_eq!(selected.len(), 10_000, "sampler under-filled the cohort");
            let mut sink = StreamingWeightedSink::new();
            let out = scheduler
                .run_round(
                    round,
                    &selected,
                    64,
                    &[0.0; 3],
                    Fold::Stream(&mut sink),
                    &mut transport,
                    &memory,
                )
                .expect("the in-process transport cannot fail");
            assert_eq!(
                out.accepted + out.dropped + out.rejected,
                out.cohort,
                "round {round}: a client went unaccounted for"
            );
            assert!(out.dropped > 0, "15% dropout over 10k clients must fire");
            assert!(!out.skipped, "10k-client round cannot miss a quorum of 100");
            let agg = out.aggregated.expect("unskipped round must aggregate");
            assert!(agg.iter().all(|v| v.is_finite()));
            counts.push((out.accepted, out.dropped, out.rejected));
            aggregates.push(agg);
        }

        // Lean telemetry: one aggregate event per round, resilience
        // accounting only because churn occurred.
        let events = memory.events();
        let agg_events = events
            .iter()
            .filter(|e| matches!(e, Event::Aggregate { .. }))
            .count();
        assert_eq!(agg_events, scheduler.rounds());
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::RoundResilience { .. })));
        (counts, aggregates)
    };

    let (counts_a, agg_a) = run();
    let (counts_b, agg_b) = run();
    assert_eq!(
        counts_a, counts_b,
        "churn accounting must replay identically"
    );
    assert_eq!(
        agg_a, agg_b,
        "streamed aggregate must replay bit-identically"
    );
}

#[test]
fn chaos_free_config_reports_an_all_zero_summary() {
    // The inactive default plan must not emit a single resilience event —
    // this is the observable half of the bit-identity guarantee.
    let fed = tiny_fed();
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 2;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    assert!(!cfg.chaos.is_active());

    let memory = MemoryRecorder::new();
    train_pfl_ssl_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &AugmentConfig::default(),
        None,
        &memory,
    );
    let events = memory.events();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::Fault { .. } | Event::RoundResilience { .. })),
        "nominal run emitted resilience telemetry"
    );
    let hub = MetricsHub::new();
    for event in events {
        hub.record(event);
    }
    assert_eq!(
        hub.resilience_summary(),
        calibre_telemetry::ResilienceSummary::default()
    );
}
