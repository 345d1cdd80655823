//! End-to-end telemetry integration: an instrumented Calibre training run
//! plus personalization must produce a well-ordered event stream with
//! per-client wall-clock and loss payloads.

use calibre::{train_calibre_encoder_observed, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::personalize_cohort_observed;
use calibre_fl::FlConfig;
use calibre_ssl::SslKind;
use calibre_telemetry::{Event, MemoryRecorder, MetricsHub};
use calibre_tensor::nn::Module;

fn tiny_fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 4,
            train_per_client: 30,
            test_per_client: 15,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed: 11,
        },
    )
}

fn tiny_cfg() -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 3;
    cfg.clients_per_round = 2;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg
}

#[test]
fn instrumented_run_emits_ordered_round_and_personalize_events() {
    let fed = tiny_fed();
    let cfg = tiny_cfg();
    let rec = MemoryRecorder::new();

    let (encoder, round_losses, _) = train_calibre_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
        None,
        &rec,
    );
    personalize_cohort_observed(&encoder, &fed, 10, &cfg.probe, &rec);

    let events = rec.events();
    // Per round: round_start, aggregate, clients_per_round client_updates,
    // round_end. Then one personalize event per client.
    let per_round = 1 + cfg.clients_per_round + 1 + 1;
    assert_eq!(
        events.len(),
        cfg.rounds * per_round + fed.num_clients(),
        "unexpected event count: {events:#?}"
    );

    #[allow(clippy::needless_range_loop)] // `round` indexes event *positions*, not one slice
    for round in 0..cfg.rounds {
        let base = round * per_round;
        match &events[base] {
            Event::RoundStart { round: r, selected } => {
                assert_eq!(*r, round);
                assert_eq!(selected.len(), cfg.clients_per_round);
            }
            other => panic!("round {round}: expected RoundStart, got {other:?}"),
        }
        for slot in 0..cfg.clients_per_round {
            match &events[base + 2 + slot] {
                Event::ClientUpdate {
                    round: r,
                    wall_ms,
                    losses,
                    ..
                } => {
                    assert_eq!(*r, round);
                    assert!(*wall_ms > 0.0, "client update must take measurable time");
                    assert!(losses.total.is_finite());
                    assert!(losses.ssl.is_finite());
                }
                other => panic!("round {round}: expected ClientUpdate, got {other:?}"),
            }
        }
        match &events[base + 1] {
            Event::Aggregate {
                round: r,
                num_clients,
                total_weight,
            } => {
                assert_eq!(*r, round);
                assert_eq!(*num_clients, cfg.clients_per_round);
                assert!(*total_weight > 0.0);
            }
            other => panic!("round {round}: expected Aggregate, got {other:?}"),
        }
        match &events[base + per_round - 1] {
            Event::RoundEnd {
                round: r,
                mean_loss,
                client_wall_ms,
                client_loss,
                planned_bytes,
                observed_bytes,
            } => {
                assert_eq!(*r, round);
                assert!((mean_loss - round_losses[round]).abs() < 1e-6);
                assert_eq!(client_wall_ms.len(), cfg.clients_per_round);
                assert_eq!(client_loss.len(), cfg.clients_per_round);
                assert!(client_wall_ms.iter().all(|&ms| ms > 0.0));
                // Every client exchanges the full encoder both ways, so the
                // communication model's plan matches what actually moved.
                assert!(*planned_bytes > 0);
                assert_eq!(planned_bytes, observed_bytes);
            }
            other => panic!("round {round}: expected RoundEnd, got {other:?}"),
        }
    }

    let tail = &events[cfg.rounds * per_round..];
    for (client, event) in tail.iter().enumerate() {
        match event {
            Event::Personalize {
                client: c,
                accuracy,
            } => {
                assert_eq!(*c, client);
                assert!((0.0..=1.0).contains(accuracy));
            }
            other => panic!("expected Personalize for client {client}, got {other:?}"),
        }
    }
}

#[test]
fn hub_summarizes_instrumented_run() {
    let fed = tiny_fed();
    let cfg = tiny_cfg();
    let hub = MetricsHub::new();

    let (encoder, _, _) = train_calibre_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
        None,
        &hub,
    );
    personalize_cohort_observed(&encoder, &fed, 10, &cfg.probe, &hub);

    let rounds = hub.round_summaries();
    assert_eq!(rounds.len(), cfg.rounds);
    for (i, summary) in rounds.iter().enumerate() {
        assert_eq!(summary.round, i);
        assert_eq!(summary.num_clients, cfg.clients_per_round);
        assert!(summary.mean_wall_ms > 0.0);
        assert!(summary.max_wall_ms >= summary.mean_wall_ms);
        assert_eq!(
            summary.wall_histogram.total() as usize,
            cfg.clients_per_round
        );
    }
    let fairness = hub.fairness_summary().expect("personalize events recorded");
    assert_eq!(fairness.num_clients, fed.num_clients());
    assert!(fairness.worst_10pct <= fairness.mean);
}

#[test]
fn observed_training_matches_unobserved() {
    // Telemetry must be a pure observer: same seeds, same encoder.
    let fed = tiny_fed();
    let cfg = tiny_cfg();
    let rec = MemoryRecorder::new();
    let (a, _, _) = train_calibre_encoder_observed(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
        None,
        &rec,
    );
    let (b, _, _) = calibre::train_calibre_encoder(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    assert_eq!(a.to_flat(), b.to_flat());
    assert!(!rec.is_empty());
}
