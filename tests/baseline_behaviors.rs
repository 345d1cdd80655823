//! Mechanism-level behavioral tests for the baseline zoo: each test pins
//! down the *reason* an algorithm exists, not just that it runs.

use calibre_bench::{build_dataset, run_method_observed, DatasetId, MethodId, Scale, Setting};
use calibre_data::{FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::aggregate::Aggregator;
use calibre_fl::baselines::fedavg::{run_fedavg, train_fedavg_global};
use calibre_fl::baselines::fedprox::run_fedprox;
use calibre_fl::baselines::fedrep::run_fedrep;
use calibre_fl::baselines::scaffold::train_scaffold_global;
use calibre_fl::chaos::FaultPlan;
use calibre_fl::checkpoint;
use calibre_fl::comm::CommReport;
use calibre_fl::{personalize_cohort, FlConfig};
use calibre_telemetry::{Event, MemoryRecorder, NullRecorder};
use calibre_tensor::nn::Module;

fn skewed_fed(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 6,
            train_per_client: 50,
            test_per_client: 30,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed,
        },
    )
}

fn cfg(rounds: usize) -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = rounds;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 2;
    cfg.batch_size = 16;
    cfg
}

#[test]
fn scaffold_controls_drift_at_least_as_well_as_fedavg() {
    // SCAFFOLD's control variates exist to stop local updates drifting under
    // heterogeneity; its global model should not be substantially worse
    // than FedAvg's at equal budget.
    let fed = skewed_fed(1);
    let cfg = cfg(8);
    let (fedavg_model, _) = train_fedavg_global(&fed, &cfg);
    let (scaffold_model, _) = train_scaffold_global(&fed, &cfg);
    let acc = |model: &calibre_fl::model::ClassifierModel| -> f32 {
        (0..fed.num_clients())
            .map(|id| model.test_accuracy(fed.client(id), fed.generator()))
            .sum::<f32>()
            / fed.num_clients() as f32
    };
    let fa = acc(&fedavg_model);
    let sc = acc(&scaffold_model);
    assert!(
        sc > fa - 0.08,
        "SCAFFOLD global {sc} should be competitive with FedAvg global {fa}"
    );
}

#[test]
fn fedrep_local_heads_beat_the_shared_global_head() {
    // FedRep's whole point: under 2-class clients, a per-client head on a
    // shared representation crushes a single global head.
    let fed = skewed_fed(2);
    let cfg = cfg(8);
    let global_only = run_fedavg(&fed, &cfg, false, &NullRecorder);
    let fedrep = run_fedrep(&fed, &cfg, &NullRecorder);
    assert!(
        fedrep.stats().mean > global_only.stats().mean + 0.1,
        "FedRep {:?} vs global-model FedAvg {:?}",
        fedrep.stats(),
        global_only.stats()
    );
}

#[test]
fn fedprox_mu_zero_and_positive_bracket_fedavg_drift() {
    // μ = 0 reduces exactly to FedAvg; μ > 0 stays strictly closer to the
    // initialization over one round (the proximal pull).
    let fed = skewed_fed(3);
    let mut one_round = cfg(1);
    one_round.clients_per_round = 1;
    let loose = run_fedprox(&fed, &one_round, 0.0, &NullRecorder);
    let tight = run_fedprox(&fed, &one_round, 10.0, &NullRecorder);
    let delta = |a: &[f32], b: &[f32]| -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    };
    let loose_move = delta(&loose.encoder.to_flat(), &tight.encoder.to_flat());
    assert!(loose_move > 0.0, "different μ must give different encoders");
}

#[test]
fn checkpointed_encoder_reproduces_personalization_exactly() {
    let fed = skewed_fed(4);
    let cfg = cfg(4);
    let result = run_fedavg(&fed, &cfg, true, &NullRecorder);
    let path = std::env::temp_dir().join(format!("calibre-behav-{}.ckpt", std::process::id()));
    checkpoint::save(&result.encoder, &path).unwrap();

    let mut restored = result.encoder.clone();
    // Scramble, then restore.
    let scrambled: Vec<f32> = restored.to_flat().iter().map(|v| v + 1.0).collect();
    restored.load_flat(&scrambled);
    checkpoint::load(&mut restored, &path).unwrap();
    std::fs::remove_file(&path).ok();

    let original = personalize_cohort(&result.encoder, &fed, 10, &cfg.probe);
    let roundtrip = personalize_cohort(&restored, &fed, 10, &cfg.probe);
    assert_eq!(original.accuracies, roundtrip.accuracies);
}

#[test]
fn comm_report_matches_what_the_encoder_actually_ships() {
    let fed = build_dataset(
        DatasetId::Cifar10,
        Setting::QuantityNonIid,
        Scale::Smoke,
        0,
        5,
    );
    let cfg = Scale::Smoke.fl_config(5);
    let result = run_fedavg(&fed, &cfg, true, &NullRecorder);
    let report = CommReport::for_module(&result.encoder, cfg.rounds, cfg.clients_per_round);
    // Encoder: 64→96→32 MLP = (64·96 + 96) + (96·32 + 32) scalars.
    let expected_params = 64 * 96 + 96 + 96 * 32 + 32;
    assert_eq!(report.params_per_client, expected_params);
    assert_eq!(
        report.total,
        2 * expected_params * 4 * cfg.clients_per_round * cfg.rounds
    );
}

#[test]
fn feature_shift_hurts_a_shared_global_model() {
    // Covariate shift (library extension): a single global model should
    // find shifted clients harder than unshifted ones.
    let cfg_fl = cfg(8);
    let part = PartitionConfig {
        num_clients: 6,
        train_per_client: 50,
        test_per_client: 30,
        unlabeled_per_client: 0,
        non_iid: NonIid::Iid,
        seed: 6,
    };
    let plain = FederatedDataset::build(SynthVisionSpec::cifar10(), &part);
    let shifted =
        FederatedDataset::build_with_feature_shift(SynthVisionSpec::cifar10(), &part, 3.0);
    let base = run_fedavg(&plain, &cfg_fl, false, &NullRecorder);
    let hard = run_fedavg(&shifted, &cfg_fl, false, &NullRecorder);
    assert!(
        hard.stats().mean < base.stats().mean,
        "feature shift should reduce global-model accuracy: {:?} vs {:?}",
        hard.stats(),
        base.stats()
    );
}

#[test]
fn run_flags_reach_every_aggregating_baseline() {
    // Every aggregating baseline trains on the round engine, so the CLI's
    // chaos, attack and policy flags (all `FlConfig` fields) apply to it and
    // its rounds reach the recorder. Script-* trains locally: no rounds.
    let fed = skewed_fed(7);
    let mut cfg = cfg(3);
    cfg.local_epochs = 1;
    cfg.chaos = FaultPlan {
        drop_prob: 0.3,
        seed: 5,
        ..FaultPlan::default()
    };
    let mut methods = MethodId::roster();
    methods.push(MethodId::FedProxFt);
    methods.retain(|m| !matches!(m, MethodId::PflSsl(_) | MethodId::Calibre(_)));
    assert_eq!(methods.len(), 13, "eleven aggregating baselines + Script-*");
    for method in methods {
        let recorder = MemoryRecorder::new();
        run_method_observed(method, &fed, &cfg, &recorder);
        let events = recorder.events();
        let count = |pick: fn(&Event) -> bool| events.iter().filter(|e| pick(e)).count();
        let starts = count(|e| matches!(e, Event::RoundStart { .. }));
        let ends = count(|e| matches!(e, Event::RoundEnd { .. }));
        let dropouts = count(|e| {
            matches!(
                e,
                Event::Fault {
                    kind: "dropout",
                    ..
                }
            )
        });
        if matches!(method, MethodId::ScriptConvergent | MethodId::ScriptFair) {
            assert!(events.is_empty(), "{} trains locally", method.name());
            continue;
        }
        assert_eq!(
            (starts, ends),
            (cfg.rounds, cfg.rounds),
            "{} round events",
            method.name()
        );
        assert!(dropouts > 0, "{} ignored cfg.chaos", method.name());
    }

    let weighted = run_method_observed(MethodId::FedAvgFt, &fed, &cfg, &NullRecorder);
    cfg.policy.aggregator = Aggregator::CoordinateMedian;
    let median = run_method_observed(MethodId::FedAvgFt, &fed, &cfg, &NullRecorder);
    assert_ne!(
        weighted.encoder.to_flat(),
        median.encoder.to_flat(),
        "FedAvg-FT ignored cfg.policy.aggregator"
    );
}
