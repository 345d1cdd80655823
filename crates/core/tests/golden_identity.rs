//! Golden checksums pinning training bit-for-bit across refactors.
//!
//! The values below were recorded from a known-good build. Any change to the
//! numerics of the local step (graph ops, optimizer, aggregation) under the
//! default `Scalar` backend shows up here as a checksum mismatch, which is
//! exactly what the arena/backend refactor must not cause.

use calibre::{train_calibre_encoder, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::FlConfig;
use calibre_ssl::{ssl_step, SimClr, SslConfig, SslKind, TwoViewBatch};
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::rng;

/// FNV-1a over the exact bit patterns of the parameters: equal checksums
/// mean bit-identical training (modulo +0.0 / -0.0, which f32 `==` already
/// treats as equal but the bit hash would not — so the flats are canonicalized
/// first).
fn flat_checksum(flat: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in flat {
        let canonical = if v == 0.0 { 0.0f32 } else { v };
        for b in canonical.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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

#[test]
fn calibre_training_checksum_is_stable() {
    let fed = tiny_fed();
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    let (encoder, losses, _) = train_calibre_encoder(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let checksum = flat_checksum(&encoder.to_flat());
    eprintln!("calibre checksum: {checksum:#018x} losses {losses:?}");
    assert_eq!(checksum, GOLDEN_CALIBRE, "Calibre training drifted");
}

#[test]
fn simclr_multi_step_checksum_is_stable() {
    let mut r = rng::seeded(33);
    let base = rng::normal_matrix(&mut r, 24, 64, 1.0);
    let ve = base.map(|v| v + 0.04);
    let vo = base.map(|v| v - 0.04);
    let mut m = SimClr::new(SslConfig::for_input(64));
    let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
    for _ in 0..8 {
        ssl_step(&mut m, &TwoViewBatch::new(&ve, &vo), &mut opt);
    }
    let checksum = flat_checksum(&m.to_flat());
    eprintln!("simclr checksum: {checksum:#018x}");
    assert_eq!(checksum, GOLDEN_SIMCLR, "SimCLR stepping drifted");
}

const GOLDEN_CALIBRE: u64 = 0xf693_2ed4_aed3_569c;
const GOLDEN_SIMCLR: u64 = 0x45bc_4e68_002f_c982;

/// `cfg` defended by the coordinate median with detection on, so every
/// round seals through the median and scores against the column medians.
fn median_with_detection(mut cfg: FlConfig) -> FlConfig {
    cfg.policy.aggregator = calibre_fl::aggregate::Aggregator::CoordinateMedian;
    cfg.detect = true;
    cfg
}

/// Calibre's divergence-aware weights are fractional, so its median walks
/// each sorted column.
#[test]
fn calibre_median_with_detection_checksum_is_stable() {
    let fed = tiny_fed();
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 2;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    let (encoder, losses, _) = train_calibre_encoder(
        &fed,
        &median_with_detection(cfg),
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let checksum = flat_checksum(&encoder.to_flat());
    eprintln!("calibre median+detect checksum: {checksum:#018x} losses {losses:?}");
    assert_eq!(
        checksum, GOLDEN_CALIBRE_MEDIAN_DETECT,
        "Calibre under the median with detection drifted"
    );
}

const GOLDEN_CALIBRE_MEDIAN_DETECT: u64 = 0x332c_4d5c_9f88_d566;

#[test]
fn killed_and_resumed_training_matches_the_uninterrupted_run() {
    // Crash-safe resume must be bit-identical: training 2 rounds, "dying",
    // and resuming to 4 rounds from the checkpoint store must produce the
    // exact parameters of an uninterrupted 4-round run. This leans on the
    // selection schedule's prefix stability and on SimCLR state being fully
    // parameter-backed.
    use calibre_fl::checkpoint::CheckpointStore;
    use calibre_fl::pfl_ssl::{train_pfl_ssl_encoder, train_pfl_ssl_encoder_resumable};
    use calibre_telemetry::NullRecorder;

    let fed = tiny_fed();
    let aug = AugmentConfig::default();
    let mut cfg = FlConfig::for_input(64);
    cfg.clients_per_round = 2;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.rounds = 4;
    let (straight, straight_losses) = train_pfl_ssl_encoder(&fed, &cfg, SslKind::SimClr, &aug);

    let dir = std::env::temp_dir().join(format!("calibre-resume-{}", std::process::id()));
    let store = CheckpointStore::new(dir.join("trainer.txt"));

    // Phase 1: run only 2 rounds, checkpointing every round — then "crash".
    let mut short = cfg.clone();
    short.rounds = 2;
    train_pfl_ssl_encoder_resumable(
        &fed,
        &short,
        SslKind::SimClr,
        &aug,
        None,
        &NullRecorder,
        Some(&store),
    );

    // Phase 2: restart with the full 4-round config; rounds 0-1 come from
    // the checkpoint, rounds 2-3 train live.
    let (resumed, resumed_losses) = train_pfl_ssl_encoder_resumable(
        &fed,
        &cfg,
        SslKind::SimClr,
        &aug,
        None,
        &NullRecorder,
        Some(&store),
    );
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        flat_checksum(&resumed.to_flat()),
        flat_checksum(&straight.to_flat()),
        "resumed run diverged from the uninterrupted run"
    );
    assert_eq!(resumed.to_flat(), straight.to_flat());
    assert_eq!(resumed_losses, straight_losses);
}

// ---------------------------------------------------------------------------
// The eleven aggregating baselines of Figs. 3-4.
// ---------------------------------------------------------------------------

use calibre_fl::baselines::{
    apfl::run_apfl, ditto::run_ditto, fedavg::run_fedavg, fedbabu::run_fedbabu, fedema::run_fedema,
    fedper::run_fedper, fedprox::run_fedprox, fedrep::run_fedrep, lgfedavg::run_lgfedavg,
    perfedavg::run_perfedavg, scaffold::run_scaffold, BaselineResult,
};
use calibre_telemetry::NullRecorder;

/// Four Dirichlet-0.3 clients. 200 test samples per client make every
/// accuracy sensitive to the per-client state a baseline carries across
/// rounds; the unlabeled pool gives FedEMA a weight other than `train_len`.
fn baseline_fed() -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 4,
            train_per_client: 40,
            test_per_client: 200,
            unlabeled_per_client: 10,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 11,
        },
    )
}

/// Four rounds of three clients: every client is selected at least twice,
/// so state written back after one round is read in a later one. The small
/// learning rate keeps APFL's mixing weight away from its clamp.
fn baseline_cfg() -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 4;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.local_lr = 0.005;
    cfg
}

/// Asserts a baseline run's `[encoder, round losses, seen accuracies]`
/// checksums.
fn assert_baseline_golden(result: &BaselineResult, golden: [u64; 3]) {
    let got = [
        flat_checksum(&result.encoder.to_flat()),
        flat_checksum(&result.round_losses),
        flat_checksum(&result.seen.accuracies),
    ];
    eprintln!("{}: {got:#018x?}", result.name);
    assert_eq!(
        got, golden,
        "{} drifted: [encoder, round losses, accuracies]",
        result.name
    );
}

#[test]
fn fedavg_ft_checksums_are_stable() {
    let result = run_fedavg(&baseline_fed(), &baseline_cfg(), true, &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDAVG_FT);
}

/// FedAvg-FT's sample-count weights are integers, so its median selects.
#[test]
fn fedavg_ft_median_with_detection_checksums_are_stable() {
    let cfg = median_with_detection(baseline_cfg());
    let result = run_fedavg(&baseline_fed(), &cfg, true, &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDAVG_FT_MEDIAN_DETECT);
}

#[test]
fn fedprox_ft_checksums_are_stable() {
    let result = run_fedprox(&baseline_fed(), &baseline_cfg(), 0.1, &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDPROX_FT);
}

#[test]
fn scaffold_ft_checksums_are_stable() {
    let result = run_scaffold(&baseline_fed(), &baseline_cfg(), true, &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_SCAFFOLD_FT);
}

#[test]
fn fedbabu_checksums_are_stable() {
    let result = run_fedbabu(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDBABU);
}

#[test]
fn fedrep_checksums_are_stable() {
    let result = run_fedrep(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDREP);
}

#[test]
fn fedper_checksums_are_stable() {
    let result = run_fedper(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_FEDPER);
}

#[test]
fn lgfedavg_checksums_are_stable() {
    let result = run_lgfedavg(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_LGFEDAVG);
}

#[test]
fn ditto_checksums_are_stable() {
    let result = run_ditto(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_DITTO);
}

#[test]
fn apfl_checksums_are_stable() {
    let result = run_apfl(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_APFL);
}

#[test]
fn perfedavg_checksums_are_stable() {
    let result = run_perfedavg(&baseline_fed(), &baseline_cfg(), &NullRecorder);
    assert_baseline_golden(&result, GOLDEN_PERFEDAVG);
}

#[test]
fn fedema_checksums_are_stable() {
    let result = run_fedema(
        &baseline_fed(),
        &baseline_cfg(),
        &AugmentConfig::default(),
        &NullRecorder,
    );
    assert_baseline_golden(&result, GOLDEN_FEDEMA);
}

const GOLDEN_FEDAVG_FT: [u64; 3] = [
    0xbe22_c3ad_1d2a_bc26,
    0x8540_905d_8884_77a3,
    0x4ef3_eee8_49c1_7a06,
];
const GOLDEN_FEDPROX_FT: [u64; 3] = [
    0x8086_6036_1ca1_2d56,
    0x9d49_e137_a961_2081,
    0x4ef3_eee8_49c1_7a06,
];
const GOLDEN_SCAFFOLD_FT: [u64; 3] = [
    0xc3ef_486f_f5be_6919,
    0xcfbb_b264_05be_0364,
    0xc6c9_89e6_fef8_0949,
];
const GOLDEN_FEDBABU: [u64; 3] = [
    0xa7ab_3b75_340a_2e0d,
    0xe7f2_e991_711a_9f96,
    0x7678_a996_1b26_b276,
];
const GOLDEN_FEDREP: [u64; 3] = [
    0xbb4d_399a_0be6_24d4,
    0xd3c7_1a6e_b81d_b4e2,
    0x51f0_d8d8_9dee_4114,
];
const GOLDEN_FEDPER: [u64; 3] = [
    0xc864_2563_edb5_770d,
    0xe8ad_af47_df8d_a759,
    0x585b_3659_4ef5_113c,
];
const GOLDEN_LGFEDAVG: [u64; 3] = [
    0x4d01_1032_f10b_7841,
    0x32eb_ee8b_320f_8c6b,
    0x9cdf_eaf1_1b60_8b31,
];
const GOLDEN_DITTO: [u64; 3] = [
    0xbe22_c3ad_1d2a_bc26,
    0x8540_905d_8884_77a3,
    0x450a_4d8d_3688_85a6,
];
const GOLDEN_APFL: [u64; 3] = [
    0xbe22_c3ad_1d2a_bc26,
    0x8540_905d_8884_77a3,
    0x48a4_4dd1_a69b_653c,
];
const GOLDEN_PERFEDAVG: [u64; 3] = [
    0xce55_dc96_2771_9c5b,
    0x0ea1_2c6c_baf8_019c,
    0xf798_8dd3_373b_9b09,
];
const GOLDEN_FEDEMA: [u64; 3] = [
    0x1e15_9726_7efe_3f45,
    0xdc4c_6f67_bc19_47ec,
    0x33e7_8f1f_a702_f39b,
];
const GOLDEN_FEDAVG_FT_MEDIAN_DETECT: [u64; 3] = [
    0xb63d_e891_d151_b7a0,
    0x93ae_ef5b_4fce_2a0c,
    0xf0ed_f6fb_1cd7_6e57,
];
