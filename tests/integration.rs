//! Cross-crate integration tests: data → ssl → fl → calibre plumbing.
//!
//! These tests exercise the same paths the experiment harness uses, at
//! smoke scale, and assert the *relationships* the paper depends on rather
//! than absolute numbers.

use calibre::{calibre_step, run_calibre, CalibreConfig};
use calibre_bench::{build_dataset, run_method, DatasetId, MethodId, Scale, Setting};
use calibre_cluster::silhouette_score;
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::baselines::fedavg::run_fedavg;
use calibre_fl::pfl_ssl::run_pfl_ssl;
use calibre_fl::{personalize_cohort, FlConfig};
use calibre_ssl::{create_method, SslKind, TwoViewBatch};
use calibre_telemetry::NullRecorder;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::Matrix;

fn small_fed(seed: u64) -> FederatedDataset {
    FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 6,
            train_per_client: 60,
            test_per_client: 30,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed,
        },
    )
}

fn smoke_cfg() -> FlConfig {
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 6;
    cfg.clients_per_round = 3;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg
}

#[test]
fn federated_ssl_training_improves_over_random_encoder() {
    let fed = small_fed(1);
    let cfg = smoke_cfg();
    // Random encoder baseline.
    let random_encoder = create_method(SslKind::SimClr, cfg.ssl.clone())
        .encoder()
        .clone();
    let random = personalize_cohort(&random_encoder, &fed, 10, &cfg.probe);
    // Trained encoder.
    let result = run_pfl_ssl(&fed, &cfg, SslKind::SimClr, &AugmentConfig::default());
    assert!(
        result.stats().mean > random.stats.mean,
        "trained {:?} must beat random {:?}",
        result.stats(),
        random.stats
    );
}

#[test]
fn calibre_loss_composes_with_every_ssl_backbone() {
    let fed = small_fed(2);
    let config = CalibreConfig::default();
    let aug = AugmentConfig::default();
    let mut rng = calibre_tensor::rng::seeded(0);
    let pool: Vec<_> = fed.client(0).ssl_pool();
    let samples: Vec<_> = pool.iter().take(12).copied().collect();
    let (ve, vo) = fed.generator().render_two_views(samples, &aug, &mut rng);
    for kind in SslKind::ALL {
        let mut method = create_method(kind, FlConfig::for_input(64).ssl);
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let before = method.encoder().to_flat();
        let outcome = calibre_step(
            method.as_mut(),
            &TwoViewBatch::new(&ve, &vo),
            &config,
            &mut opt,
            7,
        );
        assert!(outcome.ssl_loss.is_finite(), "{kind}: ssl loss");
        assert!(
            outcome.l_n.is_finite() && outcome.l_p.is_finite(),
            "{kind}: regularizers"
        );
        assert!(outcome.divergence > 0.0, "{kind}: divergence");
        assert_ne!(
            method.encoder().to_flat(),
            before,
            "{kind}: encoder must move"
        );
    }
}

#[test]
fn calibre_produces_crisper_features_than_its_inputs() {
    // After training, encoder features should cluster by class better than
    // raw observations do — the premise of the whole personalization stage.
    let fed = small_fed(3);
    let mut cfg = smoke_cfg();
    cfg.rounds = 16;
    cfg.local_epochs = 2;
    let result = run_calibre(
        &fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for id in 0..fed.num_clients() {
        for s in fed.client(id).train.iter().take(20) {
            rows.push(fed.generator().render(s));
            labels.push(s.expect_label());
        }
    }
    let obs = Matrix::from_rows(&rows);
    // SSL representations live on the hypersphere (the contrastive losses
    // normalize), so compare silhouettes in normalized space on both sides.
    let feats = result.encoder.infer(&obs).row_l2_normalized();
    let sil_raw = silhouette_score(&obs.row_l2_normalized(), &labels);
    let sil_feat = silhouette_score(&feats, &labels);
    assert!(
        sil_feat > sil_raw,
        "feature silhouette {sil_feat} must beat raw {sil_raw}"
    );
}

#[test]
fn novel_clients_personalize_comparably_to_seen_clients() {
    let full = FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 9,
            train_per_client: 60,
            test_per_client: 30,
            unlabeled_per_client: 0,
            non_iid: NonIid::Quantity {
                classes_per_client: 2,
            },
            seed: 4,
        },
    );
    let (seen_fed, novel_fed) = full.split_novel(3);
    let cfg = smoke_cfg();
    let result = run_calibre(
        &seen_fed,
        &cfg,
        SslKind::SimClr,
        &CalibreConfig::default(),
        &AugmentConfig::default(),
    );
    let novel = personalize_cohort(&result.encoder, &novel_fed, 10, &cfg.probe);
    // Novel clients should be in the same ballpark (within 20 points of
    // mean accuracy) — the encoder holds no client-specific state.
    assert!(
        (result.stats().mean - novel.stats.mean).abs() < 0.20,
        "seen {:?} vs novel {:?}",
        result.stats(),
        novel.stats
    );
    assert!(
        novel.stats.mean > 0.5,
        "novel cohort must beat chance on 2-way tasks"
    );
}

#[test]
fn personalization_beats_global_model_under_label_skew() {
    // The paper's core motivation: under severe label skew a personalized
    // head beats the single global model.
    let fed = small_fed(5);
    let cfg = smoke_cfg();
    let plain = run_fedavg(&fed, &cfg, false, &NullRecorder);
    let personalized = run_fedavg(&fed, &cfg, true, &NullRecorder);
    assert!(
        personalized.stats().mean > plain.stats().mean,
        "personalized {:?} vs global {:?}",
        personalized.stats(),
        plain.stats()
    );
}

#[test]
fn every_roster_method_runs_at_smoke_scale() {
    let fed = build_dataset(
        DatasetId::Cifar10,
        Setting::QuantityNonIid,
        Scale::Smoke,
        0,
        11,
    );
    let cfg = Scale::Smoke.fl_config(11);
    for id in MethodId::roster() {
        let result = run_method(id, &fed, &cfg);
        let stats = result.stats();
        assert_eq!(
            stats.count,
            fed.num_clients(),
            "{}: cohort size",
            result.name
        );
        assert!(
            stats.mean.is_finite() && stats.mean > 0.0 && stats.mean <= 1.0,
            "{}: mean {:?}",
            result.name,
            stats
        );
        assert!(stats.variance >= 0.0, "{}: variance", result.name);
    }
}

#[test]
fn stl10_analog_gives_ssl_methods_an_unlabeled_advantage() {
    // SSL sees labeled + unlabeled samples; supervised sees labeled only.
    let fed = build_dataset(
        DatasetId::Stl10,
        Setting::QuantityNonIid,
        Scale::Smoke,
        0,
        12,
    );
    let pool = fed.client(0).ssl_pool().len();
    let labeled = fed.client(0).train_len();
    assert!(
        pool > 2 * labeled,
        "unlabeled pool should dominate: {pool} vs {labeled}"
    );
}

#[test]
fn dirichlet_severity_increases_fedavg_variance() {
    // Fairness degrades with heterogeneity — the premise of Fig. 3's x-axis.
    let cfg = smoke_cfg();
    let make = |non_iid| {
        FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 8,
                train_per_client: 60,
                test_per_client: 30,
                unlabeled_per_client: 0,
                non_iid,
                seed: 13,
            },
        )
    };
    let iid = run_fedavg(&make(NonIid::Iid), &cfg, false, &NullRecorder);
    let skewed = run_fedavg(
        &make(NonIid::Quantity {
            classes_per_client: 2,
        }),
        &cfg,
        false,
        &NullRecorder,
    );
    assert!(
        skewed.stats().variance > iid.stats().variance,
        "skew {:?} must be less fair than iid {:?}",
        skewed.stats(),
        iid.stats()
    );
}
