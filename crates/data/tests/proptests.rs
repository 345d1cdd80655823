//! Property-based tests for dataset generation and partitioning invariants.

use calibre_data::{
    AugmentConfig, FederatedDataset, NonIid, PartitionConfig, Sample, SynthVision, SynthVisionSpec,
};
use calibre_tensor::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

fn any_non_iid() -> impl Strategy<Value = NonIid> {
    prop_oneof![
        Just(NonIid::Iid),
        (1usize..=10).prop_map(|classes_per_client| NonIid::Quantity { classes_per_client }),
        (0.05f64..5.0).prop_map(|alpha| NonIid::Dirichlet { alpha }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_partition_regime_produces_exact_budgets(
        non_iid in any_non_iid(),
        num_clients in 1usize..8,
        train in 5usize..40,
        test in 1usize..20,
        unlabeled in 0usize..20,
        seed in 0u64..1000,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients,
                train_per_client: train,
                test_per_client: test,
                unlabeled_per_client: unlabeled,
                non_iid,
                seed,
            },
        );
        prop_assert_eq!(fed.num_clients(), num_clients);
        for c in fed.clients() {
            prop_assert_eq!(c.train_len(), train);
            prop_assert_eq!(c.test_len(), test);
            prop_assert_eq!(c.unlabeled.len(), unlabeled);
            prop_assert!(c.train.iter().all(|s| s.label.is_some()));
            prop_assert!(c.unlabeled.iter().all(|s| s.label.is_none()));
            prop_assert!(c.train_labels().iter().all(|&l| l < 10));
        }
    }

    #[test]
    fn quantity_regime_never_exceeds_class_budget(
        classes_per_client in 1usize..=10,
        seed in 0u64..500,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 4,
                train_per_client: 50,
                test_per_client: 20,
                unlabeled_per_client: 0,
                non_iid: NonIid::Quantity { classes_per_client },
                seed,
            },
        );
        for c in fed.clients() {
            prop_assert!(c.train_classes().len() <= classes_per_client);
        }
    }

    #[test]
    fn rendered_views_are_finite_and_right_sized(
        class in 0usize..10,
        seed in 0u64..500,
        rho in 0.0f32..1.0,
        noise in 0.0f32..0.3,
        mask in 0.0f32..0.3,
    ) {
        let generator = SynthVision::new(SynthVisionSpec::cifar10());
        let mut r = seeded(seed);
        let sample = generator.sample(class, &mut r);
        let aug = AugmentConfig { nuisance_keep: rho, noise_std: noise, mask_prob: mask, gain_jitter: 0.1 };
        let view = generator.render_view(&sample, &aug, &mut r);
        prop_assert_eq!(view.len(), 64);
        prop_assert!(view.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn canonical_render_is_deterministic(class in 0usize..10, seed in 0u64..500) {
        let generator = SynthVision::new(SynthVisionSpec::cifar10());
        let sample = generator.sample(class, &mut seeded(seed));
        prop_assert_eq!(generator.render(&sample), generator.render(&sample));
    }

    #[test]
    fn two_view_batches_stay_aligned(n in 2usize..20, seed in 0u64..500) {
        let generator = SynthVision::new(SynthVisionSpec::stl10());
        let mut r = seeded(seed);
        let samples: Vec<Sample> = (0..n).map(|i| generator.sample(i % 10, &mut r)).collect();
        let (ve, vo) = generator.render_two_views(samples.iter(), &AugmentConfig::default(), &mut r);
        prop_assert_eq!(ve.shape(), (n, 64));
        prop_assert_eq!(vo.shape(), (n, 64));
    }

    #[test]
    fn global_histogram_counts_all_training_samples(
        non_iid in any_non_iid(),
        seed in 0u64..200,
    ) {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 5,
                train_per_client: 30,
                test_per_client: 10,
                unlabeled_per_client: 0,
                non_iid,
                seed,
            },
        );
        let hist = fed.global_label_histogram();
        prop_assert_eq!(hist.iter().sum::<usize>(), 5 * 30);
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn two_views_in_one_pass_match_a_loop_of_render_view_bit_for_bit() {
    // The batched renderer draws every view's numbers in render_view's
    // order and renders all rows at once; each row, and the RNG state it
    // leaves, must be what rendering the views one by one gives.
    let generator = SynthVision::new(SynthVisionSpec::cifar10());
    for aug in [
        AugmentConfig::default(),
        AugmentConfig::none(),
        AugmentConfig::strong(),
    ] {
        for n in [1usize, 2, 32] {
            let mut r = seeded(n as u64);
            let samples: Vec<Sample> = (0..n).map(|i| generator.sample(i % 10, &mut r)).collect();
            let mut batched = seeded(40 + n as u64);
            let (view_e, view_o) = generator.render_two_views(samples.iter(), &aug, &mut batched);
            let mut one_by_one = seeded(40 + n as u64);
            for (row, sample) in samples.iter().chain(&samples).enumerate() {
                let want = generator.render_view(sample, &aug, &mut one_by_one);
                let got = if row < n {
                    view_e.row(row)
                } else {
                    view_o.row(row - n)
                };
                assert_eq!(bits(got), bits(&want), "{aug:?}, batch {n}, view {row}");
            }
            assert_eq!(
                batched.gen::<u64>(),
                one_by_one.gen::<u64>(),
                "{aug:?}, batch {n}: the next draw differs"
            );
        }
    }
}

#[test]
fn render_batch_rows_match_render_bit_for_bit() {
    let generator = SynthVision::new(SynthVisionSpec::cifar100());
    let mut r = seeded(9);
    let samples: Vec<Sample> = (0..33).map(|i| generator.sample(i % 100, &mut r)).collect();
    let batch = generator.render_batch(samples.iter());
    assert_eq!(batch.shape(), (33, 64));
    for (row, sample) in samples.iter().enumerate() {
        assert_eq!(
            bits(batch.row(row)),
            bits(&generator.render(sample)),
            "row {row}"
        );
    }
}
