//! Property-based tests for aggregation, metrics and checkpoint invariants.

use calibre_fl::adversary::{anomaly_scores, AnomalyScore, ReputationBook};
use calibre_fl::aggregate::{
    aggregate_robust, clip_norm, coordinate_median, divergence_weight, geometric_median, krum,
    median_and_midpoints, trimmed_mean, AggregateError, Aggregator, StreamingWeightedSink,
    UpdateSink,
};
use calibre_fl::chaos::{FaultInjector, FaultPlan};
use calibre_fl::checkpoint;
use calibre_fl::comm::CommReport;
use calibre_fl::model::{supervised_step, supervised_step_in, ClassifierModel, TrainScope};
use calibre_fl::{jain_index, worst_fraction_mean, Stats};
use calibre_ssl::SslConfig;
use calibre_tensor::nn::{Activation, Mlp, Module};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Matrix, StepArena};
use proptest::prelude::*;

/// The plain weighted average through the aggregation front door.
fn weighted_average(updates: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    aggregate_robust(Aggregator::WeightedAverage, &refs, weights).unwrap()
}

/// The historical weighted fold: every update scaled by `w / Σw` into a
/// pre-normalized streaming sink, in input order.
fn cohort_fold(updates: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    let total: f32 = weights.iter().sum();
    let mut sink = StreamingWeightedSink::for_cohort(total, updates.len());
    for (slot, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
        sink.fold(slot, u, w).unwrap();
    }
    sink.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_average_is_within_input_hull(
        updates in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 6), 1..6),
        weights in prop::collection::vec(0.0f32..5.0, 6),
    ) {
        let weights = &weights[..updates.len()];
        let avg = weighted_average(&updates, weights);
        for (j, v) in avg.iter().enumerate() {
            let lo = updates.iter().map(|u| u[j]).fold(f32::INFINITY, f32::min);
            let hi = updates.iter().map(|u| u[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(*v >= lo - 1e-4 && *v <= hi + 1e-4, "coord {j}: {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn uniform_average_of_identical_updates_is_identity(
        update in prop::collection::vec(-10.0f32..10.0, 8),
        copies in 1usize..6,
    ) {
        let updates = vec![update.clone(); copies];
        let avg = weighted_average(&updates, &vec![1.0; copies]);
        for (a, b) in avg.iter().zip(update.iter()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn aggregation_is_permutation_invariant(
        a in prop::collection::vec(-5.0f32..5.0, 4),
        b in prop::collection::vec(-5.0f32..5.0, 4),
        c in prop::collection::vec(-5.0f32..5.0, 4),
        wa in 0.1f32..3.0, wb in 0.1f32..3.0, wc in 0.1f32..3.0,
    ) {
        let fwd = weighted_average(&[a.clone(), b.clone(), c.clone()], &[wa, wb, wc]);
        let rev = weighted_average(&[c, b, a], &[wc, wb, wa]);
        for (x, y) in fwd.iter().zip(rev.iter()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn divergence_weights_are_positive_and_antitone(divs in prop::collection::vec(0.0f32..10.0, 2..10)) {
        let w: Vec<f32> = divs.iter().map(|&d| divergence_weight(d)).collect();
        prop_assert!(w.iter().all(|&v| v > 0.0 && v.is_finite()));
        for i in 0..divs.len() {
            for j in 0..divs.len() {
                if divs[i] < divs[j] {
                    prop_assert!(w[i] >= w[j], "lower divergence must not get less weight");
                }
            }
        }
    }

    #[test]
    fn stats_mean_is_within_min_max(values in prop::collection::vec(0.0f32..1.0, 1..30)) {
        let s = Stats::from_accuracies(&values);
        prop_assert!(s.mean >= s.min - 1e-6 && s.mean <= s.max + 1e-6);
        prop_assert!(s.variance >= 0.0);
        prop_assert!((s.std * s.std - s.variance).abs() < 1e-4);
    }

    #[test]
    fn jain_index_bounds(values in prop::collection::vec(0.01f32..1.0, 1..30)) {
        let j = jain_index(&values);
        let n = values.len() as f32;
        prop_assert!(j >= 1.0 / n - 1e-5 && j <= 1.0 + 1e-5, "jain {j} for n={n}");
    }

    #[test]
    fn worst_fraction_is_a_lower_bound_on_mean(values in prop::collection::vec(0.0f32..1.0, 1..30)) {
        let s = Stats::from_accuracies(&values);
        let w = worst_fraction_mean(&values, 0.2);
        prop_assert!(w <= s.mean + 1e-5);
    }

    #[test]
    fn checkpoint_roundtrip_any_architecture(
        hidden in 1usize..12,
        output in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut r = rng::seeded(seed);
        let original = Mlp::new(&[5, hidden, output], Activation::Relu, &mut r);
        let tensors = checkpoint::parse(&checkpoint::to_string(&original)).unwrap();
        let mut restored = Mlp::new(&[5, hidden, output], Activation::Relu, &mut r);
        checkpoint::restore(&mut restored, &tensors).unwrap();
        prop_assert_eq!(restored.to_flat(), original.to_flat());
    }

    #[test]
    fn every_truncated_checkpoint_parses_or_fails_typed(
        hidden in 1usize..5,
        clients in 0usize..3,
        strikes in 0usize..4,
        seed in 0u64..500,
    ) {
        // A damaged file can end anywhere; every prefix must come back
        // `Ok` or as a typed error, never as a panic or an abort, and a cut
        // before the checksum line's last digit must be an error. Both
        // texts carry a reputation section once a client has struck.
        let mut r = rng::seeded(seed);
        let net = |r: &mut rand::rngs::StdRng| -> Vec<Matrix> {
            Mlp::new(&[3, hidden, 2], Activation::Relu, r)
                .parameters()
                .into_iter()
                .cloned()
                .collect()
        };
        let mut book = ReputationBook::new();
        for _ in 0..strikes {
            book.observe_round(&[AnomalyScore { client: 5, norm_z: 4.0, cosine_z: 0.0 }]);
        }
        let trainer = checkpoint::TrainerCheckpoint {
            round: 2,
            global: net(&mut r),
            clients: (0..clients).map(|id| (id, net(&mut r))).collect(),
            round_losses: vec![1.5, 0.75],
            reputation: book.clone(),
        };
        let server = checkpoint::ServerCheckpoint {
            round: 3,
            model: trainer.global.iter().flat_map(|m| m.as_slice().to_vec()).collect(),
            reputation: book,
        };
        let trainer_text = trainer.to_text();
        let server_text = server.to_text();
        prop_assert!(checkpoint::TrainerCheckpoint::parse(&trainer_text).is_ok());
        prop_assert_eq!(checkpoint::ServerCheckpoint::parse(&server_text).ok(), Some(server));
        // Both texts end in a newline after the checksum's last digit.
        for cut in 0..trainer_text.len() {
            let parsed = checkpoint::TrainerCheckpoint::parse(&trainer_text[..cut]);
            prop_assert_eq!(parsed.is_ok(), cut + 1 == trainer_text.len(), "trainer cut at {}", cut);
        }
        for cut in 0..server_text.len() {
            let parsed = checkpoint::ServerCheckpoint::parse(&server_text[..cut]);
            prop_assert_eq!(parsed.is_ok(), cut + 1 == server_text.len(), "server cut at {}", cut);
        }
    }

    #[test]
    fn supervised_arena_training_is_bit_identical(seed in 0u64..200, scope_idx in 0usize..3) {
        // Arena-recycled supervised steps must match the fresh-graph path
        // bit for bit under every training scope — the frozen-scope gradient
        // mask and the pooled tape are both numerically transparent.
        let scope = [TrainScope::Full, TrainScope::EncoderOnly, TrainScope::HeadOnly][scope_idx];
        let cfg = SslConfig::for_input(64);
        let mut r = rng::seeded(seed);
        let x = rng::normal_matrix(&mut r, 10, 64, 1.0);
        let y: Vec<usize> = (0..10).map(|i| i % 10).collect();
        let mut fresh = ClassifierModel::new(&cfg, 10, seed);
        let mut pooled = fresh.clone();
        let mut opt_fresh = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut opt_pooled = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut arena = StepArena::new();
        for step in 0..3 {
            let lf = supervised_step(&mut fresh, &x, &y, &mut opt_fresh, scope);
            let lp = supervised_step_in(&mut pooled, &x, &y, &mut opt_pooled, scope, &mut arena);
            prop_assert_eq!(lf.to_bits(), lp.to_bits(), "loss diverged at step {}", step);
        }
        let fresh_flat = fresh.to_flat();
        let pooled_flat = pooled.to_flat();
        prop_assert_eq!(fresh_flat.len(), pooled_flat.len());
        for (a, b) in fresh_flat.iter().zip(pooled_flat.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "params diverged: {} vs {}", a, b);
        }
    }

    #[test]
    fn comm_report_is_consistent(params in 1usize..100_000, rounds in 1usize..300, clients in 1usize..50) {
        let report = CommReport::new(params, rounds, clients);
        prop_assert_eq!(report.total, 2 * report.upload_per_round * rounds);
        prop_assert_eq!(report.upload_per_round, params * 4 * clients);
    }

    #[test]
    fn robust_weighted_average_is_bit_identical_to_legacy(
        updates in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 6), 1..6),
        weights in prop::collection::vec(0.1f32..5.0, 6),
    ) {
        let weights = &weights[..updates.len()];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let robust = aggregate_robust(Aggregator::WeightedAverage, &refs, weights).unwrap();
        let legacy = cohort_fold(&refs, weights);
        for (a, b) in robust.iter().zip(legacy.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "robust path drifted from legacy");
        }
    }

    #[test]
    fn trimmed_mean_with_zero_ratio_matches_weighted_average(
        updates in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 6), 1..6),
        weights in prop::collection::vec(0.1f32..5.0, 6),
    ) {
        let weights = &weights[..updates.len()];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let trimmed = trimmed_mean(&refs, weights, 0.0).unwrap();
        let legacy = weighted_average(&updates, weights);
        for (a, b) in trimmed.iter().zip(legacy.iter()) {
            prop_assert!((a - b).abs() < 1e-4, "trim(0) {a} vs mean {b}");
        }
    }

    #[test]
    fn robust_aggregators_agree_on_identical_updates(
        update in prop::collection::vec(-10.0f32..10.0, 8),
        copies in 1usize..6,
        ratio in 0.0f32..0.45,
    ) {
        // With every client reporting the same update, trimming and the
        // weighted median cannot move the aggregate. Cohorts too small to
        // survive the trim must take the typed skipped-round path instead
        // of silently averaging nothing.
        let owned = vec![update.clone(); copies];
        let refs: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0f32; copies];
        let med = coordinate_median(&refs, &weights).unwrap();
        // analyze:allow(lossy-cast) -- mirrors the production trim count.
        let trim = (ratio * copies as f32).ceil() as usize;
        match trimmed_mean(&refs, &weights, ratio) {
            Ok(trm) => {
                prop_assert!(trim == 0 || copies > 2 * trim, "undersized cohort was averaged");
                for (t, v) in trm.iter().zip(update.iter()) {
                    prop_assert!((t - v).abs() < 1e-5, "trimmed mean moved: {t} vs {v}");
                }
            }
            Err(AggregateError::CohortTooSmall { needed, got }) => {
                prop_assert!(trim > 0 && copies <= 2 * trim, "sufficient cohort rejected");
                prop_assert_eq!(needed, 2 * trim + 1);
                prop_assert_eq!(got, copies);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
        for (m, v) in med.iter().zip(update.iter()) {
            prop_assert!((m - v).abs() < 1e-5, "median moved: {m} vs {v}");
        }
    }

    #[test]
    fn order_statistics_are_bit_identical_to_the_sorting_loops(
        n in prop_oneof![Just(1usize), Just(2usize), 3usize..40],
        dim in prop_oneof![Just(1usize), Just(16usize), 2usize..40, Just(1000usize)],
        values in prop::collection::vec(
            prop_oneof![Just(0.0f32), Just(-0.0f32), Just(1.5f32), Just(-1.5f32), -4.0f32..4.0],
            40 * 40,
        ),
        weights in prop::collection::vec(0.1f32..5.0, 40),
        weighting in 0u8..8,
        ragged in any::<bool>(),
    ) {
        // The column kernel must return exactly what the per-coordinate
        // sorting loops it replaced return. The value pool puts duplicates
        // and both zeros in most columns; `dim` 1 is below the worker count,
        // most other widths are not a multiple of the gather block, and
        // `dim` 1000 with a larger cohort splits the coordinates over
        // several workers.
        let mut owned: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..=dim).map(|j| values[(i * (dim + 1) + j) % values.len()]).collect())
            .collect();
        let rise_with_the_slot = |owned: &mut Vec<Vec<f32>>| {
            for (i, row) in owned.iter_mut().enumerate() {
                for v in row.iter_mut() {
                    *v += 10.0 * i as f32;
                }
            }
        };
        // The median selects where every partial sum is exact in any
        // order (uniform weights, non-negative integers with a total below
        // 2^24) and walks each sorted column otherwise: weightings 0 and 2
        // walk, 1, 3, 4 and 5 select, 6 and 7 walk again. Weightings 2 and
        // 3 put the crossing past the part of each column the walk sorts
        // first, so its fallback runs: one dominant weight on every
        // column's largest value, or weights that rise with the value.
        let small: Vec<f32> = weights[..n].iter().map(|w| (w * 1.6).floor()).collect();
        let weights: Vec<f32> = match weighting {
            0 => weights[..n].to_vec(),
            1 => vec![0.0; n],
            2 => {
                for v in owned[n - 1].iter_mut() {
                    *v += 8.0;
                }
                let rest: f32 = weights[..n - 1].iter().sum();
                let mut w = weights[..n].to_vec();
                w[n - 1] = 4.0 * rest + 1.0;
                w
            }
            3 => {
                rise_with_the_slot(&mut owned);
                (0..n).map(|i| ((i + 1) * (i + 1)) as f32).collect()
            }
            // Random integers 0..=7, zeros included.
            4 => small,
            // Integers whose total sits just below 2^24.
            5 => {
                let base = ((EXACT - 1) as usize - 8 * n) / n;
                small.iter().map(|w| (base as f32) + w).collect()
            }
            // A slot-order total that rounds to exactly 2^24 from 2^24 + 1,
            // with the column's lower half weighing exactly half of it: a
            // selection that summed the upper half and took the lower
            // half's weight from the rounded total would stop one entry
            // late.
            6 => {
                rise_with_the_slot(&mut owned);
                at_the_exactness_bound(n)
            }
            // Integers whose total is past 2^24, so partial sums round.
            _ => {
                let base = (2 * EXACT as usize) / n;
                small.iter().map(|w| (base as f32) + w).collect()
            }
        };
        let updates: Vec<&[f32]> = owned.iter().map(|row| &row[..dim]).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let median = coordinate_median(&updates, &weights).unwrap();
        let want = sorting_reference::coordinate_median(&updates, &weights);
        prop_assert_eq!(bits(&median), bits(&want));

        // A held median round seals the same aggregate and detection's
        // reference medians in one pass; scored against them, the round
        // reads as the sorting reference scores it.
        let (sealed, medians) = median_and_midpoints(&updates, &weights).unwrap();
        prop_assert_eq!(bits(&medians), bits(&sorting_reference::column_medians(&updates)));
        let ids: Vec<usize> = (0..n).map(|i| 7 * i + 1).collect();
        let fused = sorting_reference::anomaly_scores_against(&ids, &updates, &medians);
        let scored = sorting_reference::anomaly_scores(&ids, &updates);
        for (g, w) in fused.iter().zip(&scored) {
            prop_assert_eq!(g.norm_z.to_bits(), w.norm_z.to_bits(), "fused norm z of {}", g.client);
            prop_assert_eq!(g.cosine_z.to_bits(), w.cosine_z.to_bits(), "fused cosine z of {}", g.client);
        }
        prop_assert_eq!(bits(&sealed), bits(&want));
        for ratio in [0.0f32, 0.1, 0.3] {
            let want = sorting_reference::trimmed_mean(&updates, &weights, ratio);
            match (trimmed_mean(&updates, &weights, ratio), want) {
                (Ok(got), Some(want)) => prop_assert_eq!(bits(&got), bits(&want), "ratio {}", ratio),
                (Err(AggregateError::CohortTooSmall { .. }), None) => {}
                (got, want) => prop_assert!(false, "ratio {}: {:?} vs {:?}", ratio, got, want),
            }
        }

        // Detection reads rows past their end as zero and ignores their
        // tails; ragged rows after the first exercise both.
        let rows: Vec<&[f32]> = owned
            .iter()
            .enumerate()
            .map(|(i, row)| match (ragged && i > 0, i % 3) {
                (true, 1) => &row[..dim - 1],
                (true, 2) => &row[..],
                _ => &row[..dim],
            })
            .collect();
        let got = anomaly_scores(&ids, &rows);
        let want = sorting_reference::anomaly_scores(&ids, &rows);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.client, w.client);
            prop_assert_eq!(g.norm_z.to_bits(), w.norm_z.to_bits(), "norm z of {}", g.client);
            prop_assert_eq!(g.cosine_z.to_bits(), w.cosine_z.to_bits(), "cosine z of {}", g.client);
        }
    }

    #[test]
    fn anomaly_scores_are_bit_identical_to_the_sequential_passes(
        n in prop_oneof![
            0usize..6,
            Just(7usize),
            Just(8usize),
            Just(63usize),
            Just(64usize),
            Just(129usize),
            Just(1000usize),
        ],
        dim in prop_oneof![Just(1usize), 2usize..40, Just(1024usize)],
        zeros_only in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The norm and dot passes interleave four rows and give each worker
        // 2^16 terms (64 rows at dim 1 024), so these cohorts land on both
        // sides of both. Rows are pool values, all `+0.0`, all `-0.0`,
        // short (down to empty) or long. In a cohort of only `+0.0`,
        // `-0.0` and empty rows the mean norm is `+0.0` and an empty row's
        // is `-0.0`, a sign that a sum started from `+0.0` would lose.
        use rand::Rng as _;
        let mut r = rng::seeded(seed);
        let owned: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let kind: u8 = if zeros_only { r.gen_range(1..4) } else { r.gen_range(0..6) };
                let len: usize = match kind {
                    3 if zeros_only => 0,
                    3 => r.gen_range(0..dim),
                    4 => dim + r.gen_range(1usize..4),
                    _ => dim,
                };
                (0..len)
                    .map(|_| match kind {
                        1 => 0.0,
                        2 => -0.0,
                        _ => match r.gen_range(0..5) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => 1.5,
                            3 => -1.5,
                            _ => r.gen_range(-4.0f32..4.0),
                        },
                    })
                    .collect()
            })
            .collect();
        let rows: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let ids: Vec<usize> = (0..n).map(|i| 3 * i + 2).collect();
        let got = anomaly_scores(&ids, &rows);
        let want = sorting_reference::anomaly_scores(&ids, &rows);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.client, w.client);
            prop_assert_eq!(g.norm_z.to_bits(), w.norm_z.to_bits(), "norm z of {}", g.client);
            prop_assert_eq!(g.cosine_z.to_bits(), w.cosine_z.to_bits(), "cosine z of {}", g.client);
        }
    }

    #[test]
    fn clip_norm_enforces_the_cap(
        mut update in prop::collection::vec(-100.0f32..100.0, 1..32),
        max_norm in 0.5f32..10.0,
    ) {
        let before: f32 = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        let clipped = clip_norm(&mut update, max_norm);
        let after: f32 = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!(after <= max_norm * (1.0 + 1e-4), "norm {after} above cap {max_norm}");
        prop_assert_eq!(clipped, before > max_norm, "clip flag disagrees with norms");
        if !clipped {
            prop_assert!((after - before).abs() < 1e-6, "unclipped update was modified");
        }
    }

    #[test]
    fn streaming_sink_canonical_order_is_bit_identical_to_refs(
        updates in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 6), 1..8),
        weights in prop::collection::vec(0.1f32..5.0, 8),
    ) {
        // The bit-identity contract behind the golden checksums: folding in
        // selection-slot order through the cohort-mode sink reproduces the
        // front door's weighted average bit for bit.
        let weights = &weights[..updates.len()];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let expected = aggregate_robust(Aggregator::WeightedAverage, &refs, weights).unwrap();
        let got = cohort_fold(&refs, weights);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert_eq!(g.to_bits(), e.to_bits(), "streaming fold drifted from refs: {} vs {}", g, e);
        }
    }

    #[test]
    fn streaming_sink_fold_order_is_permutation_invariant(
        updates in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 6), 2..8),
        weights in prop::collection::vec(0.1f32..5.0, 8),
        perm_seed in 0u64..1_000,
    ) {
        // Deferred-mode folds commute up to f32 rounding: any arrival order
        // lands within tolerance of the canonical order.
        use rand::Rng as _;
        let weights = &weights[..updates.len()];
        let mut canonical_sink = StreamingWeightedSink::new();
        for (slot, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
            canonical_sink.fold(slot, u, w).unwrap();
        }
        let canonical = canonical_sink.finish().unwrap();

        let mut order: Vec<usize> = (0..updates.len()).collect();
        let mut r = rng::seeded(perm_seed);
        for i in (1..order.len()).rev() {
            let j = r.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut shuffled_sink = StreamingWeightedSink::new();
        for (slot, &i) in order.iter().enumerate() {
            shuffled_sink.fold(slot, &updates[i], weights[i]).unwrap();
        }
        let shuffled = shuffled_sink.finish().unwrap();
        for (a, b) in canonical.iter().zip(shuffled.iter()) {
            prop_assert!(
                (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs())),
                "fold order changed the aggregate beyond f32 tolerance: {} vs {} (order {:?})",
                a, b, order
            );
        }
    }

    #[test]
    fn fault_injector_replays_identically(
        plan_seed in 0u64..10_000,
        run_seed in 0u64..10_000,
        drop_prob in 0.0f32..0.6,
        corrupt_prob in 0.0f32..0.6,
        panic_prob in 0.0f32..0.6,
    ) {
        // Fault decisions are a pure function of (plan, run seed, round,
        // client, attempt): two injectors built from the same inputs must
        // agree on every cell, including the corruption bytes.
        let plan = FaultPlan {
            drop_prob,
            corrupt_prob,
            panic_prob,
            straggle_prob: 0.1,
            seed: plan_seed,
        };
        let a = FaultInjector::for_run(plan.clone(), run_seed);
        let b = FaultInjector::for_run(plan, run_seed);
        for round in 0..4 {
            for client in 0..4 {
                for attempt in 0..3 {
                    let fa = a.decide(round, client, attempt);
                    prop_assert_eq!(fa, b.decide(round, client, attempt));
                    if let Some(calibre_fl::chaos::ClientFault::Corrupt(kind)) = fa {
                        let mut ua = vec![1.0f32; 16];
                        let mut ub = ua.clone();
                        a.corrupt(round, client, attempt, kind, &mut ua);
                        b.corrupt(round, client, attempt, kind, &mut ub);
                        let bits_a: Vec<u32> = ua.iter().map(|v| v.to_bits()).collect();
                        let bits_b: Vec<u32> = ub.iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(bits_a, bits_b, "corruption replay diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn krum_is_permutation_invariant_and_picks_an_input(
        honest in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4), 4..7),
        perm_seed in 0u64..1_000,
    ) {
        // Krum selects an input verbatim, and relabeling the cohort cannot
        // change which update (by value) wins.
        let refs: Vec<&[f32]> = honest.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0f32; refs.len()];
        let out = krum(&refs, &weights, 1).unwrap();
        prop_assert!(refs.contains(&out.as_slice()), "krum invented an update");

        let mut order: Vec<usize> = (0..refs.len()).collect();
        // Deterministic Fisher–Yates from the case seed.
        let mut s = perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            // analyze:allow(lossy-cast) -- test permutation index.
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let permuted: Vec<&[f32]> = order.iter().map(|&i| refs[i]).collect();
        let out_p = krum(&permuted, &weights, 1).unwrap();
        prop_assert_eq!(out, out_p, "permutation changed the krum winner");
    }

    #[test]
    fn geometric_median_is_permutation_invariant_and_in_hull(
        updates in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4), 2..6),
    ) {
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0f32; refs.len()];
        let out = geometric_median(&refs, &weights).unwrap();
        for (j, v) in out.iter().enumerate() {
            let lo = updates.iter().map(|u| u[j]).fold(f32::INFINITY, f32::min);
            let hi = updates.iter().map(|u| u[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(*v >= lo - 1e-3 && *v <= hi + 1e-3, "coord {j}: {v} outside [{lo}, {hi}]");
        }
        let reversed: Vec<&[f32]> = refs.iter().rev().copied().collect();
        let out_r = geometric_median(&reversed, &weights).unwrap();
        for (a, b) in out.iter().zip(out_r.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "permutation moved the median: {a} vs {b}");
        }
    }

    #[test]
    fn attack_injector_replays_identically(
        plan_seed in 0u64..10_000,
        run_seed in 0u64..10_000,
        flip in 0.0f32..0.5,
        scale in 0.0f32..0.5,
        noise in 0.0f32..0.5,
        collude in 0.0f32..0.5,
    ) {
        use calibre_fl::{AttackInjector, AttackPlan};
        // Attack decisions and payloads are pure functions of
        // (plan, run seed, round, client): two injectors from the same
        // inputs replay bit-identically, which is what makes the
        // in-process and socket paths agree.
        let plan = AttackPlan {
            flip_prob: flip,
            scale_prob: scale,
            noise_prob: noise,
            collude_prob: collude,
            seed: plan_seed,
            ..AttackPlan::default()
        };
        let a = AttackInjector::for_run(plan.clone(), run_seed);
        let b = AttackInjector::for_run(plan, run_seed);
        for round in 0..4 {
            for client in 0..4 {
                let ka = a.decide(round, client);
                prop_assert_eq!(ka, b.decide(round, client));
                if let Some(kind) = ka {
                    let mut ua: Vec<f32> = (0..16).map(|i| (i as f32) * 0.25 - 2.0).collect();
                    let mut ub = ua.clone();
                    a.apply(round, client, kind, &mut ua);
                    b.apply(round, client, kind, &mut ub);
                    let bits_a: Vec<u32> = ua.iter().map(|v| v.to_bits()).collect();
                    let bits_b: Vec<u32> = ub.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(bits_a, bits_b, "attack replay diverged");
                    prop_assert!(ua.iter().all(|v| v.is_finite()), "attack produced non-finite values");
                }
            }
        }
    }
}

// The round engine against a reference computed here: every selected
// client lands in exactly one of accepted/dropped/rejected, the quorum gate
// is exact, replays are bit-identical, and a chaos- and attack-free round
// folds the weighted mean of its cohort. Under chaos, every dropped or
// rejected client gets exactly one detected `fault` event with its tag,
// stragglers and finite corruptions are reported undetected unless the norm
// clip bit, and every folded update respects the clip.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transport_round_accounts_for_every_client_and_folds_the_weighted_mean(
        seed in 0u64..10_000,
        cohort in 1usize..64,
        wave in 1usize..16,
        min_quorum in 0usize..72,
        dim in 1usize..9,
        (drop, corrupt) in prop_oneof![Just((0.0f32, 0.0f32)), (0.0f32..0.5, 0.0f32..0.5)],
        (flip, scale) in prop_oneof![Just((0.0f32, 0.0f32)), (0.0f32..0.3, 0.0f32..0.3)],
        (panic, straggle) in prop_oneof![Just((0.0f32, 0.0f32)), (0.0f32..0.3, 0.0f32..0.3)],
        clip in prop_oneof![Just(None), (0.5f32..5.0).prop_map(Some)],
    ) {
        use calibre_fl::chaos::ClientFault;
        use calibre_fl::sampler::{Sampler, SamplerKind};
        use calibre_fl::transport::{InProcessTransport, StreamUpdate};
        use calibre_fl::{AttackPlan, Fold, RoundPolicy, RoundScheduler};
        use calibre_telemetry::{Event, MemoryRecorder};

        const ROUNDS: usize = 3;
        let weight_of = |client: usize| 1.0 + (client % 5) as f32;
        let update_of = |round: usize, client: usize, global: &[f32]| -> Vec<f32> {
            global
                .iter()
                .enumerate()
                .map(|(d, g)| 0.5 * g + ((client * 31 + d * 7 + round) % 13) as f32 * 0.25 - 1.5)
                .collect()
        };
        let global: Vec<f32> = (0..dim).map(|d| d as f32 * 0.5 - 1.0).collect();
        let plan = FaultPlan {
            drop_prob: drop,
            corrupt_prob: corrupt,
            panic_prob: panic,
            straggle_prob: straggle,
            seed,
        };
        let run = || {
            let recorder = MemoryRecorder::new();
            let scheduler = RoundScheduler::sampled(
                Sampler::new(SamplerKind::Uniform, seed),
                cohort * 2,
                cohort,
                ROUNDS,
            )
            .with_policy(RoundPolicy {
                min_quorum,
                clip_norm: clip,
                ..RoundPolicy::default()
            })
            .with_chaos(plan.clone(), seed)
            .with_attack(
                AttackPlan {
                    flip_prob: flip,
                    scale_prob: scale,
                    seed,
                    ..AttackPlan::default()
                },
                seed,
            );
            let mut transport = InProcessTransport::new(|round, client, global: &[f32]| {
                StreamUpdate {
                    update: update_of(round, client, global),
                    weight: weight_of(client),
                    loss: 0.0,
                    divergence: 0.0,
                }
            });
            let rounds = (0..ROUNDS)
                .map(|round| {
                    let selected = scheduler.select(round, None);
                    let mut sink = FoldLog::default();
                    let out = scheduler
                        .run_round(
                            round,
                            &selected,
                            wave,
                            &global,
                            Fold::Stream(&mut sink),
                            &mut transport,
                            &recorder,
                        )
                        .expect("the in-process transport cannot fail");
                    (selected, out, sink.folds)
                })
                .collect::<Vec<_>>();
            (rounds, recorder.events())
        };

        let (rounds, events) = run();
        let (replay, _) = run();
        let clean = drop == 0.0 && corrupt == 0.0 && flip == 0.0 && scale == 0.0;
        let clean = clean && panic == 0.0 && clip.is_none();
        let injector = FaultInjector::for_run(plan, seed);
        // The policy treats a quorum of 0 as 1: an empty round never folds.
        let quorum = min_quorum.max(1);
        for (round, ((selected, out, folds), (_, again, _))) in rounds.iter().zip(&replay).enumerate() {
            prop_assert_eq!(out.cohort, cohort);
            prop_assert_eq!(out.accepted + out.dropped + out.rejected, cohort, "round {}", round);
            prop_assert_eq!(out.skipped, out.accepted < quorum, "round {}", round);
            let bits = |v: &Option<Vec<f32>>| {
                v.as_ref().map(|u| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            };
            prop_assert_eq!(
                (out.accepted, out.dropped, out.rejected, out.skipped),
                (again.accepted, again.dropped, again.rejected, again.skipped)
            );
            prop_assert_eq!(bits(&out.aggregated), bits(&again.aggregated), "replay diverged");
            if let Some(agg) = &out.aggregated {
                prop_assert_eq!(agg.len(), dim);
                prop_assert!(agg.iter().all(|v| v.is_finite()), "non-finite aggregate {:?}", agg);
            }
            if clean {
                prop_assert_eq!((out.accepted, out.dropped, out.rejected), (cohort, 0, 0));
                let total: f32 = selected.iter().map(|&c| weight_of(c)).sum();
                if let Some(agg) = &out.aggregated {
                    for (d, got) in agg.iter().enumerate() {
                        let want = selected
                            .iter()
                            .map(|&c| weight_of(c) * update_of(round, c, &global)[d])
                            .sum::<f32>()
                            / total;
                        prop_assert!(
                            (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                            "round {} coord {}: {} vs {}", round, d, got, want
                        );
                    }
                }
            }

            // The sink saw exactly the accepted clients, by id, in fold
            // order, and every folded update respects the clip.
            let folded: Vec<usize> = folds.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(&folded, &out.clients, "round {}", round);
            prop_assert_eq!(out.clients.len(), out.accepted);
            if let Some(max_norm) = clip {
                for (id, update) in folds {
                    let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
                    prop_assert!(
                        norm <= max_norm * (1.0 + 1e-4),
                        "round {} client {}: folded norm {} above clip {}", round, id, norm, max_norm
                    );
                }
            }

            // One detected fault per client the engine did not fold, with
            // its tag; folded stragglers and finite corruptions are
            // reported undetected (a corruption is detected when the clip
            // bit, which only a clipping policy allows).
            let mut faults: Vec<(usize, &str, bool)> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Fault { round: r, client, attempt: 0, kind, detected } if *r == round => {
                        Some((*client, *kind, *detected))
                    }
                    _ => None,
                })
                .collect();
            faults.sort_by_key(|f| f.0);
            let mut expected: Vec<(usize, &str, Option<bool>)> = Vec::new();
            for &id in selected {
                let folded = out.clients.contains(&id);
                expected.push(match injector.decide(round, id, 0) {
                    Some(ClientFault::Straggle) if folded => (id, "straggle", Some(false)),
                    Some(ClientFault::Corrupt(kind)) if folded => {
                        (id, kind.kind_tag(), clip.is_none().then_some(false))
                    }
                    _ if folded => continue,
                    Some(ClientFault::Dropout) => (id, "dropout", Some(true)),
                    Some(ClientFault::PanicMidUpdate) => (id, "panic", Some(true)),
                    Some(ClientFault::Corrupt(kind)) => (id, kind.kind_tag(), Some(true)),
                    _ => (id, "invalid", Some(true)),
                });
            }
            expected.sort_by_key(|f| f.0);
            prop_assert_eq!(faults.len(), expected.len(), "round {}: {:?}", round, faults);
            for (&(id, kind, detected), &(want_id, want_kind, want)) in faults.iter().zip(&expected) {
                prop_assert_eq!((id, kind), (want_id, want_kind), "round {}", round);
                prop_assert!(want.is_none_or(|w| w == detected), "round {} client {}", round, id);
            }
        }
    }
}

/// Forwards to a deferred weighted sink and logs every fold's `client`
/// argument and update.
#[derive(Default)]
struct FoldLog {
    inner: StreamingWeightedSink,
    folds: Vec<(usize, Vec<f32>)>,
}

impl UpdateSink for FoldLog {
    fn fold(&mut self, client: usize, update: &[f32], weight: f32) -> Result<(), AggregateError> {
        self.folds.push((client, update.to_vec()));
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

// Whole-training chaos runs are orders of magnitude slower than the pure
// aggregation properties above, so they get their own small-case block.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_training_never_panics_and_stays_finite(seed in 0u64..1_000) {
        use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
        use calibre_fl::pfl_ssl::train_pfl_ssl_encoder;
        use calibre_fl::{FlConfig, RoundPolicy};
        use calibre_ssl::SslKind;

        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 3,
                train_per_client: 40,
                test_per_client: 10,
                unlabeled_per_client: 0,
                non_iid: NonIid::Dirichlet { alpha: 0.3 },
                seed: 11,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 10;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 1;
        cfg.batch_size = 16;
        cfg.seed = seed;
        cfg.chaos = FaultPlan {
            drop_prob: 0.3,
            corrupt_prob: 0.2,
            panic_prob: 0.1,
            straggle_prob: 0.1,
            seed,
        };
        cfg.policy = RoundPolicy {
            min_quorum: 2,
            ..RoundPolicy::default()
        };
        let (encoder, losses) =
            train_pfl_ssl_encoder(&fed, &cfg, SslKind::SimClr, &AugmentConfig::default());
        prop_assert_eq!(losses.len(), cfg.rounds);
        prop_assert!(losses.iter().all(|l| l.is_finite()), "loss went non-finite: {:?}", losses);
        prop_assert!(
            encoder.to_flat().iter().all(|v| v.is_finite()),
            "global encoder picked up a non-finite parameter"
        );
    }
}

#[test]
fn sample_count_weights_preserve_ratios() {
    // Sample counts weight the average: only their ratios matter, bit for
    // bit, and a client with no samples contributes nothing.
    let updates = [vec![3.0, -1.0], vec![6.0, 2.0], vec![100.0, 100.0]];
    let counts = weighted_average(&updates, &[5.0, 10.0, 0.0]);
    assert_eq!(counts, weighted_average(&updates, &[1.0, 2.0, 0.0]));
    for (got, want) in counts.iter().zip([5.0f32, 1.0]) {
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }
}

/// The median selects only where every partial sum is exact in any order.
/// Two weightings round where a selection would not: integers whose
/// slot-order total rounds to exactly 2^24, and the same weights halved,
/// half-integers whose total rounds to 2^23. Both must walk. Even cohorts
/// past the sorted window make a selection sum the upper half and take the
/// lower half's weight from the rounded total, one short, so it would stop
/// one slot late.
#[test]
fn the_median_walks_wherever_a_sum_can_round() {
    for n in [18usize, 40] {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..5)
                    .map(|j| 10.0 * i as f32 + j as f32 * 0.25 - 0.5)
                    .collect()
            })
            .collect();
        let updates: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let integers = at_the_exactness_bound(n);
        let halves: Vec<f32> = integers.iter().map(|w| w * 0.5).collect();
        for weights in [integers, halves] {
            let median = coordinate_median(&updates, &weights).unwrap();
            assert_eq!(
                median,
                sorting_reference::coordinate_median(&updates, &weights)
            );
            assert_eq!(
                median,
                rows[n / 2 - 1],
                "n {n}: the crossing is slot n/2 - 1"
            );
        }
    }
}

/// 2^24: below it every sum of non-negative integer weights is exact.
const EXACT: u32 = 1 << 24;

/// `n` integer weights whose slot-order `f32` total rounds from 2^24 + 1
/// to 2^24 on its last add, and whose first `n / 2` weigh exactly 2^23,
/// half that total: with values rising by slot, every column's median is
/// the value of slot `n / 2 - 1`. Fewer than five slots get weights that
/// merely sum past 2^24.
fn at_the_exactness_bound(n: usize) -> Vec<f32> {
    let half = EXACT / 2;
    let k = n / 2;
    let rest = n.saturating_sub(k + 1);
    if n < 5 {
        let mut w = vec![(EXACT - 1) as f32, 2.0, 1.0, 1.0];
        w.truncate(n.max(1));
        if n == 1 {
            w[0] = EXACT as f32;
        }
        return w;
    }
    // Lower half: 2^23 exactly. The pivot slot weighs one; the rest bring
    // the slot-order sum to 2^24 - 1 before a last weight of two.
    let mut w = vec![1.0f32; n];
    w[0] = (half - (k as u32 - 1)) as f32;
    w[k + 1] = (half - 2 - (rest as u32 - 2)) as f32;
    w[n - 1] = 2.0;
    w
}

/// The per-coordinate sorting loops the aggregation column kernel replaced,
/// kept as bit-for-bit references for it.
mod sorting_reference {
    use calibre_fl::adversary::AnomalyScore;

    /// Weighted trimmed mean; `None` where the trims consume the cohort.
    pub fn trimmed_mean(updates: &[&[f32]], weights: &[f32], ratio: f32) -> Option<Vec<f32>> {
        let n = updates.len();
        let trim = (ratio * n as f32).ceil() as usize;
        if trim > 0 && n.saturating_sub(2 * trim) == 0 {
            return None;
        }
        let dim = updates[0].len();
        let hi = n - trim;
        let mut column: Vec<(f32, f32)> = Vec::with_capacity(n);
        let out = (0..dim)
            .map(|j| {
                column.clear();
                column.extend(updates.iter().zip(weights).map(|(u, &w)| (u[j], w)));
                column.sort_by(|a, b| a.0.total_cmp(&b.0));
                let kept = &column[trim..hi];
                let total: f32 = kept.iter().map(|(_, w)| w).sum();
                let uniform = 1.0 / kept.len().max(1) as f32;
                kept.iter()
                    .map(|(v, w)| v * if total > 0.0 { w / total } else { uniform })
                    .sum()
            })
            .collect();
        Some(out)
    }

    /// Weighted median: the first sorted value whose cumulative weight
    /// reaches half the total (uniform weights for a non-positive total).
    pub fn coordinate_median(updates: &[&[f32]], weights: &[f32]) -> Vec<f32> {
        let n = updates.len();
        let total: f32 = weights.iter().sum();
        let uniform = total <= 0.0;
        let full: f32 = if uniform { n as f32 } else { total };
        let mut column: Vec<(f32, f32)> = Vec::with_capacity(n);
        (0..updates[0].len())
            .map(|j| {
                column.clear();
                column.extend(
                    updates
                        .iter()
                        .zip(weights)
                        .map(|(u, &w)| (u[j], if uniform { 1.0 } else { w })),
                );
                column.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut acc = 0.0f32;
                let mut median = column.last().map(|c| c.0).unwrap_or(0.0);
                for &(v, w) in column.iter() {
                    acc += w;
                    if acc >= full * 0.5 {
                        median = v;
                        break;
                    }
                }
                median
            })
            .collect()
    }

    fn l2_norm(v: &[f32]) -> f32 {
        v.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// The unweighted median of every zero-filled column, by sorting it:
    /// the mean of the two middle values for an even count.
    pub fn column_medians(updates: &[&[f32]]) -> Vec<f32> {
        let n = updates.len();
        let dim = updates.first().map_or(0, |u| u.len());
        let mut col = Vec::with_capacity(n);
        (0..dim)
            .map(|d| {
                col.clear();
                col.extend(updates.iter().map(|u| u.get(d).copied().unwrap_or(0.0)));
                col.sort_unstable_by(|a, b| a.total_cmp(b));
                let hi = col[n / 2];
                if n % 2 == 1 {
                    hi
                } else {
                    0.5 * (col[n / 2 - 1] + hi)
                }
            })
            .collect()
    }

    /// Anomaly scores as one sequential pass computed them, against a
    /// reference median built by sorting every zero-filled column.
    pub fn anomaly_scores(ids: &[usize], updates: &[&[f32]]) -> Vec<AnomalyScore> {
        let n = ids.len().min(updates.len());
        anomaly_scores_against(ids, updates, &column_medians(&updates[..n]))
    }

    /// [`anomaly_scores`] against a given reference median.
    pub fn anomaly_scores_against(
        ids: &[usize],
        updates: &[&[f32]],
        median: &[f32],
    ) -> Vec<AnomalyScore> {
        let n = ids.len().min(updates.len());
        if n < 3 {
            return ids
                .iter()
                .take(n)
                .map(|&client| AnomalyScore {
                    client,
                    norm_z: 0.0,
                    cosine_z: 0.0,
                })
                .collect();
        }
        let med_norm = l2_norm(median).max(1e-12);
        let norms: Vec<f32> = updates.iter().take(n).map(|u| l2_norm(u)).collect();
        let cosines: Vec<f32> = updates
            .iter()
            .take(n)
            .zip(&norms)
            .map(|(u, &un)| {
                let dot: f32 = u.iter().zip(median).map(|(a, b)| a * b).sum();
                dot / (un.max(1e-12) * med_norm)
            })
            .collect();
        let z = |xs: &[f32]| -> (f32, f32) {
            let m = xs.iter().sum::<f32>() / n as f32;
            let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / n as f32;
            (m, var.sqrt().max(1e-6))
        };
        let (nm, ns) = z(&norms);
        let (cm, cs) = z(&cosines);
        ids.iter()
            .take(n)
            .zip(norms.iter().zip(&cosines))
            .map(|(&client, (&norm, &cosine))| AnomalyScore {
                client,
                norm_z: (norm - nm) / ns,
                cosine_z: (cosine - cm) / cs,
            })
            .collect()
    }
}
