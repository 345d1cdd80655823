//! Pins the bytes a round's aggregation path holds and the bits it
//! produces, for the robust and detected rounds `cohort_robust` runs, at
//! shapes a debug build runs in seconds.
//!
//! Each serve run is configured as perfbench's `cohort_robust` is: seeded
//! attack and chaos plans, a population ten times the cohort, and waves of
//! a quarter of it. The peak is the process-wide
//! `calibre_sink_peak_state_bytes` gauge, so this file holds one test: no
//! other test in its process touches the registry.

use calibre_fl::adversary::AttackPlan;
use calibre_fl::aggregate::Aggregator;
use calibre_fl::chaos::FaultPlan;
use calibre_fl::proto::model_checksum;
use calibre_fl::sampler::{Sampler, SamplerKind};
use calibre_fl::serve::{run_in_process, sim_update, ServeConfig};
use calibre_fl::transport::InProcessTransport;
use calibre_fl::{Fold, RoundPolicy, RoundScheduler};
use calibre_telemetry::{metrics, NullRecorder};

/// The seed-derived attack plan of `cohort_robust`.
fn attack(seed: u64) -> AttackPlan {
    AttackPlan {
        flip_prob: 0.05,
        scale_prob: 0.05,
        scale_factor: -8.0,
        seed: seed ^ 0xA77A_C4ED,
        ..AttackPlan::default()
    }
}

/// The seed-derived client chaos plan of `cohort_robust`.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_prob: 0.03,
        corrupt_prob: 0.02,
        seed: seed ^ 0xC4A0_5EED,
        ..FaultPlan::default()
    }
}

/// A three-round serve run shaped as `cohort_robust`.
fn config(
    (cohort, dim, seed): (usize, usize, u64),
    aggregator: Aggregator,
    detect: bool,
    min_quorum: usize,
) -> ServeConfig {
    ServeConfig {
        population: 10 * cohort,
        cohort,
        rounds: 3,
        dim,
        wave: cohort / 4,
        seed,
        policy: RoundPolicy {
            aggregator,
            min_quorum,
            ..RoundPolicy::default()
        },
        attack: attack(seed),
        chaos: chaos(seed),
        detect,
        ..ServeConfig::smoke()
    }
}

/// The run's peak held bytes, its final model's checksum and its skipped
/// rounds.
fn peak_and_checksum(cfg: &ServeConfig) -> (usize, u64, usize) {
    metrics::global().reset();
    let out = run_in_process(cfg, &NullRecorder).expect("an in-process run cannot fail");
    let peak = metrics::global()
        .gauge_value("calibre_sink_peak_state_bytes", &[])
        .expect("every round sets the peak gauge");
    (peak as usize, out.checksum, out.skipped_rounds)
}

/// One trimmed-mean round of `cohort` clients through a reservoir of
/// `capacity` updates: its peak held bytes and its aggregate's checksum.
fn reservoir_round(cohort: usize, dim: usize, capacity: usize, seed: u64) -> (usize, u64) {
    let scheduler = RoundScheduler::sampled(
        Sampler::new(SamplerKind::Uniform, seed),
        10 * cohort,
        cohort,
        1,
    )
    .with_policy(RoundPolicy {
        aggregator: Aggregator::TrimmedMean(0.1),
        ..RoundPolicy::default()
    })
    .with_chaos(chaos(seed), seed)
    .with_attack(attack(seed), seed);
    let selected = scheduler.select(0, None);
    let global = vec![0.25f32; dim];
    let mut transport = InProcessTransport::new(move |round, client, global: &[f32]| {
        sim_update(seed, round, client, global)
    });
    let fold = Fold::Hold { capacity, seed };
    let out = scheduler
        .run_round(
            0,
            &selected,
            capacity / 2,
            &global,
            fold,
            &mut transport,
            &NullRecorder,
        )
        .expect("the in-process transport cannot fail");
    let aggregate = out.aggregated.expect("the round meets its quorum of one");
    (out.peak_state_bytes, model_checksum(&aggregate))
}

#[test]
fn held_bytes_and_checksums_are_pinned() {
    metrics::set_enabled(true);
    let small = (40, 64, 2);
    let median = Aggregator::CoordinateMedian;
    let weighted = Aggregator::WeightedAverage;
    // (shape, aggregator, detect, quorum) → (peak bytes, checksum, skipped).
    // A held round's peak counts the engine's hold: each held buffer's
    // capacity, its spine (24 B a slot), its weights (4 B a slot) and its
    // 96-byte struct, 24 B less than the sink that held these rounds
    // before, whose struct also carried its aggregator (12 152 → 12 128,
    // 1 368 → 1 344). Detection beside the weighted sink holds the round
    // too, so at 40 × 64 it counts a spine and weights of 64 slots and the
    // struct over the updates' bytes: 64 × 24 + 64 × 4 + 96 = 1 888 B more
    // than the bare copies detection kept before (10 552 → 12 440).
    let cases = [
        ((small, median, true, 1), (12_128, 0x90b4_23cd_c489_43cf, 0)),
        (
            (small, median, false, 1),
            (12_128, 0x90b4_23cd_c489_43cf, 0),
        ),
        (
            (small, weighted, true, 1),
            (12_440, 0x2901_e70b_5a1d_04bd, 0),
        ),
        (
            (small, weighted, false, 1),
            (2_872, 0x2901_e70b_5a1d_04bd, 0),
        ),
        (
            (small, median, true, 64),
            (12_128, 0x34a6_f514_0ccf_e244, 3),
        ),
        (
            ((8, 32, 1), median, true, 1),
            (1_344, 0x2be6_a7e0_6147_a890, 0),
        ),
    ];
    for ((shape, aggregator, detect, quorum), want) in cases {
        let case = format!("{shape:?}, {aggregator:?}, detect {detect}, quorum {quorum}");
        let got = peak_and_checksum(&config(shape, aggregator, detect, quorum));
        assert_eq!(got, want, "{case}: (peak, checksum, skipped)");
    }

    // Past its capacity the reservoir samples: 100 clients through 16
    // slots, in waves of 8. The peak is 16 held updates of 128 B (2 048),
    // their spine (16 × 24) and weights (16 × 4), the hold's struct (96),
    // and a wave's 8 buffers the reservoir passed over or displaced and
    // gave back (1 024): 24 B below the sink's 3 640, for the same struct
    // field.
    assert_eq!(
        reservoir_round(100, 32, 16, 5),
        (3_616, 0xcb9e_2076_14b1_8b98),
        "reservoir round: (peak, checksum)"
    );
}
