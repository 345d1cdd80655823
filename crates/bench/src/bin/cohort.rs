//! Massive-cohort scaling sweep: streaming rounds over 1k → 100k simulated
//! clients on a small real worker pool.
//!
//! Each sweep point samples a cohort from a twice-as-large population with a
//! seeded [`Sampler`], runs `--rounds` sink-fed rounds through
//! [`RoundScheduler::run_round`] over an [`InProcessTransport`]
//! (updates are synthesized per client — no real SSL training, this
//! measures the *aggregation path*), and reports rounds/sec plus the peak
//! bytes the aggregation path held.
//! The point of the sweep: peak aggregation memory stays O(model) — flat
//! across cohort sizes — instead of the O(cohort × model) a
//! collect-then-aggregate round pays. See `DESIGN.md` §11 and the
//! "Massive cohorts" section of `EXPERIMENTS.md`.
//!
//! ```text
//! cohort [--smoke] [--cohorts 1000,10000,100000] [--rounds 5] [--dim 1024]
//!        [--wave 64] [--groups 0] [--sampler uniform|importance|divergence]
//!        [--chaos <spec>] [--min-quorum n] [--aggregator weighted|median|trimmed[:r]]
//!        [--telemetry out.jsonl] [--trace t.json] [--profile p.json]
//!        [--metrics-addr host:port] [--metrics-snapshot out.prom]
//! ```
//!
//! `--groups N` folds into a hierarchical weighted sink, so it takes no
//! `--aggregator` but `weighted`. With a robust `--aggregator`, the engine
//! holds each round in a reservoir of `4 × --wave` updates.
//!
//! `--smoke` runs a reduced sweep and asserts the committed peak-memory
//! bound — the CI step that keeps the sink-fed path honest — plus a
//! reservoir gate that holds the *corrected* accounting (sample buffer
//! included) to a shape-derived bound. `--mega` runs a single
//! non-gating 1M-client round (one point, no committed bound — it exists
//! to record the million-client peak-memory row in `EXPERIMENTS.md`).
//! `--metrics-addr` serves `/metrics` and `/status` live while the sweep
//! runs; `--metrics-snapshot` writes a final self-scrape of `/metrics` to
//! a file.

use calibre_bench::obs::ObsArgs;
use calibre_bench::{exit_bad_value, parse_args_or_exit};
use calibre_fl::aggregate::{Aggregator, HierarchicalSink, StreamingWeightedSink, UpdateSink};
use calibre_fl::sampler::{Sampler, SamplerKind};
use calibre_fl::scheduler::{Fold, RoundPolicy, RoundScheduler};
use calibre_fl::transport::{InProcessTransport, StreamUpdate};
use calibre_telemetry::metrics;
use std::time::Instant;

/// Committed peak-memory bound for the smoke sweep (`--smoke`), in bytes:
/// sink state + one in-flight wave for the smoke shape
/// (dim 256, wave 64), with headroom for struct overhead. CI fails if the
/// sink-fed path regresses past this.
const SMOKE_PEAK_BOUND_BYTES: usize = 256 * 1024;

/// Peak resident set size of this process in bytes (Linux `VmHWM`), 0 when
/// the platform does not expose it.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let rest = l.strip_prefix("VmHWM:")?;
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                Some(kb * 1024)
            })
        })
        .unwrap_or(0)
}

/// Deterministic simulated client reply: a cheap splitmix64-seeded fill,
/// so the sweep measures the aggregation path, not an RNG. The model's
/// values are ignored; its length sets the update's.
fn simulated_update(round: usize, client: usize, global: &[f32]) -> StreamUpdate {
    let mut x = (round as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(client as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        | 1;
    let mut update = Vec::with_capacity(global.len());
    for _ in 0..global.len() {
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        // Map the top 24 bits into [-1, 1).
        update.push((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0);
    }
    StreamUpdate {
        update,
        weight: 1.0 + (client % 16) as f32,
        loss: 0.0,
        divergence: 0.0,
    }
}

/// Smoke-only gate for the *corrected* reservoir accounting: the hold's
/// retained sample buffer is real aggregation state, so the peak counts
/// its capacity. The peak must stay flat across cohort sizes and under a
/// bound derived purely from the reservoir's shape — `capacity` retained
/// samples plus their spine, the weight buffer, one in-flight wave, and
/// fixed headroom for struct overhead. A cohort-sized term appearing here
/// means the reservoir started scaling with the cohort again.
fn reservoir_gate(sweep: &SweepConfig) {
    let capacity = sweep.wave * 4;
    let sample_bytes = capacity * sweep.dim * std::mem::size_of::<f32>();
    let spine_bytes = capacity * std::mem::size_of::<Vec<f32>>();
    let weight_bytes = (capacity + 1) * std::mem::size_of::<f32>();
    let wave_bytes = sweep.wave * sweep.dim * std::mem::size_of::<f32>();
    let bound = sample_bytes + spine_bytes + weight_bytes + wave_bytes + 64 * 1024;

    let mut peaks: Vec<usize> = Vec::new();
    for &cohort in &[1_000usize, 5_000] {
        let scheduler = RoundScheduler::sampled(
            Sampler::new(sweep.sampler, sweep.seed),
            cohort * 2,
            cohort,
            1,
        )
        .with_policy(RoundPolicy {
            aggregator: Aggregator::TrimmedMean(0.1),
            ..RoundPolicy::default()
        });
        let selected = scheduler.select(0, None);
        let out = scheduler
            .run_round(
                0,
                &selected,
                sweep.wave,
                &vec![0.0; sweep.dim],
                Fold::Hold {
                    capacity,
                    seed: sweep.seed,
                },
                &mut InProcessTransport::new(simulated_update),
                &calibre_telemetry::NullRecorder,
            )
            .expect("the in-process transport cannot fail");
        peaks.push(out.peak_state_bytes);
    }
    let (min_peak, max_peak) = match (peaks.iter().min(), peaks.iter().max()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => unreachable!("gate always runs at least one cohort"),
    };
    assert_eq!(
        min_peak, max_peak,
        "reservoir peak must be flat across cohort sizes, got {peaks:?}"
    );
    assert!(
        max_peak <= bound,
        "reservoir peak {max_peak} B exceeds the shape-derived bound {bound} B \
         (capacity {capacity}, dim {})",
        sweep.dim
    );
    println!("reservoir gate: corrected peak {max_peak} B <= shape bound {bound} B, flat");
}

struct SweepConfig {
    cohorts: Vec<usize>,
    rounds: usize,
    dim: usize,
    wave: usize,
    groups: usize,
    sampler: SamplerKind,
    seed: u64,
    smoke: bool,
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let mega = argv.iter().any(|a| a == "--mega");
    argv.retain(|a| a != "--mega");

    let mut sweep = SweepConfig {
        cohorts: if mega {
            // Non-gating million-client point: one round, no committed
            // bound — the flatness claim is carried by the regular sweep.
            vec![1_000_000]
        } else if smoke {
            vec![1_000, 5_000, 10_000]
        } else {
            vec![1_000, 10_000, 100_000]
        },
        rounds: if mega {
            1
        } else if smoke {
            2
        } else {
            5
        },
        dim: if smoke { 256 } else { 1_024 },
        wave: 64,
        groups: 0,
        sampler: SamplerKind::Uniform,
        seed: 7,
        smoke,
    };
    let parsed = parse_args_or_exit(&argv);
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "cohorts" => {
                sweep.cohorts = value
                    .split(',')
                    .map(|c| c.trim().parse().expect("--cohorts must be integers"))
                    .collect();
            }
            "rounds" => sweep.rounds = value.parse().expect("--rounds must be an integer"),
            "dim" => sweep.dim = value.parse().expect("--dim must be an integer"),
            "wave" => sweep.wave = value.parse().expect("--wave must be an integer"),
            "groups" => sweep.groups = value.parse().expect("--groups must be an integer"),
            "sampler" => {
                sweep.sampler = SamplerKind::parse(&value).unwrap_or_else(|| {
                    panic!("unknown --sampler {value:?} (uniform|importance|divergence)")
                });
            }
            "seed" => sweep.seed = value.parse().expect("--seed must be an integer"),
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(agg) = obs_args
        .aggregator
        .filter(|&a| sweep.groups > 0 && a != Aggregator::WeightedAverage)
    {
        let why =
            "--groups folds into a hierarchical weighted sink; robust aggregators need --groups 0";
        exit_bad_value("aggregator", &agg.name(), why);
    }
    let obs = obs_args.clone().build();
    println!(
        "== cohort scaling sweep: dim {}, wave {}, {} rounds/point, sampler {}, groups {} ==",
        sweep.dim,
        sweep.wave,
        sweep.rounds,
        sweep.sampler.name(),
        sweep.groups
    );
    println!(
        "{:>10} {:>9} {:>9} {:>12} {:>16} {:>12}",
        "cohort", "accepted", "dropped", "rounds/sec", "peak-agg-bytes", "peak-rss-MiB"
    );

    let mut peaks: Vec<usize> = Vec::with_capacity(sweep.cohorts.len());
    for &cohort in &sweep.cohorts {
        // Sampling composes with streaming: each round draws `cohort`
        // clients from a population twice that size.
        let population = cohort * 2;
        let mut scheduler = RoundScheduler::sampled(
            Sampler::new(sweep.sampler, sweep.seed),
            population,
            cohort,
            sweep.rounds,
        );
        if let Some(plan) = &obs_args.chaos {
            scheduler = scheduler.with_chaos(plan.clone(), sweep.seed);
        }
        let mut policy = *scheduler.policy();
        if let Some(q) = obs_args.min_quorum {
            policy.min_quorum = q;
        }
        if let Some(agg) = obs_args.aggregator {
            policy.aggregator = agg;
        }
        let scheduler = scheduler.with_policy(policy);

        let mut peak_state = 0usize;
        let mut accepted = 0usize;
        let mut dropped = 0usize;
        // A zero model of `--dim`: the simulated clients read only its length.
        let global = vec![0.0f32; sweep.dim];
        let mut clients = InProcessTransport::new(simulated_update);
        let started = Instant::now();
        for round in 0..scheduler.rounds() {
            let selected = scheduler.select(round, None);
            let mut sink: Box<dyn UpdateSink> = if sweep.groups > 0 {
                Box::new(HierarchicalSink::new(sweep.groups, sweep.seed))
            } else {
                Box::new(StreamingWeightedSink::new())
            };
            let fold = if policy.aggregator == Aggregator::WeightedAverage {
                Fold::Stream(sink.as_mut())
            } else {
                // Reservoir capacity for the robust variants: bounded, far
                // below the cohort.
                Fold::Hold {
                    capacity: sweep.wave * 4,
                    seed: sweep.seed,
                }
            };
            let out = scheduler
                .run_round(
                    round,
                    &selected,
                    sweep.wave,
                    &global,
                    fold,
                    &mut clients,
                    obs.recorder(),
                )
                .expect("the in-process transport cannot fail");
            peak_state = peak_state.max(out.peak_state_bytes);
            accepted += out.accepted;
            dropped += out.dropped + out.rejected;
            assert_eq!(
                out.accepted + out.dropped + out.rejected,
                out.cohort,
                "every selected client must be accounted for"
            );
        }
        let elapsed = started.elapsed().as_secs_f64();
        let rounds_per_sec = sweep.rounds as f64 / elapsed.max(1e-9);
        let rss = peak_rss_bytes();
        obs.recorder().cohort_point(
            cohort,
            sweep.dim,
            sweep.groups,
            sweep.rounds,
            rounds_per_sec,
            peak_state as u64,
            rss,
        );
        println!(
            "{:>10} {:>9} {:>9} {:>12.2} {:>16} {:>12.1}",
            cohort,
            accepted,
            dropped,
            rounds_per_sec,
            peak_state,
            rss as f64 / (1024.0 * 1024.0)
        );
        // Live-export view of the sweep (inert without --metrics-addr).
        let cohort_label = cohort.to_string();
        metrics::gauge_set(
            "calibre_cohort_rounds_per_sec",
            &[("cohort", &cohort_label)],
            rounds_per_sec,
        );
        metrics::gauge_max("calibre_cohort_peak_state_bytes", &[], peak_state as f64);
        peaks.push(peak_state);
    }

    // The scaling claim itself: peak aggregation memory does not grow with
    // the cohort. Every sweep shape (same dim/wave/groups per run) must
    // hold it, smoke or full.
    if let (Some(&min_peak), Some(&max_peak)) = (peaks.iter().min(), peaks.iter().max()) {
        assert!(
            max_peak == min_peak,
            "peak aggregation memory must be flat across cohort sizes, got {peaks:?}"
        );
        if sweep.smoke {
            assert!(
                max_peak <= SMOKE_PEAK_BOUND_BYTES,
                "smoke peak {max_peak} B exceeds the committed bound {SMOKE_PEAK_BOUND_BYTES} B"
            );
            println!(
                "smoke gate: peak {max_peak} B <= committed bound {SMOKE_PEAK_BOUND_BYTES} B, \
                 flat across {:?}",
                sweep.cohorts
            );
        }
    }

    if sweep.smoke {
        reservoir_gate(&sweep);
    }

    obs.finish();
}
