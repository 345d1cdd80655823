//! `attack` — the fairness-under-attack ablation: adversary fraction ×
//! defense aggregator on a synthetic personalization workload.
//!
//! Each client `i` owns a target vector `t_i` (a shared center plus a
//! per-client offset whose magnitude spreads deterministically across the
//! population, so the worst decile is a real, identifiable cohort). Every
//! round each honest client pulls the global model toward its target
//! (`lr · (t_i − w)`); the seeded [`calibre_fl::AttackPlan`] compromises a
//! fraction of the cohort per round through the *production* scheduler
//! path ([`calibre_fl::RoundScheduler::run_round`] over an
//! [`calibre_fl::InProcessTransport`]), so the ablation exercises exactly
//! the injection + defense code a real serve run uses. Client `i`'s accuracy after the last round is
//! `1 / (1 + ‖w − t_i‖)` — a decreasing function of how far the global
//! model landed from that client's personal optimum.
//!
//! The attack is the amplified sign-flip (`scale=-12:<fraction>`): at 10%
//! adversaries the plain weighted average's effective step becomes
//! negative, so the model diverges geometrically — while the attacked
//! updates sit at 12× the honest norm and are trivial for every robust
//! aggregator to screen. That asymmetry is the ablation's point: the
//! defenses must recover ≥ half of the clean worst-decile accuracy where
//! weighted averaging does not.
//!
//! ```text
//! cargo run --release -p calibre-bench --bin attack -- \
//!     [--fractions 0.0,0.1,0.3] [--defenses weighted,median,...] \
//!     [--population 60] [--rounds 30] [--dim 32] [--seed 7] \
//!     [--gate true] [--telemetry out.jsonl]
//! ```
//!
//! Per-client accuracies are emitted as `personalize` telemetry events, so
//! a single-cell invocation (`--fractions 0.1 --defenses median
//! --telemetry run.jsonl`) produces a run `calibre-obs fairness`/`diff`
//! can query — CI diffs a defended attacked run against the clean baseline
//! under the worst-decile-drop threshold.
//!
//! `--gate true` exits non-zero unless, at 10% adversaries, every robust
//! defense recovers ≥ half of the clean worst-decile accuracy *and* the
//! weighted average does not (both sides of the claim). Writes
//! `results/attack.csv`.

use calibre_bench::obs::ObsArgs;
use calibre_bench::parse_args_or_exit;
use calibre_fl::aggregate::{Aggregator, StreamingWeightedSink};
use calibre_fl::sampler::{Sampler, SamplerKind};
use calibre_fl::{
    jain_index, worst_fraction_mean, AttackPlan, Fold, InProcessTransport, RoundScheduler,
    StreamUpdate,
};
use std::io::Write;

/// The splitmix64 step — the repo-wide seeded stream primitive.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// One [0, 1) draw from a splitmix64 state.
fn unit(state: &mut u64) -> f32 {
    splitmix64(state);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// A seeded unit vector (uniform per-coordinate, normalized).
fn unit_vector(dim: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut v: Vec<f32> = (0..dim).map(|_| unit(&mut state) - 0.5).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
    for x in &mut v {
        *x /= norm;
    }
    v
}

/// Per-client personalization targets: shared center (norm 1) plus an
/// offset whose magnitude ramps deterministically from 0.2 to 1.0 across
/// the population — the high-offset clients *are* the worst decile.
fn client_targets(population: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let center = unit_vector(dim, seed ^ 0xC3A7);
    (0..population)
        .map(|i| {
            let spread = if population > 1 {
                i as f32 / (population - 1) as f32
            } else {
                0.0
            };
            let magnitude = 0.2 + 0.8 * spread;
            let offset = unit_vector(dim, seed ^ 0x0FF5 ^ (i as u64).wrapping_mul(0x9E3B));
            center
                .iter()
                .zip(&offset)
                .map(|(c, o)| c + magnitude * o)
                .collect()
        })
        .collect()
}

fn l2_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// The defense matrix for one adversary fraction. Robust parameters are
/// sized from the fraction with a 1.5× safety margin, because the per-round
/// adversary count is Bernoulli-sampled and fluctuates around the mean.
fn defenses(fraction: f32, cohort: usize) -> Vec<(&'static str, Aggregator)> {
    let assumed = ((fraction * cohort as f32 * 1.5).ceil() as usize).max(1);
    let m = cohort.saturating_sub(assumed + 2).max(1);
    vec![
        ("weighted", Aggregator::WeightedAverage),
        ("median", Aggregator::CoordinateMedian),
        ("trimmed:0.2", Aggregator::TrimmedMean(0.2)),
        ("krum", Aggregator::Krum { f: assumed }),
        ("multi-krum", Aggregator::MultiKrum { f: assumed, m }),
        ("geomedian", Aggregator::GeometricMedian),
        ("normbound:1.0", Aggregator::NormBound(1.0)),
        ("clip:1.0", Aggregator::CenteredClip(1.0)),
    ]
}

struct RunOutcome {
    mean: f32,
    std: f32,
    worst_decile: f32,
    jain: f32,
    skipped: usize,
}

/// Runs one (fraction, defense) cell: the full population participates
/// every round, attacks are injected by the scheduler, and the final
/// per-client accuracies summarize fairness.
fn run_cell(
    fraction: f32,
    defense: Aggregator,
    targets: &[Vec<f32>],
    rounds: usize,
    dim: usize,
    seed: u64,
    recorder: &dyn calibre_telemetry::Recorder,
) -> RunOutcome {
    let population = targets.len();
    let mut scheduler = RoundScheduler::sampled(
        Sampler::new(SamplerKind::Uniform, seed),
        population,
        population,
        rounds,
    );
    if fraction > 0.0 {
        let plan = AttackPlan::parse(&format!("scale=-12:{fraction},seed=13"))
            .expect("ablation attack spec");
        scheduler = scheduler.with_attack(plan, seed);
    }
    let mut policy = *scheduler.policy();
    policy.aggregator = defense;
    let scheduler = scheduler.with_policy(policy);

    const LR: f32 = 0.5;
    let mut w = vec![0.0f32; dim];
    let mut skipped = 0usize;
    for round in 0..rounds {
        let selected = scheduler.select(round, None);
        let mut weighted = StreamingWeightedSink::new();
        let fold = if defense == Aggregator::WeightedAverage {
            Fold::Stream(&mut weighted)
        } else {
            Fold::Hold {
                capacity: selected.len(),
                seed: seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            }
        };
        let mut transport = InProcessTransport::new(|_round, client, model: &[f32]| StreamUpdate {
            update: targets[client]
                .iter()
                .zip(model)
                .map(|(t, m)| LR * (t - m))
                .collect(),
            weight: 1.0,
            loss: 0.0,
            divergence: 0.0,
        });
        let out = scheduler
            .run_round(round, &selected, 16, &w, fold, &mut transport, recorder)
            .expect("the in-process transport cannot fail");
        if let Some(agg) = out.aggregated {
            for (wi, gi) in w.iter_mut().zip(agg) {
                *wi += gi;
            }
        } else {
            skipped += 1;
        }
    }

    let accuracies: Vec<f32> = targets
        .iter()
        .map(|t| 1.0 / (1.0 + l2_dist(&w, t)))
        .collect();
    // Per-client accuracies as personalize events, so `calibre-obs
    // fairness`/`diff` can compare runs (one cell per telemetry file for a
    // meaningful diff — see `--defenses`).
    for (client, acc) in accuracies.iter().enumerate() {
        recorder.personalize(client, *acc);
    }
    let n = accuracies.len() as f32;
    let mean = accuracies.iter().sum::<f32>() / n;
    let var = accuracies
        .iter()
        .map(|a| (a - mean) * (a - mean))
        .sum::<f32>()
        / n;
    RunOutcome {
        mean,
        std: var.sqrt(),
        worst_decile: worst_fraction_mean(&accuracies, 0.1),
        jain: jain_index(&accuracies),
        skipped,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);

    let mut fractions = vec![0.0f32, 0.1, 0.3];
    let mut only_defenses: Option<Vec<String>> = None;
    let mut population = 60usize;
    let mut rounds = 30usize;
    let mut dim = 32usize;
    let mut seed = 7u64;
    let mut gate = false;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "fractions" => {
                fractions = value
                    .split(',')
                    .map(|f| f.trim().parse().expect("--fractions must be numbers"))
                    .collect();
            }
            "defenses" => {
                only_defenses = Some(value.split(',').map(|d| d.trim().to_string()).collect());
            }
            "population" => population = value.parse().expect("--population"),
            "rounds" => rounds = value.parse().expect("--rounds"),
            "dim" => dim = value.parse().expect("--dim"),
            "seed" => seed = value.parse().expect("--seed"),
            "gate" => gate = value == "true",
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }

    let obs = obs_args.build();
    let targets = client_targets(population, dim, seed);
    println!(
        "== fairness under attack: {population} clients, {rounds} rounds, dim {dim}, \
         attack scale=-12 (amplified sign-flip) ==",
    );
    println!(
        "{:>9} {:<14} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "fraction", "defense", "mean", "std", "worst-10%", "Jain", "skipped"
    );

    let mut csv_rows = Vec::new();
    // worst-decile accuracy by (fraction-in-milli, defense name) for the gate.
    let mut worst: Vec<(u32, &'static str, f32)> = Vec::new();
    for &fraction in &fractions {
        for (name, defense) in defenses(fraction, population) {
            if let Some(only) = &only_defenses {
                if !only.iter().any(|d| d == name) {
                    continue;
                }
            }
            let out = run_cell(
                fraction,
                defense,
                &targets,
                rounds,
                dim,
                seed,
                obs.recorder(),
            );
            println!(
                "{:>9.2} {:<14} {:>8.4} {:>8.4} {:>12.4} {:>8.4} {:>8}",
                fraction, name, out.mean, out.std, out.worst_decile, out.jain, out.skipped
            );
            csv_rows.push(format!(
                "{fraction},{name},{},{},{},{},{}",
                out.mean, out.std, out.worst_decile, out.jain, out.skipped
            ));
            worst.push(((fraction * 1000.0) as u32, name, out.worst_decile));
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let mut f =
        std::io::BufWriter::new(std::fs::File::create("results/attack.csv").expect("create csv"));
    writeln!(
        f,
        "fraction,defense,mean,std,worst_decile,jain,skipped_rounds"
    )
    .unwrap();
    for row in &csv_rows {
        writeln!(f, "{row}").unwrap();
    }
    println!("\nwrote results/attack.csv");

    // The ablation's claim, checked both ways: at 10% adversaries each
    // robust defense recovers ≥ half of the clean worst-decile accuracy,
    // and the plain weighted average does not.
    let clean = worst
        .iter()
        .find(|(f, name, _)| *f == 0 && *name == "weighted")
        .map(|(_, _, w)| *w);
    let mut ok = true;
    if let Some(clean) = clean {
        let bar = clean * 0.5;
        println!("recovery gate at 10% adversaries (clean worst-decile {clean:.4}, bar {bar:.4}):");
        for (f, name, wd) in worst.iter().filter(|(f, _, _)| *f == 100) {
            let _ = f;
            let recovered = *wd >= bar;
            let verdict = if *name == "weighted" {
                if recovered {
                    ok = false;
                    "UNEXPECTEDLY SURVIVED (attack too weak to discriminate)"
                } else {
                    "breaks, as the defenses' baseline should"
                }
            } else if recovered {
                "recovers"
            } else {
                ok = false;
                "FAILS to recover"
            };
            println!("  {name:<14} worst-10% {wd:.4}  -> {verdict}");
        }
    } else {
        println!("recovery gate skipped: no clean (fraction 0, weighted) cell in this sweep");
    }

    obs.finish();
    if gate && !ok {
        eprintln!("attack ablation gate FAILED");
        std::process::exit(1);
    }
}
