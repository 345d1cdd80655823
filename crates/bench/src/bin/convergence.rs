//! Convergence tracking: personalization quality of the global encoder as a
//! function of training round, pFL-SimCLR vs Calibre (SimCLR).
//!
//! The paper argues (§V-B) that "based on these transferable
//! representations, the personalized model converges faster and can
//! generalize better"; this binary measures that directly by freezing the
//! intermediate encoder every few rounds and running the full
//! personalization protocol on it.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin convergence -- \
//!     [--scale smoke|default|paper] [--every 5] [--seed 7] \
//!     [--telemetry out.jsonl] [--trace out.json] [--profile prof.json] \
//!     [--chaos drop=0.3,corrupt=0.1] [--min-quorum 2] [--aggregator median]
//! ```
//!
//! Writes `results/convergence.csv` with columns
//! `method,round,mean,variance`.
//!
//! With `--telemetry <path>`, every federated round additionally streams
//! JSONL events (round_start / client_update / aggregate / round_end with
//! per-client wall-clock and loss payloads) to `<path>`, and a round/fairness
//! summary is printed at the end. The two training runs are concatenated in
//! the file; the round index restarting at 0 marks the Calibre run's start.
//! `--trace` and `--profile` capture the span layer — a Perfetto-loadable
//! Chrome trace and an aggregated hot-path profile respectively (see
//! `calibre_bench::obs`).

use calibre::{train_calibre_encoder_observed, CalibreConfig};
use calibre_bench::obs::ObsArgs;
use calibre_bench::{build_dataset, parse_args_or_exit, DatasetId, Scale, Setting};
use calibre_data::AugmentConfig;
use calibre_fl::personalize_cohort;
use calibre_fl::pfl_ssl::train_pfl_ssl_encoder_observed;
use calibre_ssl::SslKind;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut every = 5usize;
    let mut seed = 7u64;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "every" => every = value.parse().expect("--every must be an integer"),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }
    assert!(every > 0, "--every must be positive");

    let fed = build_dataset(DatasetId::Cifar10, Setting::DirichletNonIid, scale, 0, seed);
    let mut cfg = scale.fl_config(seed);
    obs_args.apply_fl(&mut cfg);
    let cfg = cfg;

    // With --telemetry, events fan out to a JSONL file and an in-memory hub
    // for the end-of-run summary; otherwise they are recorded into the void.
    // --trace/--profile install the span collector for the whole run.
    let obs = obs_args.build();
    let recorder = obs.recorder();
    let aug = AugmentConfig::default();
    let num_classes = fed.generator().num_classes();

    let mut rows: Vec<(String, usize, f32, f32)> = Vec::new();
    println!(
        "{:<20} {:>6} {:>9} {:>10}",
        "method", "round", "mean(%)", "variance"
    );

    {
        let mut observer = |round: usize, encoder: &calibre_tensor::nn::Mlp| {
            if !(round + 1).is_multiple_of(every) && round + 1 != cfg.rounds {
                return;
            }
            let outcome = personalize_cohort(encoder, &fed, num_classes, &cfg.probe);
            println!(
                "{:<20} {:>6} {:>9.2} {:>10.5}",
                "pFL-SimCLR",
                round + 1,
                outcome.stats.mean_percent(),
                outcome.stats.variance
            );
            rows.push((
                "pFL-SimCLR".into(),
                round + 1,
                outcome.stats.mean,
                outcome.stats.variance,
            ));
        };
        train_pfl_ssl_encoder_observed(
            &fed,
            &cfg,
            SslKind::SimClr,
            &aug,
            Some(&mut observer),
            recorder,
        );
    }

    {
        let ccfg = CalibreConfig {
            warmup_rounds: cfg.rounds / 2,
            ..CalibreConfig::default()
        };
        let mut observer = |round: usize, encoder: &calibre_tensor::nn::Mlp| {
            if !(round + 1).is_multiple_of(every) && round + 1 != cfg.rounds {
                return;
            }
            let outcome = personalize_cohort(encoder, &fed, num_classes, &cfg.probe);
            println!(
                "{:<20} {:>6} {:>9.2} {:>10.5}",
                "Calibre (SimCLR)",
                round + 1,
                outcome.stats.mean_percent(),
                outcome.stats.variance
            );
            rows.push((
                "Calibre (SimCLR)".into(),
                round + 1,
                outcome.stats.mean,
                outcome.stats.variance,
            ));
        };
        train_calibre_encoder_observed(
            &fed,
            &cfg,
            SslKind::SimClr,
            &ccfg,
            &aug,
            Some(&mut observer),
            recorder,
        );
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::io::BufWriter::new(
        std::fs::File::create("results/convergence.csv").expect("create csv"),
    );
    writeln!(f, "method,round,mean,variance").unwrap();
    for (method, round, mean, variance) in &rows {
        writeln!(f, "{method},{round},{mean},{variance}").unwrap();
    }
    println!("\nwrote results/convergence.csv");

    obs.finish();
}
