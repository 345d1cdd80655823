//! Ablation benches for the design choices DESIGN.md §6/§7 calls out:
//!
//! - `α` sweep around the paper's 0.3;
//! - prototype count `K_r` sweep;
//! - divergence-aware aggregation vs plain FedAvg aggregation;
//! - α warmup on/off;
//! - `L_n` form: pull-only (our default) vs the InfoNCE/contrastive form
//!   (Algorithm 1's literal reading);
//! - extended fairness metrics (Jain index, worst-decile mean) alongside the
//!   paper's variance.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin ablations -- \
//!     [--scale smoke|default] [--dataset cifar10|stl10] [--seed 7] \
//!     [--telemetry out.jsonl] [--trace out.json] [--profile prof.json]
//! ```
//!
//! The shared observability flags stream round-level JSONL events (all
//! variants concatenated) and capture the span layer; a fairness summary
//! over every variant's personalizations is printed at the end (see
//! `calibre_bench::obs`).

use calibre::{run_calibre_observed, CalibreConfig};
use calibre_bench::obs::ObsArgs;
use calibre_bench::{build_dataset, parse_args_or_exit, DatasetId, Scale, Setting};
use calibre_data::AugmentConfig;
use calibre_fl::{jain_index, worst_fraction_mean};
use calibre_ssl::SslKind;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut dataset = DatasetId::Stl10;
    let mut seed = 7u64;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "dataset" => {
                dataset = DatasetId::parse(&value).unwrap_or_else(|| panic!("bad dataset {value}"))
            }
            "seed" => seed = value.parse().expect("seed must be an integer"),
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }
    let fed = build_dataset(dataset, Setting::DirichletNonIid, scale, 0, seed);
    let mut cfg = scale.fl_config(seed);
    obs_args.apply_fl(&mut cfg);
    let cfg = cfg;
    let obs = obs_args.build();
    let aug = AugmentConfig::default();
    let base = CalibreConfig {
        warmup_rounds: cfg.rounds / 2,
        ..CalibreConfig::default()
    };

    let variants: Vec<(String, CalibreConfig)> = vec![
        ("baseline (paper defaults)".into(), base),
        // α sweep
        ("alpha=0.1".into(), CalibreConfig { alpha: 0.1, ..base }),
        ("alpha=0.6".into(), CalibreConfig { alpha: 0.6, ..base }),
        ("alpha=1.0".into(), CalibreConfig { alpha: 1.0, ..base }),
        // K_r sweep
        (
            "K_r=4".into(),
            CalibreConfig {
                num_prototypes: 4,
                ..base
            },
        ),
        (
            "K_r=16".into(),
            CalibreConfig {
                num_prototypes: 16,
                ..base
            },
        ),
        (
            "K_r adaptive".into(),
            CalibreConfig {
                adaptive_k: true,
                ..base
            },
        ),
        // aggregation
        (
            "no divergence-aware agg".into(),
            CalibreConfig {
                divergence_aware_aggregation: false,
                ..base
            },
        ),
        // warmup
        (
            "no warmup".into(),
            CalibreConfig {
                warmup_rounds: 0,
                ..base
            },
        ),
        // L_n form
        (
            "L_n contrastive (Alg.1 literal)".into(),
            CalibreConfig {
                ln_contrastive: true,
                ..base
            },
        ),
    ];

    println!(
        "== Calibre (SimCLR) design ablations on {} / {} ==",
        dataset.name(),
        Setting::DirichletNonIid.name()
    );
    println!(
        "{:<34} {:>9} {:>10} {:>8} {:>12}",
        "variant", "mean(%)", "variance", "Jain", "worst-10%(%)"
    );
    let mut csv_rows = Vec::new();
    for (name, ccfg) in variants {
        let start = std::time::Instant::now();
        let result = run_calibre_observed(&fed, &cfg, SslKind::SimClr, &ccfg, &aug, obs.recorder());
        let jain = jain_index(&result.seen.accuracies);
        let worst = worst_fraction_mean(&result.seen.accuracies, 0.1);
        println!(
            "{:<34} {:>9.2} {:>10.5} {:>8.4} {:>12.2}   ({:.1?})",
            name,
            result.stats().mean_percent(),
            result.stats().variance,
            jain,
            worst * 100.0,
            start.elapsed()
        );
        csv_rows.push(format!(
            "{},{},{},{},{}",
            name.replace(',', ";"),
            result.stats().mean,
            result.stats().variance,
            jain,
            worst
        ));
    }
    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::io::BufWriter::new(
        std::fs::File::create("results/ablations.csv").expect("create csv"),
    );
    writeln!(f, "variant,mean,variance,jain,worst_decile").unwrap();
    for row in csv_rows {
        writeln!(f, "{row}").unwrap();
    }
    println!("\nwrote results/ablations.csv");
    obs.finish();
}
