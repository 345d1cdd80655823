//! Reproduces **Table I** of the Calibre paper: the `L_n` / `L_p` ablation
//! for Calibre (SimCLR), Calibre (SwAV) and Calibre (SMoG) on the CIFAR-10
//! analog under the `(2, 500)` quantity-based non-i.i.d. setting, reported
//! as `mean ± std`.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin table1 -- \
//!     [--scale smoke|default|paper] [--seed 7] [--telemetry out.jsonl] \
//!     [--trace out.json] [--profile prof.json]
//! ```
//!
//! With `--telemetry <path>`, every ablation variant's federated rounds
//! stream JSONL telemetry events to `<path>` (all variants concatenated; the
//! round index restarts at 0 on each variant boundary), and a round/fairness
//! summary is printed at the end. `--trace`/`--profile` capture the span
//! layer (see `calibre_bench::obs`).

use calibre_bench::obs::ObsArgs;
use calibre_bench::report::{write_csv, Row};
use calibre_bench::{
    build_dataset, parse_args_or_exit, run_method_observed, DatasetId, MethodId, Scale, Setting,
};
use calibre_ssl::SslKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut seed = 7u64;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }

    let dataset = DatasetId::Cifar10;
    let setting = Setting::QuantityNonIid; // (2, 500) at paper scale
    let fed = build_dataset(dataset, setting, scale, 0, seed);
    let mut cfg = scale.fl_config(seed);
    obs_args.apply_fl(&mut cfg);
    let cfg = cfg;
    let obs = obs_args.build();
    let backbones = [SslKind::SimClr, SslKind::SwAv, SslKind::Smog];
    // Table I rows: (use_ln, use_lp) in the paper's order.
    let variants = [(false, false), (false, true), (true, false), (true, true)];

    let mut rows = Vec::new();
    println!("== Table I — ablation of L_n / L_p, CIFAR-10 analog, Q-non-iid (2,·) ==");
    println!(
        "{:<6} {:<6} {:<28} {:<18}",
        "L_n", "L_p", "variant", "mean ± std (%)"
    );
    for (use_ln, use_lp) in variants {
        for kind in backbones {
            let method = MethodId::CalibreAblation(kind, use_ln, use_lp);
            let start = std::time::Instant::now();
            let result = run_method_observed(method, &fed, &cfg, obs.recorder());
            println!(
                "{:<6} {:<6} {:<28} {:<18} ({:.1?})",
                if use_ln { "✓" } else { "" },
                if use_lp { "✓" } else { "" },
                format!("Calibre ({})", kind.name()),
                result.stats().paper_format(),
                start.elapsed()
            );
            rows.push(Row {
                dataset: dataset.name().to_string(),
                setting: setting.name().to_string(),
                method: result.name.clone(),
                cohort: "seen".to_string(),
                stats: result.stats(),
            });
        }
    }
    match write_csv("table1", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }

    obs.finish();
}
