//! Reproduces **Fig. 4** of the Calibre paper: mean and variance of test
//! accuracy for 150 clients — the training cohort plus 50 novel clients
//! that never participated in training — on the CIFAR-10 and CIFAR-100
//! analogs under distribution-based (Dirichlet 0.3) label non-i.i.d.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin fig4 -- \
//!     [--scale smoke|default|paper] [--methods ...] [--seed 7] \
//!     [--telemetry out.jsonl] [--trace out.json] [--profile prof.json]
//! ```
//!
//! The shared observability flags (see `calibre_bench::obs`) cover both the
//! seen-cohort training runs and the novel-cohort personalizations.

use calibre_bench::obs::ObsArgs;
use calibre_bench::report::{print_table, write_csv, Row};
use calibre_bench::{
    build_dataset, parse_args_or_exit, run_method_observed, DatasetId, MethodId, Scale, Setting,
};
use calibre_fl::personalize_cohort_observed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut methods: Vec<MethodId> = MethodId::roster();
    let mut seed = 7u64;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            "methods" => {
                methods = value
                    .split(',')
                    .map(|m| MethodId::parse(m).unwrap_or_else(|| panic!("bad method {m}")))
                    .collect();
            }
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }

    let fl_overrides = obs_args.clone();
    let obs = obs_args.build();
    let mut rows = Vec::new();
    for dataset in [DatasetId::Cifar10, DatasetId::Cifar100] {
        let setting = Setting::DirichletNonIid;
        let full = build_dataset(dataset, setting, scale, scale.novel_clients(), seed);
        let (seen_fed, novel_fed) = full.split_novel(scale.novel_clients());
        let mut cfg = scale.fl_config(seed);
        fl_overrides.apply_fl(&mut cfg);
        let num_classes = seen_fed.generator().num_classes();
        eprintln!(
            "[fig4] {}: {} training + {} novel clients, {} rounds",
            dataset.name(),
            seen_fed.num_clients(),
            novel_fed.num_clients(),
            cfg.rounds
        );
        for &method in &methods {
            let start = std::time::Instant::now();
            let result = run_method_observed(method, &seen_fed, &cfg, obs.recorder());
            // Novel clients download the trained encoder and run the same
            // personalization protocol (paper §V-D).
            let novel = personalize_cohort_observed(
                &result.encoder,
                &novel_fed,
                num_classes,
                &cfg.probe,
                obs.recorder(),
            );
            eprintln!(
                "[fig4]   {:<22} seen {:>6.2}%/{:.5}  novel {:>6.2}%/{:.5}  ({:.1?})",
                result.name,
                result.stats().mean_percent(),
                result.stats().variance,
                novel.stats.mean_percent(),
                novel.stats.variance,
                start.elapsed()
            );
            rows.push(Row {
                dataset: dataset.name().to_string(),
                setting: setting.name().to_string(),
                method: result.name.clone(),
                cohort: "seen".to_string(),
                stats: result.stats(),
            });
            rows.push(Row {
                dataset: dataset.name().to_string(),
                setting: setting.name().to_string(),
                method: result.name.clone(),
                cohort: "novel".to_string(),
                stats: novel.stats,
            });
        }
    }
    print_table(
        "Fig. 4 — seen + novel client cohorts, D-non-i.i.d. (0.3)",
        &rows,
    );
    match write_csv("fig4", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    obs.finish();
}
