//! Reproduces **Fig. 3** of the Calibre paper: mean and variance of test
//! accuracy among training clients across Q-non-i.i.d. and D-non-i.i.d.
//! settings on the CIFAR-10, CIFAR-100 and STL-10 analogs, for the full
//! method roster.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin fig3 -- \
//!     [--scale smoke|default|paper] [--datasets cifar10,stl10] \
//!     [--settings q,d] [--methods fedavg-ft,calibre-simclr] [--seed 7] \
//!     [--repeats 3] [--telemetry out.jsonl] [--trace out.json] \
//!     [--profile prof.json]
//! ```
//!
//! With `--repeats N > 1` every cell is run on N independent dataset/run
//! seeds and the reported mean/variance are averaged across repeats
//! (single-seed runs at this scale move by ±1-1.5 pp). The shared
//! observability flags stream round-level JSONL events (all cells
//! concatenated), capture the span layer, and print a fairness summary over
//! every cell's personalizations at the end (see `calibre_bench::obs`).

use calibre_bench::obs::ObsArgs;
use calibre_bench::report::{print_table, write_csv, Row};
use calibre_bench::{
    build_dataset, parse_args_or_exit, run_method_observed, DatasetId, MethodId, Scale, Setting,
};
use calibre_fl::Stats;

/// Averages cell statistics across independent repeats (mean of means,
/// mean of variances; min/max over all repeats; count from the first).
fn average_stats(per_repeat: &[Stats]) -> Stats {
    let n = per_repeat.len() as f32;
    let mean = per_repeat.iter().map(|s| s.mean).sum::<f32>() / n;
    let variance = per_repeat.iter().map(|s| s.variance).sum::<f32>() / n;
    Stats {
        count: per_repeat[0].count,
        mean,
        variance,
        std: variance.sqrt(),
        min: per_repeat
            .iter()
            .map(|s| s.min)
            .fold(f32::INFINITY, f32::min),
        max: per_repeat
            .iter()
            .map(|s| s.max)
            .fold(f32::NEG_INFINITY, f32::max),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut datasets: Vec<DatasetId> = DatasetId::ALL.to_vec();
    let mut settings: Vec<Setting> = Setting::ALL.to_vec();
    let mut methods: Vec<MethodId> = MethodId::roster();
    let mut seed = 7u64;
    let mut repeats = 1usize;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            "repeats" => {
                repeats = value.parse().expect("--repeats must be an integer");
                assert!(repeats >= 1, "--repeats must be at least 1");
            }
            "datasets" => {
                datasets = value
                    .split(',')
                    .map(|d| DatasetId::parse(d).unwrap_or_else(|| panic!("bad dataset {d}")))
                    .collect();
            }
            "settings" => {
                settings = value
                    .split(',')
                    .map(|s| Setting::parse(s).unwrap_or_else(|| panic!("bad setting {s}")))
                    .collect();
            }
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
    for &dataset in &datasets {
        for &setting in &settings {
            eprintln!(
                "[fig3] {} / {} ({} repeat{})",
                dataset.name(),
                setting.name(),
                repeats,
                if repeats == 1 { "" } else { "s" },
            );
            for &method in &methods {
                let start = std::time::Instant::now();
                let mut name = String::new();
                let mut per_repeat: Vec<calibre_fl::Stats> = Vec::with_capacity(repeats);
                for r in 0..repeats as u64 {
                    let run_seed = seed.wrapping_add(1000 * r);
                    let fed = build_dataset(dataset, setting, scale, 0, run_seed);
                    let mut cfg = scale.fl_config(run_seed);
                    fl_overrides.apply_fl(&mut cfg);
                    let result = run_method_observed(method, &fed, &cfg, obs.recorder());
                    name = result.name.clone();
                    per_repeat.push(result.stats());
                }
                let stats = average_stats(&per_repeat);
                eprintln!(
                    "[fig3]   {:<22} mean {:>6.2}% var {:.5}  ({:.1?})",
                    name,
                    stats.mean_percent(),
                    stats.variance,
                    start.elapsed()
                );
                rows.push(Row {
                    dataset: dataset.name().to_string(),
                    setting: setting.name().to_string(),
                    method: name,
                    cohort: "seen".to_string(),
                    stats,
                });
            }
        }
    }
    print_table(
        "Fig. 3 — mean & variance of personalized test accuracy (training clients)",
        &rows,
    );
    match write_csv("fig3", &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    obs.finish();
}
