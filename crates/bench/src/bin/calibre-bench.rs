//! The perf-regression gate: records and checks hot-path profiles.
//!
//! ```text
//! # (re)record the committed baseline from the built-in smoke workload
//! cargo run -p calibre-bench --release --bin calibre-bench -- baseline \
//!     [--out results/bench_baseline.json] [--seed 7]
//!
//! # profile the same workload and compare against the baseline
//! cargo run -p calibre-bench --release --bin calibre-bench -- regression \
//!     [--baseline results/bench_baseline.json] [--current prof.json] \
//!     [--threshold-pct 50] [--min-share-pts 2] [--runs 3] [--seed 7]
//! ```
//!
//! Both subcommands profile a smoke-scale Calibre (SimCLR) run — the same
//! code path as `fig3`/`convergence`, small enough for CI — `--runs` times,
//! keeping the quietest run to damp scheduler noise. `regression` instead
//! reads a profile JSON (as written by `--profile <path>` or the `baseline`
//! subcommand) when `--current` is given.
//!
//! Raw self-times are useless across machines, so the gate compares each
//! span's **share** of total self time. A span regresses when its share
//! grows by more than `--threshold-pct` percent relative *and* by more than
//! `--min-share-pts` percentage points absolute (the floor keeps micro-spans
//! from tripping the gate on noise). Any regression exits 1; a missing
//! baseline warns and exits 0 so fresh checkouts do not fail.

use calibre_bench::obs::ObsArgs;
use calibre_bench::{build_dataset, parse_args, run_method_observed, DatasetId, MethodId};
use calibre_bench::{Scale, Setting};
use calibre_ssl::SslKind;
use calibre_telemetry::{
    install_collector, uninstall_collector, JsonValue, NullRecorder, ProfileCollector,
    ProfileReport,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-span numbers the gate actually compares.
struct SpanRow {
    calls: u64,
    self_us: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: calibre-bench <baseline|regression> [--out p] [--baseline p] \
         [--current p] [--threshold-pct n] [--min-share-pts n] [--runs n] [--seed n] \
         [--chaos spec] [--min-quorum n] [--aggregator name]"
    );
    std::process::exit(2);
}

/// Runs the built-in smoke workload under the profiler `runs` times and
/// keeps the quietest run (smallest total self time) — scheduler noise only
/// ever inflates timings, so the minimum is the most repeatable estimate.
fn profiled_smoke_run(seed: u64, runs: usize, fl_overrides: &ObsArgs) -> ProfileReport {
    let fed = build_dataset(
        DatasetId::Cifar10,
        Setting::DirichletNonIid,
        Scale::Smoke,
        0,
        seed,
    );
    let mut cfg = Scale::Smoke.fl_config(seed);
    fl_overrides.apply_fl(&mut cfg);
    let cfg = cfg;
    let mut best: Option<ProfileReport> = None;
    for run in 0..runs.max(1) {
        let collector = Arc::new(ProfileCollector::new());
        install_collector(Arc::clone(&collector) as Arc<dyn calibre_telemetry::SpanSink>);
        let result = run_method_observed(
            MethodId::Calibre(SslKind::SimClr),
            &fed,
            &cfg,
            &NullRecorder,
        );
        uninstall_collector();
        let report = collector.report();
        eprintln!(
            "[calibre-bench] smoke run {}/{}: {} mean accuracy {:.2}%, {:.1} ms instrumented self time",
            run + 1,
            runs.max(1),
            result.name,
            result.stats().mean_percent(),
            report.total_self_us() / 1e3
        );
        if best
            .as_ref()
            .is_none_or(|b| report.total_self_us() < b.total_self_us())
        {
            best = Some(report);
        }
    }
    best.expect("at least one profiled run")
}

/// Loads a profile JSON (`{"spans":[{"name":...,"self_us":...},...]}`) into
/// name → row form.
fn load_profile(text: &str, what: &str) -> BTreeMap<String, SpanRow> {
    let value = JsonValue::parse(text).unwrap_or_else(|e| panic!("invalid {what} JSON: {e}"));
    let spans = value
        .get("spans")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{what}: missing \"spans\" array"));
    let mut out = BTreeMap::new();
    for span in spans {
        let name = span
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{what}: span without a name"));
        let self_us = span
            .get("self_us")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let calls = span.get("calls").and_then(JsonValue::as_i64).unwrap_or(0) as u64;
        out.insert(name.to_string(), SpanRow { calls, self_us });
    }
    out
}

fn total_self(profile: &BTreeMap<String, SpanRow>) -> f64 {
    profile.values().map(|r| r.self_us).sum::<f64>().max(1e-9)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0].starts_with("--") {
        usage();
    }
    let subcommand = args.remove(0);
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("argument error: {e}");
            usage();
        }
    };
    let mut baseline_path = "results/bench_baseline.json".to_string();
    let mut out_path = "results/bench_baseline.json".to_string();
    let mut current_path: Option<String> = None;
    let mut threshold_pct = 50.0f64;
    let mut min_share_pts = 2.0f64;
    let mut runs = 3usize;
    let mut seed = 7u64;
    let mut fl_overrides = ObsArgs::default();
    for (key, value) in parsed {
        match key.as_str() {
            "chaos" | "min-quorum" | "aggregator" => {
                fl_overrides.accept(&key, &value);
            }
            "baseline" => baseline_path = value,
            "out" => out_path = value,
            "current" => current_path = Some(value),
            "threshold-pct" => threshold_pct = value.parse().expect("--threshold-pct: a number"),
            "min-share-pts" => min_share_pts = value.parse().expect("--min-share-pts: a number"),
            "runs" => runs = value.parse().expect("--runs must be an integer"),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            other => {
                eprintln!("unknown flag --{other}");
                usage();
            }
        }
    }

    match subcommand.as_str() {
        "baseline" => {
            let report = profiled_smoke_run(seed, runs, &fl_overrides);
            if let Some(parent) = std::path::Path::new(&out_path).parent() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
            std::fs::write(&out_path, report.to_json()).expect("write baseline");
            print!("{}", report.top_self_table(15));
            println!("wrote {out_path}");
        }
        "regression" => {
            let baseline_text = match std::fs::read_to_string(&baseline_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "[calibre-bench] no baseline at {baseline_path} ({e}); \
                         run `calibre-bench baseline` to record one. Passing."
                    );
                    return;
                }
            };
            let baseline = load_profile(&baseline_text, "baseline");
            let current = match &current_path {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                    load_profile(&text, "current")
                }
                None => load_profile(
                    &profiled_smoke_run(seed, runs, &fl_overrides).to_json(),
                    "current",
                ),
            };

            let base_total = total_self(&baseline);
            let cur_total = total_self(&current);
            let mut regressions = Vec::new();
            println!(
                "{:<24} {:>8} {:>8} {:>9} {:>9} {:>8}  verdict",
                "span", "base ms", "cur ms", "base %", "cur %", "Δ pts"
            );
            for (name, base) in &baseline {
                let cur = match current.get(name) {
                    Some(c) => c,
                    None => {
                        println!(
                            "{:<24} {:>8.1} {:>8} {:>8.1}% {:>9} {:>8}  gone (ok)",
                            name,
                            base.self_us / 1e3,
                            "-",
                            100.0 * base.self_us / base_total,
                            "-",
                            "-"
                        );
                        continue;
                    }
                };
                let base_share = 100.0 * base.self_us / base_total;
                let cur_share = 100.0 * cur.self_us / cur_total;
                let delta = cur_share - base_share;
                let regressed =
                    cur_share > base_share * (1.0 + threshold_pct / 100.0) && delta > min_share_pts;
                println!(
                    "{:<24} {:>8.1} {:>8.1} {:>8.1}% {:>8.1}% {:>+8.1}  {}",
                    name,
                    base.self_us / 1e3,
                    cur.self_us / 1e3,
                    base_share,
                    cur_share,
                    delta,
                    if regressed { "REGRESSED" } else { "ok" }
                );
                if regressed {
                    regressions.push((name.clone(), base_share, cur_share, cur.calls));
                }
            }
            for name in current.keys().filter(|n| !baseline.contains_key(*n)) {
                println!("{name:<24} (new span, not in baseline — ok)");
            }
            if regressions.is_empty() {
                println!(
                    "\nno self-time-share regression beyond {threshold_pct}% \
                     (floor {min_share_pts} pts) against {baseline_path}"
                );
            } else {
                eprintln!("\n{} span(s) regressed:", regressions.len());
                for (name, base_share, cur_share, calls) in &regressions {
                    eprintln!(
                        "  {name}: self-time share {base_share:.1}% -> {cur_share:.1}% \
                         over {calls} calls"
                    );
                }
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
