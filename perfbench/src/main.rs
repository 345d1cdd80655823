//! `perfbench`: end-to-end and per-layer benchmark of the Calibre stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_calibre|cohort_robust|serve_tcp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload with tracing off and prints its end-to-end
//! metrics; `--trace 1` runs it traced and prints per-layer metrics. The
//! last line of standard output is the JSON result; lines before it that
//! start with `#` are diagnostics. A failed output check prints
//! `"correct": false` and exits 1. See `perfbench/README.md` for what each
//! workload and metric is for.

mod cohort;
mod procfs;
mod report;
mod serve_tcp;
mod spans;
mod stats;
mod timeline;
mod train;

use std::process::{Command, ExitCode, Stdio};

use report::Report;
use timeline::{real_clock, Clock};

/// The workloads, each leaning on different layers (see the README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainCalibre,
    CohortRobust,
    ServeTcp,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "train_calibre" => Workload::TrainCalibre,
            "cohort_robust" => Workload::CohortRobust,
            "serve_tcp" => Workload::ServeTcp,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainCalibre => "train_calibre",
            Workload::CohortRobust => "cohort_robust",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    /// Typical round time on a 2-vCPU host, used only to size a run: the
    /// round count is a pure function of `--seconds`, so a traced run, its
    /// untraced twin and the parent commit all run the same rounds.
    fn nominal_round_ms(self) -> u64 {
        match self {
            Workload::TrainCalibre => 400,
            Workload::CohortRobust => 150,
            Workload::ServeTcp => 20,
        }
    }

    /// Leading rounds run untimed to settle lazy state (heap growth, first
    /// buffer faults); they count into `setup_s`.
    pub fn warmup_rounds(self) -> usize {
        match self {
            Workload::TrainCalibre => 0,
            _ => 1,
        }
    }
}

/// One invocation's parameters.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Timed rounds; derived from `seconds` unless overridden.
    pub timed_rounds: usize,
    pub trace: bool,
    /// Run as the untraced twin of a traced run: timed rounds only, no
    /// output checks; print the round times and the checksum.
    pub child: bool,
    /// Zero at process entry; every span and mark uses it.
    pub clock: Clock,
}

impl Ctx {
    /// Rounds the engine runs: warm-up plus timed.
    pub fn total_rounds(&self) -> usize {
        self.workload.warmup_rounds() + self.timed_rounds
    }
}

/// Every per-layer metric, in output order, with its unit. A workload that
/// never exercises a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_ms", "ms"),
    ("data.render_us_per_step", "us"),
    ("ssl.forward_us_per_step", "us"),
    ("core.calibre_loss_us_per_step", "us"),
    ("tensor.backward_us_per_step", "us"),
    ("tensor.optim_us_per_step", "us"),
    ("tensor.steps_per_round", "count"),
    ("fl.client_busy_ms_per_round", "ms"),
    ("client.compute_ms_per_round", "ms"),
    ("fl.parallel.idle_share", "fraction"),
    ("fl.parallel.overhead_ms_per_round", "ms"),
    ("fl.parallel.speedup", "ratio"),
    ("fl.transport.waves_per_round", "count"),
    ("fl.transport.wave_ms_per_round", "ms"),
    ("fl.transport.wire_ms_per_round", "ms"),
    ("fl.transport.register_ms", "ms"),
    ("fl.proto.frames_per_round", "count"),
    ("fl.proto.bytes_per_round", "bytes"),
    ("fl.aggregate.fold_ms_per_round", "ms"),
    ("fl.aggregate.fold_gib_per_s", "GiB/s"),
    ("fl.aggregate.seal_ms_per_round", "ms"),
    ("fl.serve.between_rounds_ms", "ms"),
    ("fl.server_ms_per_round", "ms"),
    ("fl.personalize.infer_ms", "ms"),
    ("fl.personalize.probe_ms", "ms"),
    ("fl.personalize.stage_s", "s"),
    ("quality.acc_mean", "fraction"),
    ("quality.acc_worst_decile", "fraction"),
    ("fl.accepted_per_round", "count"),
    ("fl.dropped_per_round", "count"),
    ("fl.rejected_per_round", "count"),
    ("fl.accept_ratio", "fraction"),
    ("fl.adversary.attacked_per_round", "count"),
    ("fl.adversary.quarantined_total", "count"),
    ("proc.minor_faults_per_round", "count"),
    ("proc.sys_share", "fraction"),
    ("proc.steal_share", "fraction"),
    ("trace.round_ms_p50", "ms"),
    ("trace.untraced_round_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every end-to-end metric, in output order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mib", "MiB"),
    ("model_mib_per_s", "MiB/s"),
];

/// Worker threads the in-process pool uses (`available_parallelism`, as
/// `calibre_fl::parallel` reads it).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Minimum timed rounds: enough for a tail with ten rounds beyond p50.
const MIN_TIMED_ROUNDS: usize = 20;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <train_calibre|cohort_robust|serve_tcp> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let clock = real_clock();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut rounds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--rounds" => rounds = value.parse::<usize>().ok().filter(|r| *r > 0),
            "--child" if value == "rounds" => child = true,
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let timed_rounds = rounds.unwrap_or_else(|| {
        let nominal = (seconds * 1000).div_ceil(workload.nominal_round_ms()) as usize;
        nominal.max(MIN_TIMED_ROUNDS)
    });
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        timed_rounds,
        trace,
        child,
        clock,
    };

    let mut report = Report::default();
    let mut notes: Vec<String> = vec![format!(
        "workload={} seed={} seconds={} timed_rounds={} trace={}",
        workload.name(),
        seed,
        seconds,
        timed_rounds,
        u8::from(trace)
    )];
    let result = match (child, trace) {
        (true, _) => run_child(&ctx),
        (false, false) => untraced(&ctx, &mut report, &mut notes),
        (false, true) => traced(&ctx, &mut report, &mut notes),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    if child {
        return ExitCode::SUCCESS;
    }
    report.conform(if trace { PER_LAYER } else { END_TO_END });
    for n in &notes {
        println!("# {n}");
    }
    for f in &report.failures {
        println!("# CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What a workload's timed run hands back for reporting.
pub struct Run {
    pub rounds: Vec<timeline::RoundPhases>,
    pub spans: Vec<timeline::Span>,
    pub proc: report::ProcDelta,
    /// Time from process entry to the first timed `round_start`.
    pub setup_ns: u64,
    /// Fingerprint of the final model (or encoder).
    pub checksum: u64,
    /// f32 payload one accepted client moves, both directions, bytes.
    pub payload_bytes: f64,
}

impl Run {
    /// The timed rounds.
    pub fn timed(&self, ctx: &Ctx) -> &[timeline::RoundPhases] {
        self.rounds
            .get(ctx.workload.warmup_rounds()..)
            .unwrap_or(&[])
    }
}

/// Runs the workload `ctx` names.
fn run_workload(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<Run, String> {
    match ctx.workload {
        Workload::TrainCalibre => train::run(ctx, report, notes),
        Workload::CohortRobust => cohort::run(ctx, report, notes),
        Workload::ServeTcp => serve_tcp::run(ctx, report, notes),
    }
}

fn run_child(ctx: &Ctx) -> Result<(), String> {
    let run = run_workload(ctx, &mut Report::default(), &mut Vec::new())?;
    let ms: Vec<String> = run
        .timed(ctx)
        .iter()
        .map(|r| format!("{:.4}", r.wall_ns() as f64 / 1e6))
        .collect();
    println!("# round_ms {}", ms.join(","));
    println!("# checksum {:016x}", run.checksum);
    Ok(())
}

fn untraced(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<(), String> {
    let load = procfs::loadavg().ok();
    let run = run_workload(ctx, report, notes)?;
    let (attempted, failed) = report::attempts(&run.rounds);
    report.attempted = attempted;
    report.failed = failed;

    let window = report::Window {
        timed: run.timed(ctx),
        proc: run.proc,
    };
    report::end_to_end(
        report,
        &window,
        run.setup_ns as f64 / 1e9,
        run.payload_bytes,
    );
    notes.extend(report::host_notes(&window, load));
    notes.push(format!("checksum {:016x}", run.checksum));
    Ok(())
}

fn traced(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<(), String> {
    let load = procfs::loadavg().ok();
    // The untraced twin runs first, in its own process, on the same rounds.
    let twin = spawn_self(ctx, &["--child", "rounds"], None)?;
    let twin_checksum = parse_note(&twin, "checksum")?;
    let twin_ms = parse_round_ms(&twin)?;

    // The traced run's spans start at its own set-up, after the twin.
    let ctx = &Ctx {
        clock: real_clock(),
        ..*ctx
    };
    let run = run_workload(ctx, report, notes)?;
    let (attempted, failed) = report::attempts(&run.rounds);
    report.attempted = attempted;
    report.failed = failed;
    report.check(
        format!("{:016x}", run.checksum) == twin_checksum,
        format!(
            "traced checksum {:016x} differs from the untraced run's {twin_checksum}",
            run.checksum
        ),
    );
    let window = report::Window {
        timed: run.timed(ctx),
        proc: run.proc,
    };
    let traced_p50 = stats::median(&window.round_ms());
    let twin_p50 = stats::median(&twin_ms);
    report.metric("trace.round_ms_p50", traced_p50, "ms");
    report.metric("trace.untraced_round_ms_p50", twin_p50, "ms");
    report.metric("trace.overhead_ratio", traced_p50 / twin_p50, "ratio");

    // Single-worker baseline: pinned to one CPU, `available_parallelism`
    // is 1 and the worker pool runs inline.
    let speedup = match ctx.workload {
        Workload::TrainCalibre => {
            let rounds = (ctx.timed_rounds / 4).max(3);
            let single = spawn_self(
                ctx,
                &["--child", "rounds", "--rounds", &rounds.to_string()],
                Some("0"),
            )?;
            let single_ms = parse_round_ms(&single)?;
            let two = twin_ms.get(..single_ms.len()).unwrap_or(&twin_ms);
            notes.push(format!(
                "single-worker p50 {:.3} ms over {} rounds vs {:.3} ms on {} threads",
                stats::median(&single_ms),
                single_ms.len(),
                stats::median(two),
                threads()
            ));
            stats::median(&single_ms) / stats::median(two)
        }
        _ => 0.0,
    };
    report.metric("fl.parallel.speedup", speedup, "ratio");

    report.metric(
        "proc.minor_faults_per_round",
        window.proc.minflt as f64 / window.n(),
        "count",
    );
    let cpu = window.proc.user_s + window.proc.sys_s;
    report.metric(
        "proc.sys_share",
        if cpu > 0.0 {
            window.proc.sys_s / cpu
        } else {
            0.0
        },
        "fraction",
    );
    report.metric("proc.steal_share", window.proc.steal_share, "fraction");
    layer_metrics(ctx, report, &window, run.payload_bytes);
    notes.extend(report::host_notes(&window, load));

    let table = spans::self_times(&run.spans);
    for (name, (count, total, own)) in &table {
        notes.push(format!(
            "span {name:<22} count={count:<8} total_ms={:<12.3} self_ms={:.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{}-{}.spans.json", ctx.workload.name(), ctx.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(&run.spans)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    notes.push(format!(
        "checksum {:016x} (untraced {twin_checksum})",
        run.checksum
    ));
    Ok(())
}

/// Per-layer metrics every workload reports from its round phases (0 where
/// the layer does no work in that workload).
fn layer_metrics(ctx: &Ctx, report: &mut Report, w: &report::Window<'_>, payload_bytes: f64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let threads = threads() as f64;
    let socket = ctx.workload == Workload::ServeTcp;
    let collect = ctx.workload == Workload::TrainCalibre;
    report.metric(
        "fl.client_busy_ms_per_round",
        w.per_round(|r| ms(r.busy_ns)),
        "ms",
    );
    report.metric(
        "client.compute_ms_per_round",
        if socket {
            w.per_round(|r| ms(r.busy_ns))
        } else {
            0.0
        },
        "ms",
    );
    // Idle share of the in-process worker pool over its client phase.
    let (busy, phase): (f64, f64) = w.timed.iter().fold((0.0, 0.0), |(b, p), r| {
        let phase = if collect {
            r.client_phase_ns
        } else {
            r.wave_ns
        };
        (b + r.busy_ns as f64, p + phase as f64)
    });
    report.metric(
        "fl.parallel.idle_share",
        if socket || phase == 0.0 {
            0.0
        } else {
            (1.0 - busy / (threads * phase)).max(0.0)
        },
        "fraction",
    );
    report.metric(
        "fl.parallel.overhead_ms_per_round",
        if socket {
            0.0
        } else {
            w.per_round(|r| ms(r.overhead_ns))
        },
        "ms",
    );
    report.metric(
        "fl.transport.waves_per_round",
        w.per_round(|r| r.waves as f64),
        "count",
    );
    report.metric(
        "fl.transport.wave_ms_per_round",
        w.per_round(|r| ms(r.wave_ns)),
        "ms",
    );
    report.metric(
        "fl.transport.wire_ms_per_round",
        if socket {
            w.per_round(|r| ms(r.wire_ns))
        } else {
            0.0
        },
        "ms",
    );
    report.metric(
        "fl.aggregate.fold_ms_per_round",
        w.per_round(|r| ms(r.fold_ns)),
        "ms",
    );
    // Fold throughput: the accepted updates' bytes over the time spent
    // folding them. With one wave per round the only fold runs inside `seal`.
    let (bytes, fold_s) = w.timed.iter().fold((0.0, 0.0), |(b, s), r| {
        let ns = if r.waves == 1 {
            r.fold_ns + r.seal_ns
        } else {
            r.fold_ns
        };
        (
            b + r.accepted as f64 * payload_bytes / 2.0,
            s + ns as f64 / 1e9,
        )
    });
    report.metric(
        "fl.aggregate.fold_gib_per_s",
        if fold_s > 0.0 {
            bytes / fold_s / f64::from(1u32 << 30)
        } else {
            0.0
        },
        "GiB/s",
    );
    report.metric(
        "fl.aggregate.seal_ms_per_round",
        w.per_round(|r| ms(r.seal_ns)),
        "ms",
    );
    report.metric(
        "fl.serve.between_rounds_ms",
        w.per_round(|r| ms(r.between_ns)),
        "ms",
    );
    report.metric(
        "fl.server_ms_per_round",
        if collect {
            w.per_round(|r| ms(r.wall_ns().saturating_sub(r.client_phase_ns)))
        } else {
            0.0
        },
        "ms",
    );
    report.metric(
        "fl.accepted_per_round",
        w.per_round(|r| r.accepted as f64),
        "count",
    );
    // Dropped: never dispatched (chaos) or undelivered; rejected: delivered
    // but refused by screening. The collect path only reports the sum.
    let dropped = |r: &timeline::RoundPhases| {
        if r.waves == 0 {
            r.failed
        } else {
            r.selected().saturating_sub(r.delivered.min(r.slots))
        }
    };
    report.metric(
        "fl.dropped_per_round",
        w.per_round(|r| dropped(r) as f64),
        "count",
    );
    report.metric(
        "fl.rejected_per_round",
        w.per_round(|r| r.failed.saturating_sub(dropped(r)) as f64),
        "count",
    );
    let selected: f64 = w.timed.iter().map(|r| r.selected() as f64).sum();
    report.metric(
        "fl.accept_ratio",
        w.accepted() / selected.max(1.0),
        "fraction",
    );
    report.metric(
        "fl.adversary.attacked_per_round",
        w.per_round(|r| r.attacks as f64),
        "count",
    );
    report.metric(
        "fl.adversary.quarantined_total",
        w.timed.iter().map(|r| r.quarantines as f64).sum(),
        "count",
    );
}

/// Runs this binary again with the same workload, seed and seconds plus
/// `extra` flags, optionally pinned to `cpus` with `taskset`, waits for it,
/// and returns its standard output.
fn spawn_self(ctx: &Ctx, extra: &[&str], cpus: Option<&str>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = match cpus {
        Some(list) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(list).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    cmd.args([
        "--workload",
        ctx.workload.name(),
        "--seed",
        &ctx.seed.to_string(),
        "--seconds",
        &ctx.seconds.to_string(),
        "--trace",
        "0",
    ]);
    if !extra.contains(&"--rounds") {
        cmd.args(["--rounds", &ctx.timed_rounds.to_string()]);
    }
    cmd.args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("child {extra:?} failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// The value of a `# <key> <value>` diagnostic line.
fn parse_note(out: &str, key: &str) -> Result<String, String> {
    let prefix = format!("# {key} ");
    out.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map(|v| v.trim().to_string())
        .ok_or(format!("child printed no `{key}` line"))
}

fn parse_round_ms(out: &str) -> Result<Vec<f64>, String> {
    parse_note(out, "round_ms")?
        .split(',')
        .map(|v| v.parse::<f64>().map_err(|e| format!("round_ms {v:?}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_telemetry::JsonValue;

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        for (name, _) in names(&doc, "workloads") {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn notes_parse_back() {
        let out = "# workload=x\n# round_ms 1.5,2.25\n# checksum 00ff\n{}\n";
        assert_eq!(parse_round_ms(out).unwrap(), vec![1.5, 2.25]);
        assert_eq!(parse_note(out, "checksum").unwrap(), "00ff");
        assert!(parse_note(out, "absent").is_err());
    }
}
