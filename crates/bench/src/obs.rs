//! Shared observability plumbing for the bench binaries.
//!
//! Every binary accepts the same three flags, all optional and freely
//! combinable:
//!
//! - `--telemetry <path>` — stream round-level JSONL events to `<path>` and
//!   print a round/fairness summary at the end of the run;
//! - `--trace <path>` — record every span as a Chrome trace-event and write
//!   the JSON to `<path>` (open it in `ui.perfetto.dev` or
//!   `chrome://tracing`);
//! - `--profile <path>` — aggregate spans into a hot-path profile, print the
//!   top-self-time table, and write the profile JSON to `<path>` (`-` prints
//!   the table without writing a file). The JSON is what
//!   `calibre-bench regression` compares against the committed baseline;
//! - `--metrics-addr <addr>` — enable the process-wide metrics registry and
//!   serve live `/metrics` (Prometheus text) and `/status` (JSON snapshot)
//!   on `<addr>` while the run executes (`127.0.0.1:0` picks a free port,
//!   printed at startup);
//! - `--metrics-snapshot <path>` — at the end of the run, self-scrape
//!   `/metrics` over HTTP once and write the body to `<path>` (requires
//!   `--metrics-addr`).
//!
//! And three shared *resilience* flags, applied to the run's `FlConfig` via
//! [`ObsArgs::apply_fl`]:
//!
//! - `--chaos <spec>` — deterministic fault injection, e.g.
//!   `--chaos drop=0.3,corrupt=0.1,panic=0.05,straggle=0.1,seed=42` (see
//!   `calibre_fl::chaos::FaultPlan::parse` for the full grammar);
//! - `--attack <spec>` — deterministic Byzantine-client simulation, e.g.
//!   `--attack flip=0.1,scale=10:0.05,noise=0.1,seed=7` (see
//!   `calibre_fl::adversary::AttackPlan::parse` for the full grammar);
//! - `--detect true|false` — server-side anomaly detection and quarantine;
//! - `--min-quorum <n>` — minimum surviving clients required to aggregate a
//!   round; rounds below quorum are skipped, never fatal;
//! - `--aggregator weighted|median|trimmed[:ratio]|krum[:f]|multi-krum:f:m|geomedian|normbound:max|clip:tau`
//!   — the server-side aggregation statistic.
//!
//! When a run emitted any resilience telemetry, [`Obs::finish`] prints a
//! fault/retry/quorum summary next to the round table.
//!
//! Usage pattern inside a binary's `main`:
//!
//! ```no_run
//! use calibre_bench::obs::ObsArgs;
//!
//! let mut obs_args = ObsArgs::default();
//! // inside the flag loop: `if obs_args.accept(&key, &value) { continue; }`
//! let obs = obs_args.build();
//! // ... run experiments, passing `obs.recorder()` to *_observed entry
//! // points ...
//! obs.finish(); // flushes, uninstalls the span collector, writes outputs
//! ```

use crate::exit_bad_value;
use calibre_telemetry::export::{http_get, MetricsServer};
use calibre_telemetry::{
    install_collector, uninstall_collector, Fanout, JsonlSink, MetricsHub, NullRecorder,
    ProfileCollector, Recorder, SpanFanout, TraceCollector,
};
use std::sync::Arc;

/// How many rows of the self-time table `--profile` prints.
const TOP_N: usize = 15;

/// Parsed observability flags, before the sinks exist.
#[derive(Default, Debug, Clone)]
pub struct ObsArgs {
    /// Destination for round-level JSONL events (`--telemetry`).
    pub telemetry: Option<String>,
    /// Destination for the Chrome trace-event JSON (`--trace`).
    pub trace: Option<String>,
    /// Destination for the profile JSON, `-` for table-only (`--profile`).
    pub profile: Option<String>,
    /// Parsed fault-injection plan (`--chaos`).
    pub chaos: Option<calibre_fl::FaultPlan>,
    /// Parsed Byzantine-attack plan (`--attack`).
    pub attack: Option<calibre_fl::AttackPlan>,
    /// Anomaly detection and quarantine toggle (`--detect`).
    pub detect: Option<bool>,
    /// Minimum aggregation quorum (`--min-quorum`).
    pub min_quorum: Option<usize>,
    /// Server aggregation statistic (`--aggregator`).
    pub aggregator: Option<calibre_fl::aggregate::Aggregator>,
    /// Address for the live metrics HTTP server (`--metrics-addr`), e.g.
    /// `127.0.0.1:9185` or `127.0.0.1:0` for an ephemeral port. Enables the
    /// process-wide metrics registry.
    pub metrics_addr: Option<String>,
    /// File to write one final `/metrics` self-scrape to at the end of the
    /// run (`--metrics-snapshot`). Requires `--metrics-addr`.
    pub metrics_snapshot: Option<String>,
}

impl ObsArgs {
    /// Consumes one parsed `--key value` pair if it is an observability
    /// or resilience flag; returns `false` (leaving `self` untouched)
    /// otherwise.
    ///
    /// A bad value — an unparsable `--chaos` or `--attack` spec, a
    /// `--detect` other than `true` or `false`, a `--min-quorum` that is
    /// not an integer, an unknown `--aggregator` — is printed on stderr
    /// and the process exits 2 ([`crate::exit_bad_value`]).
    pub fn accept(&mut self, key: &str, value: &str) -> bool {
        match key {
            "telemetry" => self.telemetry = Some(value.to_string()),
            "trace" => self.trace = Some(value.to_string()),
            "profile" => self.profile = Some(value.to_string()),
            "metrics-addr" => self.metrics_addr = Some(value.to_string()),
            "metrics-snapshot" => self.metrics_snapshot = Some(value.to_string()),
            "chaos" => {
                let plan = calibre_fl::FaultPlan::parse(value)
                    .unwrap_or_else(|e| exit_bad_value(key, value, e));
                self.chaos = Some(plan);
            }
            "attack" => {
                let plan = calibre_fl::AttackPlan::parse(value)
                    .unwrap_or_else(|e| exit_bad_value(key, value, e));
                self.attack = Some(plan);
            }
            "detect" => {
                self.detect = Some(
                    value
                        .parse()
                        .unwrap_or_else(|e| exit_bad_value(key, value, e)),
                );
            }
            "min-quorum" => {
                self.min_quorum = Some(
                    value
                        .parse()
                        .unwrap_or_else(|e| exit_bad_value(key, value, e)),
                );
            }
            "aggregator" => {
                let agg = calibre_fl::aggregate::Aggregator::parse_spec(value)
                    .unwrap_or_else(|e| exit_bad_value(key, value, e));
                self.aggregator = Some(agg);
            }
            _ => return false,
        }
        true
    }

    /// Applies the resilience flags to a run's federated configuration:
    /// `--chaos` replaces the (inactive by default) fault plan, and
    /// `--min-quorum` / `--aggregator` override the round policy. Flags
    /// that were not given leave `cfg` untouched.
    pub fn apply_fl(&self, cfg: &mut calibre_fl::FlConfig) {
        if let Some(plan) = &self.chaos {
            cfg.chaos = plan.clone();
        }
        if let Some(plan) = &self.attack {
            cfg.attack = plan.clone();
        }
        if let Some(detect) = self.detect {
            cfg.detect = detect;
        }
        if let Some(quorum) = self.min_quorum {
            cfg.policy.min_quorum = quorum;
        }
        if let Some(aggregator) = self.aggregator {
            cfg.policy.aggregator = aggregator;
        }
    }

    /// Whether any observability flag was given.
    pub fn any(&self) -> bool {
        self.telemetry.is_some()
            || self.trace.is_some()
            || self.profile.is_some()
            || self.metrics_addr.is_some()
    }

    /// Builds the live observability state: opens the JSONL sink, starts
    /// the metrics HTTP server when `--metrics-addr` was given, and
    /// installs the process-wide span collector when `--trace` or
    /// `--profile` was given.
    pub fn build(self) -> Obs {
        let hub = Arc::new(MetricsHub::new());
        // The hub must see events whenever anything renders from it — the
        // end-of-run summary (telemetry) or the live endpoints (metrics).
        let feed_hub = self.telemetry.is_some() || self.metrics_addr.is_some();
        let recorder: Box<dyn Recorder> = match (&self.telemetry, feed_hub) {
            (Some(path), _) => {
                let sink = JsonlSink::create(path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file {path}: {e}"));
                Box::new(
                    Fanout::new()
                        .with(Box::new(sink))
                        .with(Box::new(Arc::clone(&hub))),
                )
            }
            (None, true) => Box::new(Arc::clone(&hub)),
            (None, false) => Box::new(NullRecorder),
        };

        let server = self.metrics_addr.as_ref().map(|addr| {
            // Opt-in flips the process-wide registry on; without the flag
            // no instrumentation site records anything and training stays
            // bit-identical.
            calibre_telemetry::metrics::set_enabled(true);
            let server = MetricsServer::bind(addr, Arc::clone(&hub))
                .unwrap_or_else(|e| panic!("cannot start metrics server: {e}"));
            println!(
                "metrics: serving http://{0}/metrics and http://{0}/status",
                server.local_addr()
            );
            server
        });

        let trace = self
            .trace
            .map(|path| (Arc::new(TraceCollector::new()), path));
        let profile = self
            .profile
            .map(|path| (Arc::new(ProfileCollector::new()), path));
        if trace.is_some() || profile.is_some() {
            let mut fanout = SpanFanout::new();
            if let Some((collector, _)) = &trace {
                fanout = fanout.with(Arc::clone(collector) as Arc<dyn calibre_telemetry::SpanSink>);
            }
            if let Some((collector, _)) = &profile {
                fanout = fanout.with(Arc::clone(collector) as Arc<dyn calibre_telemetry::SpanSink>);
            }
            install_collector(Arc::new(fanout));
        }

        Obs {
            hub,
            recorder,
            telemetry: self.telemetry,
            trace,
            profile,
            server,
            metrics_snapshot: self.metrics_snapshot,
        }
    }
}

/// Live observability state for one bench run. Obtain via
/// [`ObsArgs::build`]; call [`Obs::finish`] exactly once at the end of the
/// run.
pub struct Obs {
    hub: Arc<MetricsHub>,
    recorder: Box<dyn Recorder>,
    telemetry: Option<String>,
    trace: Option<(Arc<TraceCollector>, String)>,
    profile: Option<(Arc<ProfileCollector>, String)>,
    server: Option<MetricsServer>,
    metrics_snapshot: Option<String>,
}

impl Obs {
    /// The recorder to hand to `*_observed` entry points. A `NullRecorder`
    /// unless `--telemetry` was given.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// The in-memory metrics hub fed by [`Obs::recorder`].
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// The live metrics server's bound address (port 0 resolved), when
    /// `--metrics-addr` was given.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// Ends the run: flushes the recorder, writes the final `/metrics`
    /// self-scrape if `--metrics-snapshot` asked for one, stops the metrics
    /// server, uninstalls the span collector, writes the trace/profile
    /// outputs and prints the telemetry summary.
    pub fn finish(mut self) {
        // Explicit flush (recorders also flush on drop, but an explicit
        // flush surfaces write failures while the run's output is still on
        // screen).
        self.recorder.flush();
        drop(self.recorder);

        // Self-scrape over real HTTP before the server goes down — the file
        // is exactly what an external scraper would have seen.
        if let (Some(path), Some(server)) = (&self.metrics_snapshot, &self.server) {
            match http_get(server.local_addr(), "/metrics") {
                Ok(body) => match std::fs::write(path, &body) {
                    Ok(()) => println!("wrote {path}"),
                    Err(e) => eprintln!("metrics snapshot write failed for {path}: {e}"),
                },
                Err(e) => eprintln!("metrics self-scrape failed: {e}"),
            }
        }
        if let Some(server) = &mut self.server {
            server.shutdown();
        }

        if self.trace.is_some() || self.profile.is_some() {
            uninstall_collector();
        }

        // One snapshot struct drives the console summary, the `/status`
        // endpoint, and the `calibre-obs` CLI — they cannot drift apart.
        if self.telemetry.is_some() || self.server.is_some() {
            println!();
            print!("{}", self.hub.snapshot().render_text());
        }
        if let Some(path) = &self.telemetry {
            println!("wrote {path}");
        }

        if let Some((collector, path)) = &self.trace {
            match collector.write_chrome_trace(path) {
                Ok(()) => println!("wrote {path} ({} trace events)", collector.len()),
                Err(e) => eprintln!("trace write failed for {path}: {e}"),
            }
        }

        if let Some((collector, path)) = &self.profile {
            let report = collector.report();
            println!("\n== hot-path profile (top {TOP_N} by self time) ==");
            print!("{}", report.top_self_table(TOP_N));
            if path != "-" {
                match std::fs::write(path, report.to_json()) {
                    Ok(()) => println!("wrote {path}"),
                    Err(e) => eprintln!("profile write failed for {path}: {e}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_consumes_only_observability_flags() {
        let mut args = ObsArgs::default();
        assert!(args.accept("telemetry", "t.jsonl"));
        assert!(args.accept("trace", "t.json"));
        assert!(args.accept("profile", "-"));
        assert!(!args.accept("backend", "scalar"), "--backend is gone");
        assert!(!args.accept("scale", "smoke"));
        assert!(args.any());
        assert_eq!(args.telemetry.as_deref(), Some("t.jsonl"));
        assert_eq!(args.trace.as_deref(), Some("t.json"));
        assert_eq!(args.profile.as_deref(), Some("-"));
    }

    #[test]
    fn resilience_flags_are_parsed_and_applied() {
        let mut args = ObsArgs::default();
        assert!(args.accept("chaos", "drop=0.3,corrupt=0.1,seed=42"));
        assert!(args.accept("attack", "flip=0.1,scale=10:0.05,seed=7"));
        assert!(args.accept("detect", "true"));
        assert!(args.accept("min-quorum", "2"));
        assert!(args.accept("aggregator", "trimmed:0.1"));

        let mut cfg = calibre_fl::FlConfig::for_input(64);
        assert!(!cfg.chaos.is_active());
        assert!(!cfg.attack.is_active());
        args.apply_fl(&mut cfg);
        assert!(cfg.chaos.is_active());
        assert_eq!(cfg.chaos.drop_prob, 0.3);
        assert_eq!(cfg.chaos.seed, 42);
        assert!(cfg.attack.is_active());
        assert_eq!(cfg.attack.flip_prob, 0.1);
        assert_eq!(cfg.attack.scale_factor, 10.0);
        assert_eq!(cfg.attack.seed, 7);
        assert!(cfg.detect);
        assert_eq!(cfg.policy.min_quorum, 2);
        assert_eq!(
            cfg.policy.aggregator,
            calibre_fl::aggregate::Aggregator::TrimmedMean(0.1)
        );

        // Absent flags leave the config alone.
        let mut untouched = calibre_fl::FlConfig::for_input(64);
        let before = untouched.clone();
        ObsArgs::default().apply_fl(&mut untouched);
        assert_eq!(untouched, before);
    }

    #[test]
    fn default_args_build_an_inert_obs() {
        let obs = ObsArgs::default().build();
        // No collector must be installed when no flag asked for one.
        assert!(!calibre_telemetry::collector_installed());
        obs.recorder().personalize(0, 0.5);
        assert!(obs.hub().fairness_summary().is_none(), "NullRecorder path");
        assert!(obs.metrics_addr().is_none());
        obs.finish();
    }

    #[test]
    fn metrics_server_serves_live_and_writes_the_snapshot() {
        let mut args = ObsArgs::default();
        assert!(args.accept("metrics-addr", "127.0.0.1:0"));
        let snap_path = std::env::temp_dir().join("calibre_obs_test_metrics.prom");
        assert!(args.accept("metrics-snapshot", snap_path.to_str().unwrap()));
        assert!(args.any());

        let obs = args.build();
        // Without --telemetry the hub must still be fed — /status and
        // /metrics render from it.
        obs.recorder().personalize(0, 0.5);
        obs.recorder().personalize(1, 0.7);
        assert!(obs.hub().fairness_summary().is_some());

        let addr = obs.metrics_addr().expect("server must be running");
        let body = calibre_telemetry::export::http_get(addr, "/metrics").expect("live scrape");
        assert!(body.contains("calibre_fairness_accuracy_mean 0.6"));
        assert!(body.contains("calibre_fairness_clients 2"));
        let status = calibre_telemetry::export::http_get(addr, "/status").expect("status scrape");
        assert!(status.contains("\"fairness\":{\"num_clients\":2"));

        obs.finish();
        let written = std::fs::read_to_string(&snap_path).expect("snapshot file written");
        assert!(written.contains("calibre_fairness_worst_decile"));
        let _ = std::fs::remove_file(&snap_path);
    }
}
