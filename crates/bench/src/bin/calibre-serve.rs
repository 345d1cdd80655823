//! `calibre-serve` — round orchestration over the wire protocol.
//!
//! Binds a listener, registers the full client population, drives the
//! federated rounds through `calibre_fl::serve::run_server`, and prints
//! the final model fingerprint:
//!
//! ```text
//! calibre-serve --smoke true --addr 127.0.0.1:7461 \
//!     --chaos net-drop=0.25,net-delay=0.2,net-truncate=0.1,net-churn=0.2 \
//!     --check-golden true
//! ```
//!
//! Flags:
//!
//! - `--smoke true` — the CI loopback configuration (4 clients, cohort 3,
//!   3 rounds); individual `--population/--cohort/--rounds/--dim/--wave/`
//!   `--seed/--min-quorum` flags override it or build a config from the
//!   defaults;
//! - `--addr <host:port>` — TCP listen address (default `127.0.0.1:0`,
//!   printed once bound); `--uds <path>` serves a Unix socket instead;
//! - `--chaos <spec>` — combined fault spec: classic client keys
//!   (`drop=`, `corrupt=`, …) go to the scheduler, `net-*` keys
//!   (`net-drop=`, `net-delay=`, `net-delay-ms=`, `net-truncate=`,
//!   `net-partition=`, `net-churn=`) to the wire injector;
//! - `--attack <spec>` — seeded Byzantine-client simulation, e.g.
//!   `flip=0.1,scale=10:0.05,replace=0.05,noise=0.1,collude=0.1,seed=7`
//!   (applied identically on every transport);
//! - `--detect true` — anomaly detection + quarantine (quarantined clients
//!   stop being sampled; reputation persists through `--checkpoint`);
//! - `--aggregator <name>` — defense-grade aggregation:
//!   `weighted|median|trimmed[:r]|krum[:f]|multi-krum:f:m|geomedian|normbound:max|clip:tau`;
//! - `--check-golden true` — also run the identical config in-process and
//!   exit non-zero unless the socket run's final model is bit-identical;
//! - `--checkpoint <path>` — crash-safe server checkpoint;
//! - the shared observability flags (`--metrics-addr`,
//!   `--metrics-snapshot`, `--telemetry`, …).

use calibre_bench::obs::ObsArgs;
use calibre_bench::{exit_bad_value, parse_args_or_exit};
use calibre_fl::chaos::parse_combined_spec;
use calibre_fl::serve::{run_in_process, run_server, ServeConfig};
use calibre_fl::Listener;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);

    let mut cfg = ServeConfig::smoke();
    let mut smoke = false;
    let mut addr = "127.0.0.1:0".to_string();
    let mut uds: Option<String> = None;
    let mut check_golden = false;
    let mut obs_args = ObsArgs::default();
    for (key, value) in &parsed {
        match key.as_str() {
            "smoke" => smoke = value == "true",
            "addr" => addr = value.clone(),
            "uds" => uds = Some(value.clone()),
            "population" => cfg.population = value.parse().expect("--population"),
            "cohort" => cfg.cohort = value.parse().expect("--cohort"),
            "rounds" => cfg.rounds = value.parse().expect("--rounds"),
            "dim" => cfg.dim = value.parse().expect("--dim"),
            "wave" => cfg.wave = value.parse().expect("--wave"),
            "seed" => cfg.seed = value.parse().expect("--seed"),
            "min-quorum" => cfg.policy.min_quorum = value.parse().expect("--min-quorum"),
            "check-golden" => check_golden = value == "true",
            "checkpoint" => cfg.checkpoint = Some(value.into()),
            "register-patience-ms" => {
                cfg.net.register_patience = value.parse().expect("--register-patience-ms");
            }
            "chaos" => {
                let (client, wire) =
                    parse_combined_spec(value).unwrap_or_else(|e| exit_bad_value(key, value, e));
                cfg.chaos = client;
                cfg.wire = wire;
            }
            "attack" => {
                cfg.attack = calibre_fl::AttackPlan::parse(value)
                    .unwrap_or_else(|e| exit_bad_value(key, value, e));
            }
            "detect" => cfg.detect = value == "true",
            "aggregator" => {
                cfg.policy.aggregator = calibre_fl::aggregate::Aggregator::parse_spec(value)
                    .unwrap_or_else(|e| exit_bad_value(key, value, e));
            }
            _ => {
                if !obs_args.accept(key, value) {
                    eprintln!("unknown flag --{key}");
                    std::process::exit(2);
                }
            }
        }
    }
    let _ = smoke; // --smoke selects the defaults, which already are smoke()

    // Real processes start at different times; be generous about assembly.
    cfg.net.register_patience = cfg.net.register_patience.max(30_000);

    let obs = obs_args.build();
    println!(
        "serve: population={} cohort={} rounds={} dim={} wave={} seed={:#x} quorum={}",
        cfg.population, cfg.cohort, cfg.rounds, cfg.dim, cfg.wave, cfg.seed, cfg.policy.min_quorum
    );
    if cfg.chaos.is_active() || cfg.wire.is_active() {
        println!(
            "serve: chaos active (client={}, wire={})",
            cfg.chaos.is_active(),
            cfg.wire.is_active()
        );
    }
    if cfg.attack.is_active() || cfg.detect {
        println!(
            "serve: adversary simulation (attack={}, detect={}, aggregator={})",
            cfg.attack.is_active(),
            cfg.detect,
            cfg.policy.aggregator.name()
        );
    }

    let listener = match &uds {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            Listener::bind_uds(std::path::Path::new(path))
        }
        None => Listener::bind_tcp(&addr),
    }
    .unwrap_or_else(|e| panic!("cannot bind: {e}"));
    println!("serving on {}", listener.local_addr());

    let outcome =
        run_server(&cfg, listener, obs.recorder()).unwrap_or_else(|e| panic!("serve failed: {e}"));
    println!(
        "rounds={} accepted={} dropped={} skipped={}",
        outcome.rounds_run, outcome.accepted_total, outcome.dropped_total, outcome.skipped_rounds
    );
    println!("final model checksum {:016x}", outcome.checksum);

    let mut ok = true;
    if check_golden {
        let mut golden_cfg = cfg;
        golden_cfg.checkpoint = None;
        let golden = run_in_process(&golden_cfg, &calibre_telemetry::NullRecorder)
            .unwrap_or_else(|e| panic!("in-process golden failed: {e}"));
        if golden.model == outcome.model {
            println!(
                "golden check: ok (in-process checksum {:016x})",
                golden.checksum
            );
        } else {
            eprintln!(
                "golden check FAILED: socket {:016x} != in-process {:016x}",
                outcome.checksum, golden.checksum
            );
            ok = false;
        }
    }

    obs.finish();
    if !ok {
        std::process::exit(1);
    }
}
