//! # calibre-bench
//!
//! Experiment harness regenerating every table and figure of the Calibre
//! paper (ICDCS 2024). See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured records.
//!
//! Binaries:
//!
//! - `fig3` — mean/variance of personalized accuracy across methods, three
//!   datasets, Q- and D-non-i.i.d. (paper Fig. 3);
//! - `fig4` — seen + novel client cohorts under D-non-i.i.d. (paper Fig. 4);
//! - `table1` — the `L_n`/`L_p` ablation for Calibre (SimCLR/SwAV/SMoG)
//!   (paper Table I);
//! - `tsne` — 2-D embeddings + cluster-quality metrics for the qualitative
//!   figures (paper Figs. 1, 2, 5–8);
//! - `calibre-obs` — offline queries over recorded JSONL telemetry:
//!   run summaries, per-round drill-downs, fairness tables, and
//!   threshold-gated diffs between two runs (see [`obsquery`]).
//!
//! All binaries accept `--scale smoke|default|paper` to trade fidelity for
//! wall-clock time; `paper` restores the publication's 100 clients × 200
//! rounds. The shared observability flags (`--telemetry <path>`,
//! `--trace <path>`, `--profile <path>`; see [`obs`]) stream round-level
//! JSONL events, export a Perfetto-compatible Chrome trace of the span
//! layer, and print/write an aggregated hot-path profile (see
//! `calibre-telemetry` and the README's "Observing a run" and "Profiling a
//! run" walkthroughs).
//!
//! **Role in Algorithm 1:** the driver. Every binary runs the federated
//! *training* stage to produce an encoder and the *personalization* stage to
//! score it, at the scale the experiment calls for.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod obs;
pub mod obsquery;
pub mod registry;
pub mod report;
pub mod scale;

pub use registry::{run_method, run_method_observed, MethodId};
pub use scale::{build_dataset, DatasetId, Scale, Setting};

/// Parses `--key value` style CLI arguments into (key, value) pairs.
///
/// Returns an error message for a dangling key.
pub fn parse_args(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with("--") {
            return Err(format!("expected --flag, got {key}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        out.push((key.trim_start_matches("--").to_string(), value.clone()));
        i += 2;
    }
    Ok(out)
}

/// [`parse_args`] for a binary's `main`: an argument error is printed on
/// stderr and the process exits 2 instead of panicking.
pub fn parse_args_or_exit(args: &[String]) -> Vec<(String, String)> {
    parse_args(args).unwrap_or_else(|e| {
        eprintln!("argument error: {e}");
        std::process::exit(2)
    })
}

/// Prints a bad flag value's error (a spec error names the keyword and
/// its byte span) on stderr and exits 2, as [`parse_args_or_exit`] does.
pub fn exit_bad_value(flag: &str, value: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("argument error: bad --{flag} value {value:?}: {err}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_handles_pairs() {
        let args: Vec<String> = ["--scale", "smoke", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed[0], ("scale".to_string(), "smoke".to_string()));
        assert_eq!(parsed[1], ("seed".to_string(), "7".to_string()));
    }

    #[test]
    fn parse_args_rejects_dangling_flag() {
        let args: Vec<String> = ["--scale"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn parse_args_rejects_bare_value() {
        let args: Vec<String> = ["smoke"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&args).is_err());
    }
}
