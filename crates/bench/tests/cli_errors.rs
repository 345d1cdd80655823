//! Argument errors end a binary with exit code 2 and a message on stderr,
//! never with a panic.

use std::process::{Command, Stdio};

/// Runs `exe` with `args` and checks that it exits 2, says why on stderr,
/// and does not panic.
fn exits_2(exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{exe} {args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{exe} {args:?} printed no error");
}

#[test]
fn help_and_unknown_flags_exit_2_without_a_panic() {
    for exe in [
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_attack"),
        env!("CARGO_BIN_EXE_calibre-client"),
        env!("CARGO_BIN_EXE_calibre-serve"),
        env!("CARGO_BIN_EXE_cohort"),
        env!("CARGO_BIN_EXE_convergence"),
        env!("CARGO_BIN_EXE_diag"),
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_tsne"),
    ] {
        exits_2(exe, &["--help"]);
        exits_2(exe, &["--bogus", "1"]);
    }
}

#[test]
fn bad_spec_values_exit_2_without_a_panic() {
    // Every binary whose flags go through `ObsArgs::accept`.
    for exe in [
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_attack"),
        env!("CARGO_BIN_EXE_calibre-serve"),
        env!("CARGO_BIN_EXE_cohort"),
        env!("CARGO_BIN_EXE_convergence"),
        env!("CARGO_BIN_EXE_diag"),
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_tsne"),
    ] {
        exits_2(exe, &["--chaos", "bogus=1"]);
        exits_2(exe, &["--aggregator", "bogus"]);
    }
    // `calibre-serve` parses its own specs.
    let serve = env!("CARGO_BIN_EXE_calibre-serve");
    exits_2(serve, &["--attack", "bogus=1"]);
    exits_2(serve, &["--smoke", "true", "--chaos", "net-bogus=1"]);
    let cohort = env!("CARGO_BIN_EXE_cohort");
    exits_2(cohort, &["--min-quorum", "x"]);
    // A hierarchical sink folds a weighted average; it cannot run a
    // robust aggregator.
    exits_2(cohort, &["--groups", "4", "--aggregator", "median"]);
}
