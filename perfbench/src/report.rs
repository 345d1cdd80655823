//! The result line and the figures derived from a run's rounds.

use crate::procfs::{self, HostCpu, SelfStat, TICKS_PER_S};
use crate::stats;
use crate::timeline::RoundPhases;

/// What one benchmark invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric; a non-finite value fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), format!("{name} is not finite: {value}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Puts the metrics in `names` order, adding 0 for any `names` entry
    /// not reported (a layer the workload does not exercise). A reported
    /// metric outside `names` or with another unit fails the run.
    pub fn conform(&mut self, names: &[(&str, &'static str)]) {
        let mut out = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            match self.metrics.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let m = self.metrics.remove(i);
                    if m.2 != unit {
                        self.failures
                            .push(format!("{name} reported in {} not {unit}", m.2));
                    }
                    out.push(m);
                }
                None => out.push((name.to_string(), 0.0, unit)),
            }
        }
        for (name, _, _) in self.metrics.drain(..) {
            self.failures
                .push(format!("metric {name} is not in the benchmark's list"));
        }
        self.metrics = out;
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result object (the last line of standard output).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Process and host counters at the start of the timed rounds.
#[derive(Debug, Clone, Copy)]
pub struct ProcMark {
    pub stat: SelfStat,
    pub host: HostCpu,
}

impl ProcMark {
    /// Reads both counters now.
    pub fn now() -> Result<ProcMark, String> {
        Ok(ProcMark {
            stat: procfs::self_stat()?,
            host: procfs::host_cpu()?,
        })
    }
}

/// Process figures over the timed rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
    pub steal_share: f64,
    pub peak_rss_mib: f64,
}

/// Counter deltas from `start` to now.
pub fn proc_delta(start: ProcMark) -> Result<ProcDelta, String> {
    let end = ProcMark::now()?;
    Ok(ProcDelta {
        user_s: end.stat.utime.saturating_sub(start.stat.utime) as f64 / TICKS_PER_S,
        sys_s: end.stat.stime.saturating_sub(start.stat.stime) as f64 / TICKS_PER_S,
        minflt: end.stat.minflt.saturating_sub(start.stat.minflt),
        steal_share: procfs::steal_share(start.host, end.host),
        peak_rss_mib: procfs::peak_rss_mib()?,
    })
}

/// The timed rounds of a run and what the process spent on them.
pub struct Window<'a> {
    pub timed: &'a [RoundPhases],
    pub proc: ProcDelta,
}

impl Window<'_> {
    /// Wall times of the timed rounds, ms.
    pub fn round_ms(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|r| r.wall_ns() as f64 / 1e6)
            .collect()
    }

    /// Seconds spent in the timed rounds.
    pub fn seconds(&self) -> f64 {
        self.timed.iter().map(|r| r.wall_ns() as f64).sum::<f64>() / 1e9
    }

    /// Number of timed rounds (at least 1 for division).
    pub fn n(&self) -> f64 {
        self.timed.len().max(1) as f64
    }

    /// Accepted client updates in the timed rounds.
    pub fn accepted(&self) -> f64 {
        self.timed.iter().map(|r| r.accepted as f64).sum()
    }

    /// Mean of `f` over the timed rounds.
    pub fn per_round(&self, f: impl Fn(&RoundPhases) -> f64) -> f64 {
        self.timed.iter().map(f).sum::<f64>() / self.n()
    }
}

/// Client updates attempted and failed over every round run: a failure is
/// an update dropped, rejected or undelivered, or accepted into a round
/// that then missed its quorum.
pub fn attempts(rounds: &[RoundPhases]) -> (u64, u64) {
    let attempted: usize = rounds.iter().map(|r| r.selected()).sum();
    let failed: usize = rounds
        .iter()
        .map(|r| {
            let lost = r.selected().saturating_sub(r.accepted);
            if r.skipped {
                lost + r.accepted
            } else {
                lost
            }
        })
        .sum();
    (attempted as u64, failed as u64)
}

/// Checks every round's accounting: it aggregated once, its aggregate
/// weight is finite, and accepted + dropped + rejected = selected.
pub fn check_rounds(report: &mut Report, rounds: &[RoundPhases], expected: usize) {
    report.check(
        rounds.len() == expected,
        format!("ran {} rounds, expected {expected}", rounds.len()),
    );
    for r in rounds {
        report.check(r.aggregated, format!("round {} never aggregated", r.round));
        report.check(
            r.aggregate_weight_finite,
            format!("round {}: aggregate weight is not finite", r.round),
        );
        report.check(
            r.accepted + r.failed == r.selected(),
            format!(
                "round {}: accepted {} + dropped/rejected {} != selected {}",
                r.round,
                r.accepted,
                r.failed,
                r.selected()
            ),
        );
        report.check(
            r.losses_finite,
            format!("round {}: non-finite loss", r.round),
        );
    }
}

/// The end-to-end metrics every workload reports. `payload_bytes` is the
/// f32 model payload one accepted client moves (model down + update up).
pub fn end_to_end(report: &mut Report, w: &Window<'_>, setup_s: f64, payload_bytes: f64) {
    let ms = w.round_ms();
    let secs = w.seconds();
    report.metric("setup_s", setup_s, "s");
    report.metric("rounds_per_s", w.timed.len() as f64 / secs, "1/s");
    report.metric("round_ms_p50", stats::median(&ms), "ms");
    match stats::tail(&ms) {
        Some(t) => report.metric("round_ms_tail", t.value, "ms"),
        None => report.check(false, format!("{} timed rounds leave no tail", ms.len())),
    }
    report.metric(
        "cpu_ms_per_round",
        (w.proc.user_s + w.proc.sys_s) * 1e3 / w.n(),
        "ms",
    );
    report.metric("peak_rss_mib", w.proc.peak_rss_mib, "MiB");
    report.metric(
        "model_mib_per_s",
        w.accepted() * payload_bytes / secs / (1024.0 * 1024.0),
        "MiB/s",
    );
}

/// Diagnostic lines printed beside the metrics.
pub fn host_notes(w: &Window<'_>, load: Option<[f64; 3]>) -> Vec<String> {
    let cpu = w.proc.user_s + w.proc.sys_s;
    let mut notes = vec![
        format!(
            "host threads={} load_at_start={} steal_share={:.4}",
            crate::threads(),
            load.map_or("unknown".to_string(), |l| format!(
                "{:.2}/{:.2}/{:.2}",
                l[0], l[1], l[2]
            )),
            w.proc.steal_share
        ),
        format!(
            "process user_s={:.2} sys_s={:.2} sys_share={:.4} minor_faults_per_round={:.1}",
            w.proc.user_s,
            w.proc.sys_s,
            if cpu > 0.0 { w.proc.sys_s / cpu } else { 0.0 },
            w.proc.minflt as f64 / w.n()
        ),
    ];
    let count = |f: fn(&RoundPhases) -> usize| w.timed.iter().map(f).sum::<usize>();
    notes.push(format!(
        "events in timed rounds: attack={} quarantine={} fault={} round_resilience={}",
        count(|r| r.attacks),
        count(|r| r.quarantines),
        count(|r| r.faults),
        count(|r| r.resilience_events)
    ));
    let ms = w.round_ms();
    if let (Some(t), Some(whole)) = (stats::tail(&ms), stats::whole_run_tail(&ms)) {
        notes.push(format!(
            "round_ms_tail is p{} of {} timed rounds ({} beyond), median over {} block(s); \
             whole-run p{} ({} beyond) is {:.3} ms (not gated)",
            t.percentile, t.count, t.beyond, t.blocks, whole.percentile, whole.beyond, whole.value
        ));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.metric("bad", f64::NAN, "ms");
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn attempts_count_skipped_rounds_as_failed() {
        let ok = RoundPhases {
            clients: (0..10).collect(),
            accepted: 8,
            failed: 2,
            ..RoundPhases::default()
        };
        let skipped = RoundPhases {
            clients: (0..5).collect(),
            accepted: 1,
            failed: 4,
            skipped: true,
            ..RoundPhases::default()
        };
        assert_eq!(attempts(&[ok, skipped]), (15, 7));
    }
}
