//! `cohort_robust`: the serve engine in-process over the simulated client
//! workload (`serve::run_in_process`). Each round samples 2 000 of 20 000
//! clients, dim 1024, with a coordinate-median aggregator that holds every
//! update until `finish`, a seeded attack plan (sign-flip + amplified
//! scale), client chaos (drop + corrupt), and detection/quarantine.
//!
//! Outside the timed window, one sampled round is re-run with a capturing
//! transport and its aggregate is checked against a weighted
//! per-coordinate median computed here.

use std::sync::Arc;

use calibre_fl::adversary::{AttackInjector, AttackPlan};
use calibre_fl::aggregate::Aggregator;
use calibre_fl::chaos::{ClientFault, FaultInjector, FaultPlan};
use calibre_fl::serve::{run_in_process, run_rounds, sim_update, ServeConfig};
use calibre_fl::transport::{
    InProcessTransport, StreamUpdate, Transport, TransportError, WaveSlot,
};
use calibre_fl::RoundPolicy;

use crate::report::{self, Report};
use crate::timeline::{attribute, BenchRecorder, ClientProbe, Mark, Timeline, TracingTransport};
use crate::{Ctx, Run};

const POPULATION: usize = 20_000;
const COHORT: usize = 2_000;
const DIM: usize = 1024;
const WAVE: usize = 500;

/// The serve configuration of the workload.
pub fn config(seed: u64, rounds: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        population: POPULATION,
        cohort: COHORT,
        rounds,
        dim: DIM,
        wave: WAVE,
        seed,
        ..ServeConfig::smoke()
    };
    cfg.policy = RoundPolicy {
        aggregator: Aggregator::CoordinateMedian,
        ..RoundPolicy::default()
    };
    cfg.attack = AttackPlan {
        flip_prob: 0.05,
        scale_prob: 0.05,
        scale_factor: -8.0,
        seed: seed ^ 0xA77A_C4ED,
        ..AttackPlan::default()
    };
    cfg.chaos = FaultPlan {
        drop_prob: 0.03,
        corrupt_prob: 0.02,
        seed: seed ^ 0xC4A0_5EED,
        ..FaultPlan::default()
    };
    cfg.detect = true;
    cfg
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<Run, String> {
    let cfg = config(ctx.seed, ctx.total_rounds());
    let timeline = Timeline::new(ctx.clock.clone());
    let first_timed = ctx.workload.warmup_rounds();
    let recorder = BenchRecorder::new(&timeline, first_timed);
    let outcome = if ctx.trace {
        let probe = Arc::new(ClientProbe::new(cfg.population));
        let seed = cfg.seed;
        let work_probe = Arc::clone(&probe);
        let inner = InProcessTransport::new(move |round, client, global: &[f32]| {
            work_probe.time(client, || sim_update(seed, round, client, global))
        });
        let mut transport = TracingTransport::new(inner, &timeline, probe);
        run_rounds(&cfg, &mut transport, &recorder)
    } else {
        run_in_process(&cfg, &recorder)
    }
    .map_err(|e| format!("cohort run: {e}"))?;
    timeline.push(Mark::End);
    let proc = report::proc_delta(recorder.window_start()?)?;
    let (rounds, spans) = attribute(&timeline.marks(), crate::threads());
    let setup_ns = rounds.get(first_timed).map_or(0, |r| r.start);
    let run = Run {
        rounds,
        spans,
        proc,
        setup_ns,
        checksum: outcome.checksum,
        payload_bytes: (2 * DIM * std::mem::size_of::<f32>()) as f64,
    };
    if ctx.child {
        return Ok(run);
    }

    report::check_rounds(report, &run.rounds, cfg.rounds);
    // model_{r+1} = model_r + aggregate_r from a finite start, and a
    // non-finite coordinate never becomes finite again under addition, so
    // a finite final model means every aggregate was finite.
    report.check(
        outcome.model.iter().all(|v| v.is_finite()) && outcome.model.len() == DIM,
        "the final model is not finite",
    );
    report.check(
        outcome.rounds_run == cfg.rounds && outcome.skipped_rounds == 0,
        format!(
            "{} rounds run, {} skipped",
            outcome.rounds_run, outcome.skipped_rounds
        ),
    );
    check_reference_round(ctx, &cfg, report, notes)?;
    Ok(run)
}

/// A transport that keeps round `round`'s global model and replies.
struct Capture<T> {
    inner: T,
    round: usize,
    global: Option<Vec<f32>>,
    replies: Vec<(usize, Option<StreamUpdate>)>,
    slots: usize,
}

impl<T: Transport> Transport for Capture<T> {
    fn wave(
        &mut self,
        round: usize,
        slots: &[WaveSlot],
        global: &[f32],
    ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
        let out = self.inner.wave(round, slots, global)?;
        if round == self.round {
            self.global.get_or_insert_with(|| global.to_vec());
            self.slots += slots.len();
            self.replies
                .extend(slots.iter().map(|s| s.client).zip(out.iter().cloned()));
        }
        Ok(out)
    }

    fn finish(&mut self, rounds: usize, checksum: u64) -> Result<(), TransportError> {
        self.inner.finish(rounds, checksum)
    }
}

/// Re-runs rounds `0..=k` for a seed-chosen `k`, rebuilds what the
/// aggregator saw in round `k` (attack, then chaos corruption, then the
/// finite check), and checks the engine's model step against the weighted
/// coordinate median computed here.
fn check_reference_round(
    ctx: &Ctx,
    cfg: &ServeConfig,
    report: &mut Report,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let k = 1 + (ctx.seed % 3) as usize;
    let mut short = cfg.clone();
    short.rounds = k + 1;
    let seed = cfg.seed;
    let mut capture = Capture {
        inner: InProcessTransport::new(move |round, client, global: &[f32]| {
            sim_update(seed, round, client, global)
        }),
        round: k,
        global: None,
        replies: Vec::new(),
        slots: 0,
    };
    let timeline = Timeline::new(ctx.clock.clone());
    let recorder = BenchRecorder::new(&timeline, usize::MAX);
    let outcome =
        run_rounds(&short, &mut capture, &recorder).map_err(|e| format!("reference run: {e}"))?;
    timeline.push(Mark::End);
    let (rounds, _) = attribute(&timeline.marks(), 1);
    let Some(phases) = rounds.get(k) else {
        report.check(false, format!("reference run has no round {k}"));
        return Ok(());
    };
    let Some(global) = capture.global else {
        report.check(false, format!("round {k} dispatched no wave"));
        return Ok(());
    };

    let attacker = AttackInjector::for_run(cfg.attack.clone(), cfg.seed);
    let chaos = FaultInjector::for_run(cfg.chaos.clone(), cfg.seed);
    let mut accepted: Vec<(Vec<f32>, f32)> = Vec::new();
    let mut rejected = 0usize;
    let mut undelivered = 0usize;
    for (client, reply) in capture.replies {
        let Some(reply) = reply else {
            undelivered += 1;
            continue;
        };
        let mut update = reply.update;
        if let Some(kind) = attacker.decide(k, client) {
            attacker.apply(k, client, kind, &mut update);
        }
        if let Some(ClientFault::Corrupt(kind)) = chaos.decide(k, client, 0) {
            chaos.corrupt(k, client, 0, kind, &mut update);
        }
        if update.iter().all(|v| v.is_finite()) {
            accepted.push((update, reply.weight));
        } else {
            rejected += 1;
        }
    }
    let dropped = phases.selected() - capture.slots + undelivered;
    report.check(
        accepted.len() == phases.accepted && dropped + rejected == phases.failed,
        format!(
            "round {k}: reference accepts {} and fails {} (dropped {dropped} + rejected {rejected}); \
             the engine reported {} and {}",
            accepted.len(),
            dropped + rejected,
            phases.accepted,
            phases.failed
        ),
    );

    let next = &outcome.model;
    let reference = weighted_median(&accepted, DIM);
    let mut worst = 0.0f32;
    let mut ok = next.len() == DIM && global.len() == DIM;
    for ((&n, &g), &m) in next.iter().zip(&global).zip(&reference) {
        // The median is one of the inputs, so the step is exact.
        let diff = (n - (g + m)).abs();
        worst = worst.max(diff);
        ok &= diff == 0.0;
    }
    report.check(
        ok,
        format!("round {k}: aggregate differs from the reference by up to {worst:e}"),
    );
    notes.push(format!(
        "reference round {k}: {} accepted, {rejected} rejected, {dropped} dropped, max |diff| {worst:e}",
        accepted.len()
    ));
    Ok(())
}

/// Per coordinate, the smallest value whose cumulative weight reaches half
/// the total weight (uniform weights when the total is not positive).
fn weighted_median(updates: &[(Vec<f32>, f32)], dim: usize) -> Vec<f32> {
    let total: f32 = updates.iter().map(|(_, w)| *w).sum();
    let uniform = total <= 0.0;
    let half = if uniform { updates.len() as f32 } else { total } * 0.5;
    let mut column: Vec<(f32, f32)> = Vec::with_capacity(updates.len());
    (0..dim)
        .map(|j| {
            column.clear();
            column.extend(
                updates
                    .iter()
                    .map(|(u, w)| (u[j], if uniform { 1.0 } else { *w })),
            );
            column.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut acc = 0.0f32;
            let mut median = column.last().map_or(0.0, |c| c.0);
            for &(v, w) in &column {
                acc += w;
                if acc >= half {
                    median = v;
                    break;
                }
            }
            median
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_median_takes_the_first_value_past_half_the_weight() {
        let ups = vec![
            (vec![3.0, -1.0], 1.0),
            (vec![1.0, -2.0], 1.0),
            (vec![2.0, 5.0], 3.0),
        ];
        // Column 0 sorted: 1 (w1), 2 (w3) → cumulative 4 ≥ 2.5 at 2.
        // Column 1 sorted: -2 (w1), -1 (w1), 5 (w3) → reaches 2.5 at 5.
        assert_eq!(weighted_median(&ups, 2), vec![2.0, 5.0]);
    }
}
