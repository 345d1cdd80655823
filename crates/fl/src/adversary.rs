//! Seeded Byzantine-client attack injection, anomaly scoring, and
//! reputation-based quarantine.
//!
//! The chaos layer ([`crate::chaos`]) models *accidental* failure —
//! dropouts, stragglers, crashes, bit rot. This module models *adversarial*
//! failure: clients that complete their round on time and return a finite,
//! well-shaped update crafted to poison the global model. Calibre's whole
//! contribution is the mean/variance fairness of per-client accuracy, and
//! nothing degrades tail-client fairness faster than a few such clients, so
//! the threat model gets the same treatment the fault model got: every
//! attack decision is a pure function of `(plan seed, run seed, round,
//! client)` and replays bit-for-bit — in process or over a socket — from
//! the seeds alone.
//!
//! Defending is split across three seams, mirroring chaos and the round
//! engine:
//!
//! - **injection** happens server-side at the same point chaos corruption
//!   does, so the round engine observes the identical attacked bytes on
//!   every transport, in training and in serving;
//! - **robust aggregation** (Krum, geometric median, norm bounding — see
//!   [`crate::aggregate::Aggregator`]) absorbs what validation cannot
//!   detect;
//! - **detection + quarantine** ([`anomaly_scores`], [`ReputationBook`])
//!   scores every accepted update against the cohort, accumulates
//!   suspicion across rounds, and feeds the quarantine set back into
//!   cohort sampling so persistent adversaries stop being drawn.
//!
//! # Spec strings
//!
//! Bench binaries accept `--attack <spec>` where `<spec>` is a comma list
//! of `key=value` pairs, e.g. `flip=0.1,scale=10:0.05,noise=0.1`:
//!
//! | key       | meaning                                               | default |
//! |-----------|-------------------------------------------------------|---------|
//! | `flip`    | per-(round, client) sign-flip probability             | 0       |
//! | `scale`   | `factor:prob` — scaling / model-replacement attack    | 10, 0   |
//! | `replace` | per-(round, client) model-replacement probability     | 0       |
//! | `noise`   | inlier-fitted additive-noise probability ("a little   | 0       |
//! |           | is enough"-style: perturbation sized to the update's  |         |
//! |           | own coordinate statistics, so it passes norm checks)  |         |
//! | `collude` | colluding-group probability — all colluders in a      | 0       |
//! |           | round push the same seeded direction                  |         |
//! | `seed`    | attack seed (mixed with the run seed)                 | 0       |
//!
//! The default plan is inactive: training is bit-identical to a build
//! without this module, which the golden checksum and transport-identity
//! tests pin.

use crate::spec::SpecError;
use calibre_tensor::rng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One adversarial behaviour assigned to one `(round, client)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Negate the update: norm-preserving, undetectable by magnitude
    /// screens, absorbed only by robust aggregation.
    SignFlip,
    /// Multiply the update by the plan's scale factor — the classic
    /// model-replacement amplification.
    Scale,
    /// Replace the update wholesale with a seeded adversarial direction at
    /// an amplified norm.
    Replace,
    /// Add noise fitted to the update's own per-coordinate statistics
    /// ("a little is enough"): small enough to look like an inlier, biased
    /// enough to drag the aggregate.
    InlierNoise,
    /// Replace the update with the round's shared collusion direction,
    /// scaled to the honest update's norm so the group passes norm checks
    /// while pulling together.
    Collude,
}

impl AttackKind {
    /// Telemetry tag for this attack kind.
    pub fn kind_tag(self) -> &'static str {
        match self {
            AttackKind::SignFlip => "attack_flip",
            AttackKind::Scale => "attack_scale",
            AttackKind::Replace => "attack_replace",
            AttackKind::InlierNoise => "attack_noise",
            AttackKind::Collude => "attack_collude",
        }
    }
}

/// Per-(round, client) attack probabilities for an adversarial run.
///
/// The default plan is inactive (all probabilities zero); the round loop
/// takes the exact nominal path and stays bit-identical to main.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// Probability a client's update is sign-flipped.
    pub flip_prob: f32,
    /// Probability a client's update is scaled by [`AttackPlan::scale_factor`].
    pub scale_prob: f32,
    /// Amplification factor for the scaling attack.
    pub scale_factor: f32,
    /// Probability a client's update is replaced with a seeded adversarial
    /// direction.
    pub replace_prob: f32,
    /// Probability a client's update gets inlier-fitted additive noise.
    pub noise_prob: f32,
    /// Probability a client joins the round's colluding group.
    pub collude_prob: f32,
    /// Attack seed, mixed with the run seed by [`AttackInjector::for_run`].
    pub seed: u64,
}

impl Default for AttackPlan {
    fn default() -> Self {
        AttackPlan {
            flip_prob: 0.0,
            scale_prob: 0.0,
            scale_factor: 10.0,
            replace_prob: 0.0,
            noise_prob: 0.0,
            collude_prob: 0.0,
            seed: 0,
        }
    }
}

impl AttackPlan {
    /// Whether any attack has a nonzero probability. An inactive plan means
    /// the round loop takes the exact nominal path.
    pub fn is_active(&self) -> bool {
        self.flip_prob > 0.0
            || self.scale_prob > 0.0
            || self.replace_prob > 0.0
            || self.noise_prob > 0.0
            || self.collude_prob > 0.0
    }

    /// Parses a `--attack` spec string (see the module docs for the table).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending key and its byte span
    /// in `spec` on unknown keys, malformed numbers, or probabilities
    /// outside `[0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use calibre_fl::adversary::AttackPlan;
    ///
    /// let plan = AttackPlan::parse("flip=0.1,scale=10:0.05,seed=7").unwrap();
    /// assert_eq!(plan.flip_prob, 0.1);
    /// assert_eq!(plan.scale_factor, 10.0);
    /// assert_eq!(plan.scale_prob, 0.05);
    /// assert_eq!(plan.seed, 7);
    /// assert!(plan.is_active());
    /// assert!(AttackPlan::parse("flip=1.5").is_err());
    /// assert!(!AttackPlan::parse("").unwrap().is_active());
    ///
    /// let err = AttackPlan::parse("flip=0.1,warp=0.2").unwrap_err();
    /// assert_eq!(err.key, "warp");
    /// assert_eq!(err.span, (9, 17)); // byte range of `warp=0.2`
    /// ```
    pub fn parse(spec: &str) -> Result<AttackPlan, SpecError> {
        let mut plan = AttackPlan::default();
        let mut offset = 0usize;
        for raw in spec.split(',') {
            let pair_start = offset;
            offset += raw.len() + 1;
            let pair = raw.trim();
            if pair.is_empty() {
                continue;
            }
            let lead = raw.len() - raw.trim_start().len();
            let span = (pair_start + lead, pair_start + lead + pair.len());
            let Some((key, value)) = pair.split_once('=') else {
                return Err(SpecError::new("attack", pair, span, "expected key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f32, SpecError> {
                let p: f32 = v.parse().map_err(|_| {
                    SpecError::new("attack", key, span, format!("bad number {v:?}"))
                })?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(SpecError::new(
                        "attack",
                        key,
                        span,
                        format!("{p} outside [0, 1]"),
                    ));
                }
                Ok(p)
            };
            match key {
                "flip" => plan.flip_prob = prob(value)?,
                "scale" => match value.split_once(':') {
                    Some((factor, p)) => {
                        let f: f32 = factor.trim().parse().map_err(|_| {
                            SpecError::new(
                                "attack",
                                key,
                                span,
                                format!("bad scale factor {factor:?}"),
                            )
                        })?;
                        if !f.is_finite() || f == 0.0 {
                            return Err(SpecError::new(
                                "attack",
                                key,
                                span,
                                format!("scale factor {f} must be finite and nonzero"),
                            ));
                        }
                        plan.scale_factor = f;
                        plan.scale_prob = prob(p.trim())?;
                    }
                    None => plan.scale_prob = prob(value)?,
                },
                "replace" => plan.replace_prob = prob(value)?,
                "noise" => plan.noise_prob = prob(value)?,
                "collude" => plan.collude_prob = prob(value)?,
                "seed" => {
                    plan.seed = value.parse().map_err(|_| {
                        SpecError::new("attack", key, span, format!("bad seed {value:?}"))
                    })?
                }
                other => {
                    return Err(SpecError::new(
                        "attack",
                        other,
                        span,
                        "unknown key (expected flip, scale, replace, noise, collude or seed)",
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// Seeded attack oracle: maps `(round, client)` to an optional
/// [`AttackKind`] and applies the chosen attack, reproducibly.
///
/// Like [`crate::chaos::FaultInjector`], each cell gets its own short-lived
/// RNG seeded by mixing the injector seed with the cell coordinates, so
/// decisions are independent across cells and replay identically regardless
/// of scheduling, wave order, or transport. The constants differ from the
/// chaos layer's, so arming both never correlates their draws.
#[derive(Debug, Clone)]
pub struct AttackInjector {
    plan: AttackPlan,
    seed: u64,
}

impl AttackInjector {
    /// Builds an injector whose decisions depend only on `plan.seed`.
    pub fn new(plan: AttackPlan) -> Self {
        let seed = plan.seed;
        AttackInjector { plan, seed }
    }

    /// Builds an injector for a training run, folding the run seed into the
    /// attack seed so two runs with different run seeds see different (but
    /// individually reproducible) attack sequences.
    pub fn for_run(plan: AttackPlan, run_seed: u64) -> Self {
        let seed = plan.seed.wrapping_mul(0x9E6D_62C9_52F3_0E4D)
            ^ run_seed.wrapping_mul(0xB5C0_FBCF_A1C9_1E3B);
        AttackInjector { plan, seed }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &AttackPlan {
        &self.plan
    }

    fn cell_rng(&self, round: usize, client: usize) -> rand::rngs::StdRng {
        let mixed = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((client as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        rng::seeded(mixed)
    }

    /// Decides the attack (if any) one client mounts in one round. Pure:
    /// same inputs, same answer, forever.
    ///
    /// The draws are ordered flip → scale → replace → noise → collude, so
    /// at most one attack fires per cell.
    pub fn decide(&self, round: usize, client: usize) -> Option<AttackKind> {
        if !self.plan.is_active() {
            return None;
        }
        let mut r = self.cell_rng(round, client);
        if r.gen::<f32>() < self.plan.flip_prob {
            return Some(AttackKind::SignFlip);
        }
        if r.gen::<f32>() < self.plan.scale_prob {
            return Some(AttackKind::Scale);
        }
        if r.gen::<f32>() < self.plan.replace_prob {
            return Some(AttackKind::Replace);
        }
        if r.gen::<f32>() < self.plan.noise_prob {
            return Some(AttackKind::InlierNoise);
        }
        if r.gen::<f32>() < self.plan.collude_prob {
            return Some(AttackKind::Collude);
        }
        None
    }

    /// Applies `kind` to an update vector in place, deterministically for
    /// the `(round, client)` cell that decided it.
    ///
    /// Every attack produces a finite update (the point is to *pass*
    /// validation), and every attack is a pure function of the seeds, the
    /// cell, and the honest update's own values — no cross-client state, so
    /// wave chunking and transport framing cannot change the result.
    pub fn apply(&self, round: usize, client: usize, kind: AttackKind, update: &mut [f32]) {
        if update.is_empty() {
            return;
        }
        match kind {
            AttackKind::SignFlip => {
                for v in update.iter_mut() {
                    *v = -*v;
                }
            }
            AttackKind::Scale => {
                for v in update.iter_mut() {
                    *v *= self.plan.scale_factor;
                }
            }
            AttackKind::Replace => {
                // Replace with a seeded direction at an amplified norm: the
                // classic model-replacement move, scaled by the plan factor
                // relative to the honest update so the magnitude tracks the
                // round's natural scale.
                let norm = l2_norm(update).max(1e-12);
                let target = norm * self.plan.scale_factor.abs().max(1.0);
                let mut r = self.cell_rng(round ^ 0x0A77, client);
                for v in update.iter_mut() {
                    *v = r.gen::<f32>() - 0.5;
                }
                let raw = l2_norm(update).max(1e-12);
                let s = target / raw;
                for v in update.iter_mut() {
                    *v *= s;
                }
            }
            AttackKind::InlierNoise => {
                // "A little is enough": perturb each coordinate by a
                // z-scaled multiple of the update's own standard deviation,
                // all in one seeded direction, so the result sits inside the
                // cohort's plausible spread yet biases the aggregate.
                let n = update.len() as f32;
                let mean = update.iter().sum::<f32>() / n;
                let var = update.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
                let sd = var.sqrt().max(1e-6);
                const Z: f32 = 1.5;
                let mut r = self.cell_rng(round ^ 0x0A11, client);
                for v in update.iter_mut() {
                    *v += Z * sd * (r.gen::<f32>() * 0.5 + 0.5);
                }
            }
            AttackKind::Collude => {
                // All colluders in the round push the same seeded direction
                // (derived from round + dim only, never the client), scaled
                // to each colluder's honest norm so the group passes norm
                // screens while pulling the aggregate one way.
                let norm = l2_norm(update).max(1e-12);
                let mut r = self.collusion_rng(round, update.len());
                for v in update.iter_mut() {
                    *v = r.gen::<f32>() - 0.5;
                }
                let raw = l2_norm(update).max(1e-12);
                let s = norm / raw;
                for v in update.iter_mut() {
                    *v *= s;
                }
            }
        }
    }

    /// RNG for the round's shared collusion direction — a function of the
    /// round and the model dimension only, so every colluder derives the
    /// same direction independently.
    fn collusion_rng(&self, round: usize, dim: usize) -> rand::rngs::StdRng {
        let mixed = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((dim as u64).wrapping_mul(0x99BC_F6822_u64 | 1));
        rng::seeded(mixed ^ 0xC011_0DE5_C011_0DE5)
    }
}

fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Per-client anomaly score for one round's accepted cohort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyScore {
    /// Client id.
    pub client: usize,
    /// Z-score of the update's L2 norm against the cohort.
    pub norm_z: f32,
    /// Z-score of the update's cosine similarity to the cohort's
    /// coordinate median against the cohort.
    pub cosine_z: f32,
}

impl AnomalyScore {
    /// Combined suspicion for this round: the worse of the two screens.
    pub fn suspicion(&self) -> f32 {
        self.norm_z.abs().max(self.cosine_z.abs())
    }
}

/// Scores every update in a cohort against the cohort itself.
///
/// Two screens per client, both reported as z-scores over the cohort:
/// update L2 norm (catches scaling / replacement) and cosine similarity to
/// the cohort's coordinate median (catches sign flips and collusion —
/// direction changes that norm screens miss). Cohorts smaller than three
/// clients score zero everywhere: there is no population to be anomalous
/// against.
///
/// Deterministic: pure arithmetic over the inputs, no RNG. The norm and
/// dot passes run on the [`crate::parallel`] workers, with every row still
/// summed in order, so the scores are bit for bit those of one sequential
/// pass.
pub fn anomaly_scores(ids: &[usize], updates: &[&[f32]]) -> Vec<AnomalyScore> {
    anomaly_scores_against(ids, updates, None)
}

/// [`anomaly_scores`] with the updates' column medians supplied when the
/// caller has them already, as the round engine does when it seals a held
/// median round in the same pass
/// ([`crate::aggregate::median_and_midpoints`]); `None` computes them.
/// `medians` must be those of exactly these updates.
pub(crate) fn anomaly_scores_against(
    ids: &[usize],
    updates: &[&[f32]],
    medians: Option<Vec<f32>>,
) -> Vec<AnomalyScore> {
    let n = ids.len().min(updates.len());
    if n < 3 {
        return ids
            .iter()
            .take(n)
            .map(|&client| AnomalyScore {
                client,
                norm_z: 0.0,
                cosine_z: 0.0,
            })
            .collect();
    }
    let updates = updates.get(..n).unwrap_or(updates);
    let dim = updates.first().map_or(0, |u| u.len());
    // Unweighted coordinate median as the cohort's reference direction.
    let median = medians.unwrap_or_else(|| crate::aggregate::column_medians(updates, dim));
    let med_norm = l2_norm(&median).max(1e-12);
    let norms: Vec<f32> = row_dots(updates, None).into_iter().map(f32::sqrt).collect();
    let cosines: Vec<f32> = row_dots(updates, Some(&median))
        .into_iter()
        .zip(&norms)
        .map(|(dot, &un)| dot / (un.max(1e-12) * med_norm))
        .collect();
    let z = |xs: &[f32]| -> (f32, f32) {
        let m = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / n as f32;
        (m, var.sqrt().max(1e-6))
    };
    let (nm, ns) = z(&norms);
    let (cm, cs) = z(&cosines);
    ids.iter()
        .take(n)
        .zip(norms.iter().zip(&cosines))
        .map(|(&client, (&norm, &cosine))| AnomalyScore {
            client,
            norm_z: (norm - nm) / ns,
            cosine_z: (cosine - cm) / cs,
        })
        .collect()
}

/// Sum terms a [`row_dots`] worker must get before the pass fans out:
/// below about this many, spawning a thread costs more than it saves.
const WORKER_TERMS: usize = 1 << 16;

/// For every row, `Σ x·y` over `zip(row, with)`, or over `zip(row, row)`
/// when `with` is `None`: the squared norm. Each sum runs in zip order
/// from `-0.0`, where std's `f32` `Sum` starts, so it is bit for bit
/// `zip(..).map(|(x, y)| x * y).sum()`.
///
/// Contiguous row ranges run on the [`crate::parallel`] workers, one per
/// [`WORKER_TERMS`] terms at most. Within a range, four rows at a time walk
/// their common length side by side, one accumulator each, so the adds of
/// different rows overlap; each row then adds its own tail, and the last
/// `len % 4` rows run alone.
fn row_dots(rows: &[&[f32]], with: Option<&[f32]>) -> Vec<f32> {
    let dot = |row: &[f32]| -> f32 {
        let other = with.unwrap_or(row);
        row.iter().zip(other).map(|(x, y)| x * y).sum()
    };
    let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let grain = WORKER_TERMS.div_ceil(width.max(1));
    crate::parallel::parallel_ranges(rows.len(), grain, |range| {
        let rows = rows.get(range).unwrap_or_default();
        let mut sums = Vec::with_capacity(rows.len());
        let mut quads = rows.chunks_exact(4);
        for quad in quads.by_ref() {
            if let &[a, b, c, d] = quad {
                sums.extend(dots4([a, b, c, d], with));
            }
        }
        sums.extend(quads.remainder().iter().map(|row| dot(row)));
        sums
    })
    .concat()
}

/// [`row_dots`] for four rows: one accumulator per row over the length
/// they share, then each row's own tail.
fn dots4(rows: [&[f32]; 4], with: Option<&[f32]>) -> [f32; 4] {
    let [a, b, c, d] = rows;
    let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
    match with {
        None => {
            for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
                s0 += x0 * x0;
                s1 += x1 * x1;
                s2 += x2 * x2;
                s3 += x3 * x3;
            }
        }
        Some(m) => {
            for ((((&x0, &x1), &x2), &x3), &y) in a.iter().zip(b).zip(c).zip(d).zip(m) {
                s0 += x0 * y;
                s1 += x1 * y;
                s2 += x2 * y;
                s3 += x3 * y;
            }
        }
    }
    // The zips above stopped at the shortest operand.
    let common = rows
        .iter()
        .map(|row| row.len())
        .chain(with.map(<[f32]>::len))
        .min()
        .unwrap_or(0);
    let mut sums = [s0, s1, s2, s3];
    for (sum, row) in sums.iter_mut().zip(rows) {
        let tail = row.get(common..).unwrap_or_default();
        let other = with.unwrap_or(row).get(common..).unwrap_or_default();
        for (&x, &y) in tail.iter().zip(other) {
            *sum += x * y;
        }
    }
    sums
}

/// Z-score threshold above which one round counts as a strike.
const STRIKE_Z: f32 = 2.0;
/// Consecutive-ish strike budget before quarantine.
const QUARANTINE_STRIKES: u32 = 3;
/// EWMA factor for the persistent suspicion score.
const EWMA: f32 = 0.3;

/// Persistent per-client reputation: EWMA suspicion, strike counts, and the
/// quarantine flag, accumulated from per-round [`anomaly_scores`].
///
/// Quarantine is *sticky within a run* and persisted through the server
/// and trainer checkpoints, so a restart does not amnesty an adversary. A
/// client is quarantined after 3 rounds (`QUARANTINE_STRIKES`) whose
/// combined suspicion exceeded z = 2 (`STRIKE_Z`); a clean round decays
/// both the EWMA and
/// (by one) the strike count, so honest clients that drew one unlucky
/// z-score recover.
///
/// An empty book never influences sampling — the bit-identity guarantee
/// for unarmed runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReputationBook {
    entries: BTreeMap<usize, Reputation>,
}

/// One client's accumulated standing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reputation {
    /// EWMA of the per-round combined suspicion.
    pub suspicion: f32,
    /// Rounds (net of decay) whose suspicion exceeded the strike threshold.
    pub strikes: u32,
    /// Whether the client is excluded from future cohorts.
    pub quarantined: bool,
}

impl ReputationBook {
    /// An empty book: nobody tracked, nobody quarantined.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the book tracks nobody (and therefore influences nothing).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds one round of anomaly scores into the book. Returns the clients
    /// newly quarantined by this round, in ascending id order.
    pub fn observe_round(&mut self, scores: &[AnomalyScore]) -> Vec<usize> {
        let mut newly = Vec::new();
        for s in scores {
            let e = self.entries.entry(s.client).or_default();
            let suspicion = s.suspicion();
            e.suspicion = (1.0 - EWMA) * e.suspicion + EWMA * suspicion;
            if suspicion > STRIKE_Z {
                e.strikes += 1;
                if e.strikes >= QUARANTINE_STRIKES && !e.quarantined {
                    e.quarantined = true;
                    newly.push(s.client);
                }
            } else {
                e.strikes = e.strikes.saturating_sub(1);
            }
        }
        newly
    }

    /// Whether a client is currently quarantined.
    pub fn is_quarantined(&self, client: usize) -> bool {
        self.entries
            .get(&client)
            .map(|e| e.quarantined)
            .unwrap_or(false)
    }

    /// The quarantined set, ascending — the exclusion input for sampling.
    pub fn quarantined(&self) -> BTreeSet<usize> {
        self.entries
            .iter()
            .filter(|(_, e)| e.quarantined)
            .map(|(&c, _)| c)
            .collect()
    }

    /// Number of quarantined clients.
    pub fn quarantined_count(&self) -> usize {
        self.entries.values().filter(|e| e.quarantined).count()
    }

    /// A client's current standing, if tracked.
    pub fn get(&self, client: usize) -> Option<Reputation> {
        self.entries.get(&client).copied()
    }

    /// Serializes the book as checkpoint lines: a `reputation <n>` header
    /// followed by one `rep <client> <suspicion-bits-hex> <strikes> <0|1>`
    /// line per tracked client. Empty books serialize to nothing, so
    /// checkpoints from unarmed runs stay byte-identical to main.
    pub fn to_checkpoint_lines(&self) -> String {
        use std::fmt::Write as _;
        if self.entries.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "reputation {}", self.entries.len());
        for (client, e) in &self.entries {
            let _ = writeln!(
                out,
                "rep {client} {:08x} {} {}",
                e.suspicion.to_bits(),
                e.strikes,
                u8::from(e.quarantined)
            );
        }
        out
    }

    /// Parses the section written by [`ReputationBook::to_checkpoint_lines`]
    /// from a line iterator positioned at the `reputation` header. Returns
    /// an empty book when the header is absent (pre-reputation checkpoints).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed line.
    pub fn parse_checkpoint_lines<'a, I: Iterator<Item = &'a str>>(
        mut lines: std::iter::Peekable<I>,
    ) -> Result<ReputationBook, String> {
        let mut book = ReputationBook::new();
        let Some(header) = lines.peek() else {
            return Ok(book);
        };
        let Some(count) = header.strip_prefix("reputation ") else {
            return Ok(book);
        };
        let n: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("bad reputation count: {e}"))?;
        lines.next();
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing reputation entry {i}"))?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("rep") {
                return Err(format!(
                    "reputation entry {i}: expected 'rep ...', got {line:?}"
                ));
            }
            let client: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("reputation entry {i}: bad client id"))?;
            let suspicion = parts
                .next()
                .and_then(|s| u32::from_str_radix(s, 16).ok())
                .map(f32::from_bits)
                .ok_or_else(|| format!("reputation entry {i}: bad suspicion bits"))?;
            let strikes: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("reputation entry {i}: bad strike count"))?;
            let quarantined = match parts.next() {
                Some("0") => false,
                Some("1") => true,
                other => {
                    return Err(format!(
                        "reputation entry {i}: bad quarantine flag {other:?}"
                    ))
                }
            };
            book.entries.insert(
                client,
                Reputation {
                    suspicion,
                    strikes,
                    quarantined,
                },
            );
        }
        Ok(book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plan() -> AttackPlan {
        AttackPlan {
            flip_prob: 0.2,
            scale_prob: 0.1,
            scale_factor: 10.0,
            replace_prob: 0.1,
            noise_prob: 0.1,
            collude_prob: 0.1,
            seed: 7,
        }
    }

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let plan =
            AttackPlan::parse("flip=0.1,scale=100:0.05,replace=0.02,noise=0.3,collude=0.04,seed=9")
                .unwrap();
        assert_eq!(plan.flip_prob, 0.1);
        assert_eq!(plan.scale_factor, 100.0);
        assert_eq!(plan.scale_prob, 0.05);
        assert_eq!(plan.replace_prob, 0.02);
        assert_eq!(plan.noise_prob, 0.3);
        assert_eq!(plan.collude_prob, 0.04);
        assert_eq!(plan.seed, 9);
        // Bare scale prob keeps the default factor.
        let bare = AttackPlan::parse("scale=0.25").unwrap();
        assert_eq!(bare.scale_prob, 0.25);
        assert_eq!(bare.scale_factor, 10.0);
    }

    #[test]
    fn parse_rejects_malformed_specs_naming_key_and_span() {
        // Every malformed shape: (spec, blamed key, byte span of the pair).
        let cases = [
            ("flip=2.0", "flip", (0, 8)),             // probability above 1
            ("flip=-0.1", "flip", (0, 9)),            // probability below 0
            ("flip=abc", "flip", (0, 8)),             // unparsable probability
            ("scale=0:0.5", "scale", (0, 11)),        // zero scale factor
            ("scale=inf:0.5", "scale", (0, 13)),      // non-finite scale factor
            ("scale=x:0.5", "scale", (0, 11)),        // unparsable scale factor
            ("scale=10:1.5", "scale", (0, 12)),       // scale prob out of range
            ("warp=0.1", "warp", (0, 8)),             // unknown key
            ("flip", "flip", (0, 4)),                 // missing `=`
            ("seed=abc", "seed", (0, 8)),             // unparsable seed
            ("flip=0.1, warp=0.2", "warp", (10, 18)), // span tracks later pairs
        ];
        for (spec, key, span) in cases {
            let err = AttackPlan::parse(spec).expect_err(spec);
            assert_eq!(err.family, "attack", "{spec}");
            assert_eq!(err.key, key, "{spec}");
            assert_eq!(err.span, span, "{spec}");
            // The span must cover the blamed key in the original input.
            assert!(
                spec.get(err.span.0..err.span.1)
                    .is_some_and(|frag| frag.contains(key)),
                "{spec}: span {:?} misses {key:?}",
                err.span
            );
        }
    }

    #[test]
    fn parse_errors_render_family_key_and_span() {
        let err = AttackPlan::parse("noise=0.1,collude=7").expect_err("collude=7");
        assert_eq!(
            err.to_string(),
            "attack spec: `collude` at bytes 10..19: 7 outside [0, 1]"
        );
    }

    #[test]
    fn default_plan_is_inactive_and_decides_nothing() {
        let inj = AttackInjector::new(AttackPlan::default());
        for round in 0..10 {
            for client in 0..50 {
                assert_eq!(inj.decide(round, client), None);
            }
        }
    }

    #[test]
    fn decisions_replay_bit_identically_from_the_seed() {
        let a = AttackInjector::for_run(armed_plan(), 42);
        let b = AttackInjector::for_run(armed_plan(), 42);
        for round in 0..20 {
            for client in 0..100 {
                assert_eq!(a.decide(round, client), b.decide(round, client));
            }
        }
    }

    #[test]
    fn different_run_seeds_decorrelate() {
        let a = AttackInjector::for_run(armed_plan(), 1);
        let b = AttackInjector::for_run(armed_plan(), 2);
        let differs = (0..50)
            .flat_map(|r| (0..50).map(move |c| (r, c)))
            .any(|(r, c)| a.decide(r, c) != b.decide(r, c));
        assert!(differs, "distinct run seeds must change the attack stream");
    }

    #[test]
    fn applied_attacks_replay_bit_identically() {
        let inj = AttackInjector::for_run(armed_plan(), 3);
        for kind in [
            AttackKind::SignFlip,
            AttackKind::Scale,
            AttackKind::Replace,
            AttackKind::InlierNoise,
            AttackKind::Collude,
        ] {
            let honest: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
            let mut a = honest.clone();
            let mut b = honest.clone();
            inj.apply(4, 9, kind, &mut a);
            inj.apply(4, 9, kind, &mut b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{kind:?} must be deterministic");
            assert_ne!(bits(&a), bits(&honest), "{kind:?} must change the update");
            assert!(a.iter().all(|v| v.is_finite()), "{kind:?} must stay finite");
        }
    }

    #[test]
    fn colluders_share_a_direction_and_match_their_own_norm() {
        let inj = AttackInjector::for_run(armed_plan(), 5);
        let mut a: Vec<f32> = (0..32).map(|i| 0.01 * i as f32).collect();
        let mut b: Vec<f32> = (0..32).map(|i| -0.02 * i as f32 + 0.1).collect();
        let (na, nb) = (l2_norm(&a), l2_norm(&b));
        inj.apply(2, 10, AttackKind::Collude, &mut a);
        inj.apply(2, 33, AttackKind::Collude, &mut b);
        assert!((l2_norm(&a) - na).abs() < 1e-3, "norm preserved");
        assert!((l2_norm(&b) - nb).abs() < 1e-3, "norm preserved");
        let cos: f32 =
            a.iter().zip(&b).map(|(x, y)| x * y).sum::<f32>() / (l2_norm(&a) * l2_norm(&b));
        assert!(cos > 0.999, "colluders aligned, cosine {cos}");
    }

    #[test]
    fn anomaly_scores_flag_the_scaled_outlier() {
        let honest: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..16).map(|d| 1.0 + 0.01 * (i * 16 + d) as f32).collect())
            .collect();
        let outlier: Vec<f32> = (0..16).map(|d| 100.0 + 0.01 * d as f32).collect();
        let mut refs: Vec<&[f32]> = honest.iter().map(|v| v.as_slice()).collect();
        refs.push(&outlier);
        let ids: Vec<usize> = (0..10).collect();
        let scores = anomaly_scores(&ids, &refs);
        let bad = scores.iter().find(|s| s.client == 9).unwrap();
        let worst_honest = scores
            .iter()
            .filter(|s| s.client != 9)
            .map(|s| s.suspicion())
            .fold(0.0f32, f32::max);
        assert!(
            bad.suspicion() > 2.0 && bad.suspicion() > worst_honest,
            "outlier suspicion {} vs honest max {worst_honest}",
            bad.suspicion()
        );
    }

    #[test]
    fn anomaly_scores_flag_the_sign_flipped_direction() {
        let honest: Vec<Vec<f32>> = (0..9)
            .map(|i| (0..16).map(|d| 1.0 + 0.01 * (i + d) as f32).collect())
            .collect();
        let flipped: Vec<f32> = honest[0].iter().map(|v| -v).collect();
        let mut refs: Vec<&[f32]> = honest.iter().map(|v| v.as_slice()).collect();
        refs.push(&flipped);
        let ids: Vec<usize> = (0..10).collect();
        let scores = anomaly_scores(&ids, &refs);
        let bad = scores.iter().find(|s| s.client == 9).unwrap();
        assert!(
            bad.cosine_z.abs() > 2.0,
            "flipped client's cosine z {} should stand out",
            bad.cosine_z
        );
    }

    #[test]
    fn tiny_cohorts_score_zero() {
        let a = [1.0f32, 2.0];
        let b = [2.0f32, 1.0];
        let scores = anomaly_scores(&[3, 4], &[&a, &b]);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.suspicion() == 0.0));
    }

    #[test]
    fn repeated_strikes_quarantine_and_clean_rounds_recover() {
        let mut book = ReputationBook::new();
        let hot = AnomalyScore {
            client: 7,
            norm_z: 5.0,
            cosine_z: 0.0,
        };
        let cold = AnomalyScore {
            client: 7,
            norm_z: 0.1,
            cosine_z: 0.1,
        };
        assert!(book.observe_round(&[hot]).is_empty());
        assert!(book.observe_round(&[hot]).is_empty());
        assert_eq!(book.observe_round(&[hot]), vec![7], "third strike");
        assert!(book.is_quarantined(7));
        assert_eq!(book.quarantined_count(), 1);

        // A different, honest client accumulates nothing.
        let mut honest_book = ReputationBook::new();
        honest_book.observe_round(&[hot, cold]);
        let fine = AnomalyScore { client: 2, ..cold };
        for _ in 0..10 {
            honest_book.observe_round(&[fine]);
        }
        assert!(!honest_book.is_quarantined(2));
        // One unlucky strike then clean rounds: strikes decay back to zero.
        let unlucky = AnomalyScore { client: 3, ..hot };
        let lucky = AnomalyScore { client: 3, ..cold };
        honest_book.observe_round(&[unlucky]);
        honest_book.observe_round(&[lucky]);
        assert_eq!(honest_book.get(3).unwrap().strikes, 0);
    }

    #[test]
    fn book_round_trips_through_checkpoint_lines() {
        let mut book = ReputationBook::new();
        let s = AnomalyScore {
            client: 11,
            norm_z: 4.5,
            cosine_z: -3.0,
        };
        book.observe_round(&[s]);
        book.observe_round(&[s]);
        book.observe_round(&[s]);
        assert!(book.is_quarantined(11));
        let text = book.to_checkpoint_lines();
        let back =
            ReputationBook::parse_checkpoint_lines(text.lines().peekable()).expect("round trip");
        assert_eq!(back, book, "bit-exact through the hex encoding");

        // Empty books write nothing and parse back from nothing.
        assert!(ReputationBook::new().to_checkpoint_lines().is_empty());
        let empty =
            ReputationBook::parse_checkpoint_lines("".lines().peekable()).expect("empty ok");
        assert!(empty.is_empty());
    }

    #[test]
    fn malformed_reputation_sections_error_loudly() {
        for bad in [
            "reputation 2\nrep 1 3f800000 0 0\n",
            "reputation 1\nrep x 3f800000 0 0\n",
            "reputation 1\nrep 1 zz 0 0\n",
            "reputation 1\nrep 1 3f800000 0 7\n",
            "reputation nope\n",
        ] {
            assert!(
                ReputationBook::parse_checkpoint_lines(bad.lines().peekable()).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }
}
