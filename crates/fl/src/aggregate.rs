//! Server-side aggregation of client updates.
//!
//! Everything travels as flat parameter vectors (`Module::to_flat`). The
//! plain weighted average is FedAvg; Calibre's divergence-aware variant
//! (in the `calibre` crate) scales each client's sample-count weight by
//! [`divergence_weight`] and aggregates through the same weighted average.
//!
//! # Robustness
//!
//! A best-effort cohort can report garbage: NaN/Inf poisoned vectors, norm
//! blow-ups, sign flips (see `crate::chaos`). The fault-tolerant path layers
//! three defenses, all selectable via [`Aggregator`]:
//!
//! 1. **Validation** ([`validate_update`]) rejects non-finite updates before
//!    they touch the accumulator — one NaN coordinate would otherwise poison
//!    the entire global model.
//! 2. **Norm clipping** ([`clip_norm`]) caps finite-but-huge updates.
//! 3. **Robust statistics** — [`trimmed_mean`] and [`coordinate_median`]
//!    bound the influence of any single client, absorbing silent
//!    corruptions (sign flips) that validation cannot see.
//!
//! [`aggregate_robust`] is the one aggregation front door: a typed error,
//! never a panic. The round engine
//! ([`crate::scheduler::RoundScheduler::run_round`]) either streams each
//! accepted update into an [`UpdateSink`], or holds the round's updates and
//! seals them with [`aggregate_robust`], or with [`median_and_midpoints`]
//! when detection also scores a median round.

use std::ops::Range;

use crate::spec::SpecError;

/// Weighted average of borrowed flat vectors, the weighted core of
/// [`aggregate_robust`]. It folds each slice into a
/// [`StreamingWeightedSink::for_cohort`] sink in input order, so it *is*
/// that fold, bit for bit.
///
/// Weights are normalized internally; non-positive total weight falls back
/// to a uniform average.
///
/// # Panics
///
/// Panics if `updates` is empty, lengths differ, or `weights.len()`
/// mismatches `updates.len()`; callers check shapes first.
fn weighted_average_refs(updates: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    let n = updates.len();
    assert!(n > 0, "cannot aggregate zero updates");
    assert_eq!(n, weights.len(), "one weight per update required");
    let dim = updates.first().map_or(0, |u| u.len());
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(n));
    span.add_bytes(span_count(n * dim * std::mem::size_of::<f32>()));
    // The total weight is known up front, so the sink applies the exact
    // `w / total` per-fold scale (uniform fallback on a non-positive
    // total); no intermediate normalized-weights vector is materialized.
    let total: f32 = weights.iter().sum();
    let mut sink = StreamingWeightedSink::for_cohort(total, n);
    for (i, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
        assert_eq!(
            u.len(),
            dim,
            "update {i} has length {} expected {dim}",
            u.len()
        );
        // Infallible: the shape was just asserted against `dim`.
        let _ = sink.fold(i, u, w);
    }
    sink.finish().unwrap_or_default()
}

/// `usize` → `u64` for span item/byte accounting without a lossy cast:
/// widening on every supported target, saturating only in theory.
fn span_count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Exact `f32` for a cohort- or sample-sized count.
fn count_f32(n: usize) -> f32 {
    // analyze:allow(lossy-cast) -- cohort and sample counts sit far below
    // f32's 2^24 exact-integer range
    n as f32
}

/// Typed failure of a fault-tolerant aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateError {
    /// No updates survived validation — nothing to aggregate.
    Empty,
    /// Update `index` has a different length than the first update.
    LengthMismatch {
        /// Position of the offending update.
        index: usize,
        /// Expected vector length (from update 0).
        expected: usize,
        /// Actual vector length.
        got: usize,
    },
    /// `weights.len()` does not match `updates.len()`.
    WeightCountMismatch {
        /// Number of updates.
        updates: usize,
        /// Number of weights.
        weights: usize,
    },
    /// Weight `index` is NaN or infinite. A NaN total would make each
    /// statistic quietly fall back to another rule (the median to the
    /// per-coordinate maximum, the average to the uniform mean), and an
    /// infinite weight makes the average NaN.
    InvalidWeight {
        /// Position of the offending weight.
        index: usize,
        /// The weight.
        weight: f32,
    },
    /// The fold weights summed to a non-positive total, so a
    /// deferred-normalization sink cannot recover the uniform-average
    /// fallback (it accumulated `w·u`, not `u`). Only produced by
    /// [`UpdateSink::finish`] of a deferred-normalization sink; the slice
    /// APIs (and the sinks that finish through them) fall back to a uniform
    /// average instead.
    NonPositiveTotal,
    /// A trim ratio at or above 0.5 would discard every value of every
    /// coordinate. The CLI parser rejects such ratios up front; a directly
    /// constructed [`Aggregator::TrimmedMean`] reports it here instead of
    /// silently trimming less than asked.
    InvalidTrimRatio {
        /// The offending ratio.
        ratio: f32,
    },
    /// The cohort is too small for the requested robust statistic to be
    /// defined (e.g. a trimmed mean whose trims would consume the whole
    /// cohort, or Krum with fewer than `f + 3` clients). The round should
    /// be skipped, not silently aggregated with a weaker statistic.
    CohortTooSmall {
        /// Minimum cohort size the statistic needs.
        needed: usize,
        /// Actual cohort size.
        got: usize,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::Empty => write!(f, "cannot aggregate zero updates"),
            AggregateError::LengthMismatch {
                index,
                expected,
                got,
            } => write!(f, "update {index} has length {got}, expected {expected}"),
            AggregateError::WeightCountMismatch { updates, weights } => {
                write!(f, "{updates} updates but {weights} weights")
            }
            AggregateError::InvalidWeight { index, weight } => {
                write!(f, "weight {index} is {weight}, not finite")
            }
            AggregateError::NonPositiveTotal => {
                write!(f, "fold weights summed to a non-positive total")
            }
            AggregateError::InvalidTrimRatio { ratio } => {
                write!(f, "trim ratio {ratio} must be in [0, 0.5)")
            }
            AggregateError::CohortTooSmall { needed, got } => {
                write!(
                    f,
                    "cohort of {got} too small for the robust statistic (needs {needed})"
                )
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// Aggregation statistic for the fault-tolerant round path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregator {
    /// Plain weighted average (FedAvg), zero robustness to silent
    /// corruption.
    WeightedAverage,
    /// Per-coordinate weighted average after discarding the
    /// `ceil(ratio * n)` smallest and largest values of each coordinate.
    /// `ratio = 0` degrades to the weighted average (up to summation
    /// order); `ratio` must be `< 0.5`.
    TrimmedMean(f32),
    /// Per-coordinate weighted median: tolerates just under half the cohort
    /// being arbitrarily corrupted, ignores weights magnitudes least.
    CoordinateMedian,
    /// Krum (Blanchet et al.): returns the single update whose summed
    /// squared distance to its `n - f - 2` nearest neighbours is smallest,
    /// assuming at most `f` Byzantine clients. Needs a cohort of at least
    /// `f + 3`.
    Krum {
        /// Assumed number of Byzantine clients.
        f: usize,
    },
    /// Multi-Krum: weighted average of the `m` lowest-Krum-score updates —
    /// Krum's selection pressure with averaging's variance reduction.
    MultiKrum {
        /// Assumed number of Byzantine clients.
        f: usize,
        /// Number of selected updates to average.
        m: usize,
    },
    /// Geometric median via deterministic Weiszfeld iteration: the point
    /// minimizing the weighted sum of L2 distances to the updates. The
    /// classic high-dimensional robust aggregate (RFA).
    GeometricMedian,
    /// Norm bounding: clip every update to the given L2 norm before the
    /// weighted average, capping any single client's displacement.
    NormBound(f32),
    /// Centered clipping (Karimireddy et al.): iteratively re-center on the
    /// cohort, folding in only the tau-clipped residual of each update.
    CenteredClip(f32),
}

impl Aggregator {
    /// Parses a CLI name: `weighted`, `trimmed` / `trimmed:<ratio>`,
    /// `median`, `krum` / `krum:<f>`, `multikrum` / `multikrum:<f>:<m>`,
    /// `geomedian`, `normbound:<max>`, `clip:<tau>`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the aggregator keyword and the byte
    /// span of the offending parameter in `s` (the whole input for an
    /// unknown keyword).
    pub fn parse_spec(s: &str) -> Result<Aggregator, SpecError> {
        // ASCII lowercasing preserves byte offsets, so spans computed on
        // `lower` index into the caller's original string.
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "weighted" | "weighted-average" | "mean" => Ok(Aggregator::WeightedAverage),
            "median" | "coordinate-median" => Ok(Aggregator::CoordinateMedian),
            "trimmed" | "trimmed-mean" => Ok(Aggregator::TrimmedMean(0.2)),
            "krum" => Ok(Aggregator::Krum { f: 1 }),
            "multikrum" | "multi-krum" => Ok(Aggregator::MultiKrum { f: 1, m: 3 }),
            "geomedian" | "geometric-median" => Ok(Aggregator::GeometricMedian),
            other => {
                if let Some(ratio) = other.strip_prefix("trimmed:") {
                    let span = ("trimmed:".len(), other.len());
                    let r: f32 = ratio.parse().map_err(|_| {
                        SpecError::new(
                            "aggregator",
                            "trimmed",
                            span,
                            format!("bad ratio {ratio:?}"),
                        )
                    })?;
                    if !(0.0..0.5).contains(&r) {
                        return Err(SpecError::new(
                            "aggregator",
                            "trimmed",
                            span,
                            format!("ratio {r} outside [0, 0.5)"),
                        ));
                    }
                    return Ok(Aggregator::TrimmedMean(r));
                }
                if let Some(f) = other.strip_prefix("krum:") {
                    let span = ("krum:".len(), other.len());
                    return Ok(Aggregator::Krum {
                        f: f.parse().map_err(|_| {
                            SpecError::new("aggregator", "krum", span, format!("bad f {f:?}"))
                        })?,
                    });
                }
                if let Some((plen, rest)) = ["multikrum:", "multi-krum:"]
                    .iter()
                    .find_map(|p| other.strip_prefix(p).map(|rest| (p.len(), rest)))
                {
                    let Some((f_str, m_str)) = rest.split_once(':') else {
                        return Err(SpecError::new(
                            "aggregator",
                            "multikrum",
                            (plen, other.len()),
                            format!("expected <f>:<m>, got {rest:?}"),
                        ));
                    };
                    let f_span = (plen, plen + f_str.len());
                    let m_span = (plen + f_str.len() + 1, other.len());
                    let f: usize = f_str.parse().map_err(|_| {
                        SpecError::new(
                            "aggregator",
                            "multikrum",
                            f_span,
                            format!("bad f {f_str:?}"),
                        )
                    })?;
                    let m: usize = m_str.parse().map_err(|_| {
                        SpecError::new(
                            "aggregator",
                            "multikrum",
                            m_span,
                            format!("bad m {m_str:?}"),
                        )
                    })?;
                    if m == 0 {
                        return Err(SpecError::new(
                            "aggregator",
                            "multikrum",
                            m_span,
                            "m must be at least 1",
                        ));
                    }
                    return Ok(Aggregator::MultiKrum { f, m });
                }
                if let Some(max_str) = other.strip_prefix("normbound:") {
                    let span = ("normbound:".len(), other.len());
                    let max: f32 = max_str.parse().map_err(|_| {
                        SpecError::new(
                            "aggregator",
                            "normbound",
                            span,
                            format!("bad max norm {max_str:?}"),
                        )
                    })?;
                    if !max.is_finite() || max <= 0.0 {
                        return Err(SpecError::new(
                            "aggregator",
                            "normbound",
                            span,
                            format!("max norm {max} must be finite and positive"),
                        ));
                    }
                    return Ok(Aggregator::NormBound(max));
                }
                if let Some(tau_str) = other.strip_prefix("clip:") {
                    let span = ("clip:".len(), other.len());
                    let tau: f32 = tau_str.parse().map_err(|_| {
                        SpecError::new("aggregator", "clip", span, format!("bad tau {tau_str:?}"))
                    })?;
                    if !tau.is_finite() || tau <= 0.0 {
                        return Err(SpecError::new(
                            "aggregator",
                            "clip",
                            span,
                            format!("tau {tau} must be finite and positive"),
                        ));
                    }
                    return Ok(Aggregator::CenteredClip(tau));
                }
                Err(SpecError::new(
                    "aggregator",
                    other,
                    (0, other.len()),
                    "unknown aggregator (expected weighted, median, trimmed[:ratio], krum[:f], \
                     multikrum:<f>:<m>, geomedian, normbound:<max> or clip:<tau>)",
                ))
            }
        }
    }

    /// Parses a CLI name, discarding the diagnostic; prefer
    /// [`Aggregator::parse_spec`] when the error will reach a user.
    // analyze:allow(schema-drift) -- delegates to `parse_spec`, which names
    // every variant; this wrapper only drops the diagnostic
    pub fn parse(s: &str) -> Option<Aggregator> {
        Self::parse_spec(s).ok()
    }

    /// Display name (parsable by [`Aggregator::parse`]).
    pub fn name(self) -> String {
        match self {
            Aggregator::WeightedAverage => "weighted".into(),
            Aggregator::TrimmedMean(r) => format!("trimmed:{r}"),
            Aggregator::CoordinateMedian => "median".into(),
            Aggregator::Krum { f } => format!("krum:{f}"),
            Aggregator::MultiKrum { f, m } => format!("multikrum:{f}:{m}"),
            Aggregator::GeometricMedian => "geomedian".into(),
            Aggregator::NormBound(m) => format!("normbound:{m}"),
            Aggregator::CenteredClip(t) => format!("clip:{t}"),
        }
    }
}

/// Whether every coordinate of an update is finite. The validation gate the
/// round engine applies before letting an update near the aggregator.
///
/// It reads every coordinate, with no early exit: the fold has no branch,
/// so it runs as vector compares, and an update is almost always finite.
pub fn validate_update(update: &[f32]) -> bool {
    update.iter().fold(true, |finite, v| finite & v.is_finite())
}

/// Clips `update` in place to L2 norm at most `max_norm`; returns `true`
/// when clipping actually happened. Non-finite inputs are left untouched
/// (they must be rejected by [`validate_update`], not laundered).
pub fn clip_norm(update: &mut [f32], max_norm: f32) -> bool {
    let norm_sq: f32 = update.iter().map(|v| v * v).sum();
    if !norm_sq.is_finite() {
        return false;
    }
    let norm = norm_sq.sqrt();
    if norm <= max_norm || norm == 0.0 {
        return false;
    }
    let scale = max_norm / norm;
    for v in update.iter_mut() {
        *v *= scale;
    }
    true
}

fn check_shapes(updates: &[&[f32]], weights: &[f32]) -> Result<usize, AggregateError> {
    if updates.is_empty() {
        return Err(AggregateError::Empty);
    }
    if updates.len() != weights.len() {
        return Err(AggregateError::WeightCountMismatch {
            updates: updates.len(),
            weights: weights.len(),
        });
    }
    if let Some((index, &weight)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
        return Err(AggregateError::InvalidWeight { index, weight });
    }
    let dim = updates.first().map_or(0, |u| u.len());
    for (i, u) in updates.iter().enumerate() {
        if u.len() != dim {
            return Err(AggregateError::LengthMismatch {
                index: i,
                expected: dim,
                got: u.len(),
            });
        }
    }
    Ok(dim)
}

/// Per-coordinate weighted trimmed mean.
///
/// For each coordinate, the `ceil(ratio * n)` smallest and largest values
/// are discarded and the survivors are averaged with their (re-normalized)
/// weights. At `ratio = 0` nothing is trimmed and the result equals the
/// weighted average up to floating-point summation order.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`];
/// [`AggregateError::InvalidTrimRatio`] when `ratio` is outside `[0, 0.5)`;
/// [`AggregateError::CohortTooSmall`] when the trims would consume the
/// whole cohort (e.g. a single-client cohort at any nonzero ratio). Earlier
/// versions silently capped the trim instead — a 40% trim of a two-client
/// cohort quietly became a plain average, exactly when robustness mattered.
pub fn trimmed_mean(
    updates: &[&[f32]],
    weights: &[f32],
    ratio: f32,
) -> Result<Vec<f32>, AggregateError> {
    if !(0.0..0.5).contains(&ratio) {
        return Err(AggregateError::InvalidTrimRatio { ratio });
    }
    let dim = check_shapes(updates, weights)?;
    let n = updates.len();
    // analyze:allow(lossy-cast) -- ratio is validated in [0, 0.5), so the
    // product stays within usize range for any real cohort.
    let trim = (ratio * n as f32).ceil() as usize;
    if trim > 0 && n.saturating_sub(2 * trim) == 0 {
        return Err(AggregateError::CohortTooSmall {
            needed: 2 * trim + 1,
            got: n,
        });
    }
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(n));
    // The cohort-size check above guarantees n > 2*trim, so the kept range
    // is in bounds and non-empty for every coordinate.
    let hi = n.saturating_sub(trim);
    Ok(map_columns(updates, dim, |column| {
        column.sort_unstable();
        let kept = column.get(trim..hi).unwrap_or(&[]);
        let total: f32 = kept.iter().map(|&e| entry_weight(e, weights)).sum();
        let uniform = 1.0 / count_f32(kept.len().max(1));
        kept.iter()
            .map(|&e| {
                let w = entry_weight(e, weights);
                entry_value(e) * if total > 0.0 { w / total } else { uniform }
            })
            .sum()
    }))
}

/// Per-coordinate weighted median.
///
/// Each output coordinate is the smallest value whose cumulative weight
/// reaches half the total (uniform weights when the total is non-positive).
/// Tolerates just under half the cohort being arbitrarily corrupted.
///
/// A column's crossing is found one of two ways, and both stop at the
/// first sorted entry whose cumulative weight reaches half, so they agree
/// bit for bit:
///
/// * **Weighted selection**, when every partial sum is exact in any
///   order: uniform weights, or non-negative integer weights (sample
///   counts) whose total is below 2^24. `select_nth_unstable` splits the
///   column at n/2; the weight of the lower part says which side holds the
///   crossing, and the selection goes on in that side alone.
/// * **The walk**, for any other weights (Calibre's divergence-aware ones
///   are fractional). The column is split n/8 ranks past the midpoint, and
///   only the lower part is sorted and walked; the upper part is sorted
///   only when the walk has not crossed by its end. That is exact: a
///   column's entries are distinct, so the lower part, sorted, is the full
///   sort's prefix, and the walk adds the same weights in the same order.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`].
pub fn coordinate_median(updates: &[&[f32]], weights: &[f32]) -> Result<Vec<f32>, AggregateError> {
    let dim = check_shapes(updates, weights)?;
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(updates.len()));
    let plan = MedianPlan::new(weights);
    Ok(map_columns(updates, dim, |column| plan.median(column)))
}

/// [`coordinate_median`] and the unweighted column medians that detection
/// scores against ([`crate::adversary::anomaly_scores`]) of the same
/// updates, from one gather and one selection per column: the weighted
/// median leaves each column split at n/2, where the unweighted median is
/// read. The round engine seals a held median round that detection scores
/// with it.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`].
///
/// # Examples
///
/// ```
/// use calibre_fl::aggregate::{coordinate_median, median_and_midpoints};
///
/// let updates: [&[f32]; 4] = [&[1.0, -2.0], &[5.0, 0.5], &[-400.0, 3.0], &[2.0, 9.0]];
/// let weights = [1.0, 3.0, 1.0, 1.0];
/// let (median, midpoints) = median_and_midpoints(&updates, &weights).unwrap();
/// assert_eq!(median, coordinate_median(&updates, &weights).unwrap());
/// // Unweighted, an even column's median is its middle pair's mean.
/// assert_eq!(midpoints, vec![1.5, 1.75]);
/// ```
pub fn median_and_midpoints(
    updates: &[&[f32]],
    weights: &[f32],
) -> Result<(Vec<f32>, Vec<f32>), AggregateError> {
    let dim = check_shapes(updates, weights)?;
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(updates.len()));
    let plan = MedianPlan::new(weights);
    Ok(map_columns(updates, dim, |column| {
        let median = plan.median(column);
        (median, midpoint(column))
    })
    .into_iter()
    .unzip())
}

/// Unweighted per-coordinate median of `dim` coordinates — the mean of the
/// two middle values for an even count — with rows shorter than `dim`
/// reading as zero past their end. Detection's reference direction
/// ([`crate::adversary::anomaly_scores`]); selection, not a sort, since no
/// weights are walked.
pub(crate) fn column_medians(updates: &[&[f32]], dim: usize) -> Vec<f32> {
    map_columns(updates, dim, |column| {
        // `map_columns` never passes an empty column, so `n / 2` is in range.
        column.select_nth_unstable(column.len() / 2);
        midpoint(column)
    })
}

/// The unweighted median of a column split at n/2 — the entry of rank n/2
/// at `column[n/2]`, the n/2 smaller entries before it in any order: that
/// entry's value for an odd count, else its mean with the largest entry
/// before it.
fn midpoint(column: &[u64]) -> f32 {
    let n = column.len();
    let (lower, upper) = column.split_at(n / 2);
    let hi = upper.first().map_or(0.0, |&e| entry_value(e));
    if n % 2 == 1 {
        hi
    } else {
        0.5 * (lower.iter().max().map_or(0.0, |&e| entry_value(e)) + hi)
    }
}

/// Weighted selection sorts and walks a window this short: sorting a few
/// entries costs less than another selection, a weight sum and a rank
/// estimate (EXPERIMENTS.md, "Robust round in one column pass").
const SORTED_WINDOW: usize = 16;

/// Every integer up to 2^24 is an `f32`, so sums of non-negative integers
/// that stay below it are exact, in any order.
const EXACT_SUMS_BELOW: f32 = 16_777_216.0;

/// How [`coordinate_median`] finds a column's crossing: the first entry, in
/// sorted order, whose cumulative weight reaches half the total.
///
/// Weighted selection adds the weights in another order than the walk, so
/// it runs only when no order can round: `exact`. Uniform weights count one
/// each. For non-negative integer weights whose slot-order `f32` total is
/// below 2^24, every partial sum of that total was exact — a partial sum
/// rounded to 2^24 or past could only leave the total there — so the true
/// total is below 2^24, and every sum over any subset in any order is an
/// integer below it, hence exact. Any other weighting walks: a fractional
/// weight rounds differently in another order, and one bit of a partial
/// sum can move the crossing.
struct MedianPlan<'a> {
    /// The weights by slot, or `None` when every update counts one (a
    /// non-positive total).
    weights: Option<&'a [f32]>,
    /// The total whose half the crossing reaches: the slot-order weight
    /// sum, or the cohort size.
    full: f32,
    /// Every partial sum is exact in any order, so selection applies.
    exact: bool,
}

impl<'a> MedianPlan<'a> {
    fn new(weights: &'a [f32]) -> Self {
        let total: f32 = weights.iter().sum();
        let uniform = total <= 0.0;
        let full = if uniform {
            count_f32(weights.len())
        } else {
            total
        };
        let integral = uniform || weights.iter().all(|&w| w >= 0.0 && w.fract() == 0.0);
        MedianPlan {
            weights: (!uniform).then_some(weights),
            full,
            exact: integral && full < EXACT_SUMS_BELOW,
        }
    }

    /// The weight of the update an entry came from.
    fn weight(&self, entry: u64) -> f32 {
        self.weights.map_or(1.0, |w| entry_weight(entry, w))
    }

    /// The weight of `part`, added in its order.
    fn mass(&self, part: &[u64]) -> f32 {
        match self.weights {
            None => count_f32(part.len()),
            Some(w) => part.iter().map(|&e| entry_weight(e, w)).sum(),
        }
    }

    /// One column's weighted median. Leaves the column split at n/2, as
    /// [`midpoint`] reads it. `column` is not empty.
    fn median(&self, column: &mut [u64]) -> f32 {
        if self.exact {
            self.select(column)
        } else {
            self.walk(column)
        }
    }

    /// Sorts `part` and walks it up from the weight `acc` below it, to the
    /// first entry whose cumulative weight reaches half the total, if any.
    fn walk_up(&self, part: &mut [u64], acc: &mut f32) -> Option<f32> {
        let half = self.full * 0.5;
        part.sort_unstable();
        part.iter().find_map(|&e| {
            *acc += self.weight(e);
            (*acc >= half).then_some(entry_value(e))
        })
    }

    /// The sorting walk: split n/8 ranks past the midpoint, sort and walk
    /// the lower part, and the upper part only if the walk has not crossed.
    fn walk(&self, column: &mut [u64]) -> f32 {
        let n = column.len();
        let split = (n / 2 + n / 8).min(n.saturating_sub(1));
        column.select_nth_unstable(split);
        let (lower, upper) = column.split_at_mut(split + 1);
        let mut acc = 0.0f32;
        self.walk_up(lower, &mut acc)
            .or_else(|| self.walk_up(upper, &mut acc))
            .or_else(|| column.last().map(|&e| entry_value(e)))
            .unwrap_or(0.0)
    }

    /// Weighted selection. Each step splits a window of the column at a
    /// rank with `select_nth_unstable`; the weight below the pivot and the
    /// pivot's own say whether the crossing is below it, is it, or is above
    /// it, and the window shrinks to that side. The first split is at n/2,
    /// and later ones stay on one side of it. A window of at most
    /// [`SORTED_WINDOW`] entries is sorted and walked from the weight below
    /// it. Only exact sums (`exact`) make the crossing the walk's.
    fn select(&self, column: &mut [u64]) -> f32 {
        let half = self.full * 0.5;
        // The weight below the window and in it: the crossing is in the
        // window while `base < half <= base + mass`.
        let (mut base, mut mass) = (0.0f32, self.full);
        let mut k = column.len() / 2;
        let mut window = column;
        while window.len() > SORTED_WINDOW {
            window.select_nth_unstable(k);
            let (lower, rest) = std::mem::take(&mut window).split_at_mut(k);
            let Some((&mut pivot, upper)) = rest.split_first_mut() else {
                break;
            };
            let weight = self.weight(pivot);
            // Sum the shorter side; the window's mass gives the other.
            let (below, above) = if lower.len() <= upper.len() {
                let below = self.mass(lower);
                (below, mass - below - weight)
            } else {
                let above = self.mass(upper);
                (mass - above - weight, above)
            };
            if base + below >= half {
                (window, mass) = (lower, below);
            } else if base + below + weight >= half {
                return entry_value(pivot);
            } else {
                (window, base, mass) = (upper, base + below + weight, above);
            }
            k = self.next_rank(window.len(), half - base, mass);
        }
        self.walk_up(window, &mut base)
            .or_else(|| window.last().map(|&e| entry_value(e)))
            .unwrap_or(0.0)
    }

    /// Where to split a window of `len` entries next, when the crossing is
    /// where its cumulative weight reaches `target` of its `mass`. The
    /// estimate spreads the mass evenly, which is exact for uniform weights.
    /// Otherwise the split moves away from the nearer end of the window by
    /// a margin, so the crossing most likely falls in the short part: the
    /// crossing sits near the previous pivot, at one end.
    fn next_rank(&self, len: usize, target: f32, mass: f32) -> usize {
        let last = len.saturating_sub(1);
        let spread = f64::from(target) * f64::from(count_f32(len)) / f64::from(mass);
        // analyze:allow(lossy-cast) -- a rank estimate, clamped to the window
        let estimate = (spread.ceil() as usize).saturating_sub(1).min(last);
        if self.weights.is_none() {
            return estimate;
        }
        let margin = (len / 16).max(estimate.min(last - estimate) / 2) + 1;
        if 2 * estimate < last {
            (estimate + margin).min(last)
        } else {
            estimate.saturating_sub(margin)
        }
    }
}

// ---------------------------------------------------------------------------
// The column kernel behind the per-coordinate order statistics.
// ---------------------------------------------------------------------------

/// Coordinates gathered per block: one 64-byte cache line of `f32`s from
/// each update row.
const BLOCK: usize = 16;

/// Column entries a worker must get before the kernel fans out: below
/// about this many, spawning a thread costs more than it saves.
const WORKER_ENTRIES: usize = 1 << 13;

/// Sign bit of an `f32`'s bit pattern.
const SIGN: u32 = 1 << 31;

/// One update's value in one coordinate's column: the monotone `u32` image
/// of [`f32::total_cmp`] in the high half and the update's slot in the low
/// half. Entries order as a stable `sort_by(|a, b| a.total_cmp(b))` orders
/// their values: by value, ties in slot order. No two entries of a column
/// are equal, so `sort_unstable` gives that order too.
fn column_entry(value: f32, slot: u32) -> u64 {
    let bits = value.to_bits();
    let key = if bits & SIGN == 0 { bits | SIGN } else { !bits };
    (u64::from(key) << 32) | u64::from(slot)
}

/// The value an entry was built from, bit for bit.
fn entry_value(entry: u64) -> f32 {
    let [_, _, _, _, k0, k1, k2, k3] = entry.to_le_bytes();
    let key = u32::from_le_bytes([k0, k1, k2, k3]);
    f32::from_bits(if key & SIGN == 0 { !key } else { key & !SIGN })
}

/// The weight of the update an entry came from.
fn entry_weight(entry: u64, weights: &[f32]) -> f32 {
    let [s0, s1, s2, s3, ..] = entry.to_le_bytes();
    usize::try_from(u32::from_le_bytes([s0, s1, s2, s3]))
        .ok()
        .and_then(|slot| weights.get(slot))
        .copied()
        .unwrap_or(0.0)
}

/// Maps every coordinate's column through `stat`.
///
/// A column holds one [`column_entry`] per update, in slot order; a row
/// shorter than `dim` reads as zero past its end. Coordinates are gathered
/// [`BLOCK`] at a time into a column-major scratch buffer, so each update
/// row is read a cache line at a time rather than once per coordinate, and
/// contiguous coordinate ranges run on the [`crate::parallel`] workers,
/// each with its own scratch, one worker per [`WORKER_ENTRIES`] entries at
/// most.
fn map_columns<T, F>(updates: &[&[f32]], dim: usize, stat: F) -> Vec<T>
where
    T: Clone + Default + Send,
    F: Fn(&mut [u64]) -> T + Sync,
{
    let n = updates.len();
    if n == 0 {
        // No update, no column: splitting scratch into columns needs n > 0.
        return vec![T::default(); dim];
    }
    let grain = WORKER_ENTRIES.div_ceil(n);
    let columns = crate::parallel::parallel_ranges(dim, grain, |coords| {
        let mut out = Vec::with_capacity(coords.len());
        let mut scratch = vec![0u64; BLOCK * n];
        for lo in coords.clone().step_by(BLOCK) {
            let width = BLOCK.min(coords.end - lo);
            let block = scratch.get_mut(..width * n).unwrap_or_default();
            gather(updates, lo..lo + width, block);
            out.extend(block.chunks_exact_mut(n).map(&stat));
        }
        out
    });
    columns.concat()
}

/// Fills `block` (column-major, `updates.len()` entries per column) with
/// the entries of coordinates `coords`, at most [`BLOCK`] of them. Rows run
/// on the outside, so each update row's line is read once; its entries go
/// to the same slot of every column.
fn gather(updates: &[&[f32]], coords: Range<usize>, block: &mut [u64]) {
    // Slots fit the low half: a cohort holds far fewer than 2^32 updates.
    for (i, (slot, row)) in (0u32..).zip(updates).enumerate() {
        for (d, column) in coords.clone().zip(block.chunks_exact_mut(updates.len())) {
            if let Some(e) = column.get_mut(i) {
                *e = column_entry(row.get(d).copied().unwrap_or(0.0), slot);
            }
        }
    }
}

/// Squared L2 distance between two same-length slices.
fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Krum scores for the cohort: for each update, the sum of its squared
/// distances to its `n - f - 2` nearest neighbours. Lower is more central.
///
/// Deterministic: pure arithmetic, ties in the per-update neighbour sort
/// broken by `total_cmp`.
fn krum_scores(updates: &[&[f32]], f: usize) -> Result<Vec<f32>, AggregateError> {
    let n = updates.len();
    let keep = n
        .checked_sub(f + 2)
        .filter(|&k| k >= 1)
        .ok_or(AggregateError::CohortTooSmall {
            needed: f + 3,
            got: n,
        })?;
    let mut scores = Vec::with_capacity(n);
    let mut dists = Vec::with_capacity(n - 1);
    for (i, u) in updates.iter().enumerate() {
        dists.clear();
        for (j, v) in updates.iter().enumerate() {
            if i != j {
                dists.push(dist_sq(u, v));
            }
        }
        dists.sort_unstable_by(|a, b| a.total_cmp(b));
        scores.push(dists.iter().take(keep).sum());
    }
    Ok(scores)
}

/// The `m` lowest-Krum-score positions, ascending by score. Score ties —
/// common for mutual nearest-neighbour pairs, whose distances are equal by
/// symmetry — are broken by comparing the update values lexicographically,
/// so the *selected values* are permutation-invariant (the final index
/// tie-break only disambiguates bit-identical duplicates).
fn krum_select(updates: &[&[f32]], f: usize, m: usize) -> Result<Vec<usize>, AggregateError> {
    let scores = krum_scores(updates, f)?;
    let lex = |a: &[f32], b: &[f32]| -> std::cmp::Ordering {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut order: Vec<(f32, &[f32], usize)> = scores
        .iter()
        .zip(updates)
        .enumerate()
        .map(|(i, (&score, &update))| (score, update, i))
        .collect();
    order.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| lex(a.1, b.1))
            .then(a.2.cmp(&b.2))
    });
    let keep = m.max(1).min(order.len());
    let mut chosen: Vec<usize> = order.into_iter().take(keep).map(|(_, _, i)| i).collect();
    chosen.sort_unstable();
    Ok(chosen)
}

/// Krum (Blanchet et al., NeurIPS 2017): returns the single most central
/// update, verbatim. Tolerates up to `f` Byzantine clients in a cohort of
/// at least `f + 3`; weights are ignored (the statistic is selection, not
/// averaging).
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`];
/// [`AggregateError::CohortTooSmall`] when `n < f + 3` — single-client and
/// near-empty cohorts cannot support the neighbour statistic.
pub fn krum(updates: &[&[f32]], weights: &[f32], f: usize) -> Result<Vec<f32>, AggregateError> {
    check_shapes(updates, weights)?;
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(updates.len()));
    let chosen = krum_select(updates, f, 1)?;
    chosen
        .first()
        .and_then(|&i| updates.get(i))
        .map(|u| u.to_vec())
        .ok_or(AggregateError::Empty)
}

/// Multi-Krum: weighted average of the `m` lowest-Krum-score updates.
///
/// # Errors
///
/// As for [`krum`].
pub fn multi_krum(
    updates: &[&[f32]],
    weights: &[f32],
    f: usize,
    m: usize,
) -> Result<Vec<f32>, AggregateError> {
    check_shapes(updates, weights)?;
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(updates.len()));
    let chosen = krum_select(updates, f, m)?;
    let mut kept: Vec<&[f32]> = Vec::with_capacity(chosen.len());
    let mut kept_w: Vec<f32> = Vec::with_capacity(chosen.len());
    for &i in &chosen {
        if let (Some(&u), Some(&w)) = (updates.get(i), weights.get(i)) {
            kept.push(u);
            kept_w.push(w);
        }
    }
    Ok(weighted_average_refs(&kept, &kept_w))
}

/// Weiszfeld iteration budget for [`geometric_median`]. Fixed (never
/// adaptive to wall-clock) so the result is a pure function of the inputs.
const WEISZFELD_ITERS: usize = 64;
/// Relative convergence tolerance for the Weiszfeld iteration.
const WEISZFELD_TOL: f32 = 1e-7;

/// Geometric median of the updates via deterministic Weiszfeld iteration —
/// the point minimizing the weighted sum of L2 distances. Breakdown point
/// 0.5: no minority of colluding clients can move it arbitrarily.
///
/// Deterministic: initialized at the weighted mean, iterated a fixed budget
/// with a fixed tolerance, epsilon-smoothed so an iterate landing exactly
/// on an update never divides by zero. Same inputs, same bits.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`].
pub fn geometric_median(updates: &[&[f32]], weights: &[f32]) -> Result<Vec<f32>, AggregateError> {
    let dim = check_shapes(updates, weights)?;
    let n = updates.len();
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(n));
    let total: f32 = weights.iter().sum();
    let uniform = total <= 0.0;
    // Weighted-mean start.
    // analyze:allow(lossy-cast) -- cohort count, far below f32's 2^24 range.
    let full: f32 = if uniform { n as f32 } else { total };
    let mut y = vec![0.0f32; dim];
    for (u, &wu) in updates.iter().zip(weights) {
        let w = if uniform { 1.0 } else { wu } / full;
        for (o, &v) in y.iter_mut().zip(u.iter()) {
            *o += w * v;
        }
    }
    if n == 1 {
        return Ok(y);
    }
    let scale = y.iter().map(|v| v.abs()).fold(0.0f32, f32::max).max(1e-6);
    let mut next = vec![0.0f32; dim];
    for _ in 0..WEISZFELD_ITERS {
        let mut wsum = 0.0f32;
        next.iter_mut().for_each(|v| *v = 0.0);
        for (u, &wu) in updates.iter().zip(weights) {
            let d = dist_sq(u, &y).sqrt().max(1e-9);
            let w = if uniform { 1.0 } else { wu } / d;
            wsum += w;
            for (o, &v) in next.iter_mut().zip(u.iter()) {
                *o += w * v;
            }
        }
        let inv = 1.0 / wsum;
        let mut shift = 0.0f32;
        for (o, v) in next.iter_mut().zip(y.iter_mut()) {
            *o *= inv;
            shift = shift.max((*o - *v).abs());
            *v = *o;
        }
        if shift <= WEISZFELD_TOL * scale {
            break;
        }
    }
    Ok(y)
}

/// Norm-bounded weighted average: every update is clipped to L2 norm at
/// most `max_norm` before averaging, capping any single client's
/// displacement of the aggregate.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`].
pub fn norm_bounded_mean(
    updates: &[&[f32]],
    weights: &[f32],
    max_norm: f32,
) -> Result<Vec<f32>, AggregateError> {
    check_shapes(updates, weights)?;
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(updates.len()));
    let clipped: Vec<Vec<f32>> = updates
        .iter()
        .map(|u| {
            let mut v = u.to_vec();
            clip_norm(&mut v, max_norm);
            v
        })
        .collect();
    let refs: Vec<&[f32]> = clipped.iter().map(Vec::as_slice).collect();
    Ok(weighted_average_refs(&refs, weights))
}

/// Fixed re-centering budget for [`centered_clip`].
const CENTERED_CLIP_ITERS: usize = 3;

/// Centered clipping (Karimireddy et al., ICML 2021): starting from zero,
/// repeatedly move the center by the weighted mean of the tau-clipped
/// residuals `clip(uᵢ - c, tau)`. Honest updates pull the center to their
/// mean; a Byzantine update can displace it by at most `tau` per step.
///
/// # Errors
///
/// Input errors as in [`aggregate_robust`].
pub fn centered_clip(
    updates: &[&[f32]],
    weights: &[f32],
    tau: f32,
) -> Result<Vec<f32>, AggregateError> {
    let dim = check_shapes(updates, weights)?;
    let n = updates.len();
    let span = calibre_telemetry::span("aggregate");
    span.add_items(span_count(n));
    let total: f32 = weights.iter().sum();
    let uniform = total <= 0.0;
    // analyze:allow(lossy-cast) -- cohort count, far below f32's 2^24 range.
    let full: f32 = if uniform { n as f32 } else { total };
    let mut center = vec![0.0f32; dim];
    let mut residual = vec![0.0f32; dim];
    for _ in 0..CENTERED_CLIP_ITERS {
        let mut step = vec![0.0f32; dim];
        for (u, &wu) in updates.iter().zip(weights) {
            for ((r, &v), &c) in residual.iter_mut().zip(u.iter()).zip(center.iter()) {
                *r = v - c;
            }
            clip_norm(&mut residual, tau);
            let w = if uniform { 1.0 } else { wu } / full;
            for (s, &r) in step.iter_mut().zip(residual.iter()) {
                *s += w * r;
            }
        }
        for (c, s) in center.iter_mut().zip(step.iter()) {
            *c += s;
        }
    }
    Ok(center)
}

/// Fault-tolerant aggregation front door: dispatches on [`Aggregator`] and
/// returns a typed error instead of panicking.
///
/// [`Aggregator::WeightedAverage`] validates shapes, then folds the updates
/// in input order through a [`StreamingWeightedSink::for_cohort`] sink, bit
/// for bit — the golden-checksum tests rely on that.
///
/// # Errors
///
/// [`AggregateError::Empty`] on an empty cohort (e.g. everything was
/// rejected by validation), shape/weight-count mismatches,
/// [`AggregateError::InvalidWeight`] for a NaN or infinite weight (a
/// negative finite weight is accepted; a non-positive total falls back to
/// uniform weights), [`AggregateError::InvalidTrimRatio`] for out-of-range
/// trim ratios, and
/// [`AggregateError::CohortTooSmall`] when a robust statistic is undefined
/// for the cohort size (the caller should take the skipped-round path).
pub fn aggregate_robust(
    aggregator: Aggregator,
    updates: &[&[f32]],
    weights: &[f32],
) -> Result<Vec<f32>, AggregateError> {
    match aggregator {
        Aggregator::WeightedAverage => {
            check_shapes(updates, weights)?;
            Ok(weighted_average_refs(updates, weights))
        }
        Aggregator::TrimmedMean(ratio) => trimmed_mean(updates, weights, ratio),
        Aggregator::CoordinateMedian => coordinate_median(updates, weights),
        Aggregator::Krum { f } => krum(updates, weights, f),
        Aggregator::MultiKrum { f, m } => multi_krum(updates, weights, f, m),
        Aggregator::GeometricMedian => geometric_median(updates, weights),
        Aggregator::NormBound(max) => norm_bounded_mean(updates, weights, max),
        Aggregator::CenteredClip(tau) => centered_clip(updates, weights, tau),
    }
}

/// Converts one client's divergence rate into its aggregation-weight
/// factor, `1 / (max(d, 0) + 1e-3)` (Calibre §IV-B: clients whose samples
/// sit closer to their prototypes — lower divergence — contribute more).
/// The aggregate normalizes by the weight total, so no cohort-wide pass is
/// needed.
///
/// A small epsilon keeps the weight finite when a divergence is zero.
pub fn divergence_weight(divergence: f32) -> f32 {
    1.0 / (divergence.max(0.0) + 1e-3)
}

// ---------------------------------------------------------------------------
// Streaming sinks: constant-memory aggregation for massive cohorts.
// ---------------------------------------------------------------------------

use rand::rngs::StdRng;
use rand::Rng as _;

/// A streaming accumulator that client updates are folded into the moment
/// they finish, instead of being collected into an O(cohort × model) `Vec`
/// first: the streaming side of the round engine
/// ([`crate::scheduler::Fold::Stream`]; `DESIGN.md` §11). A sink only
/// reads each update. A statistic that needs the whole round at once runs
/// over the updates the engine holds ([`crate::scheduler::Fold::Hold`]).
///
/// # Contract
///
/// * **Fold order is the determinism boundary.** Folding the same
///   `(client, update, weight)` triples in the same order is bit-identical
///   on replay; folding a permutation is only guaranteed to agree within
///   f32 round-off. The engine folds in selection-slot order, passing the
///   client id as `client` — [`crate::parallel::parallel_map`] and every
///   transport return results in input order precisely so it can.
/// * **Quorum interaction.** A fold cannot be undone, so the engine folds
///   each accepted update at once and checks
///   [`crate::scheduler::RoundPolicy::min_quorum`] at the end: a round
///   below quorum never calls [`UpdateSink::finish`]. A sink serves one
///   round; callers build a fresh one every round, and may hand it the
///   previous round's aggregate through [`UpdateSink::adopt`] to
///   aggregate in without allocating.
/// * **Callers screen first.** A sink trusts what it is handed: the
///   engine rejects a reply whose length differs from the global model's,
///   whose weight is non-finite or negative, or whose update is non-finite
///   before it reaches [`UpdateSink::fold`].
/// * **A sink is spent after [`UpdateSink::finish`]:** the accumulator is
///   drained, and a second `finish` reports [`AggregateError::Empty`].
///
/// # Examples
///
/// ```
/// use calibre_fl::aggregate::{StreamingWeightedSink, UpdateSink};
///
/// let mut sink = StreamingWeightedSink::new();
/// sink.fold(0, &[0.0, 2.0], 1.0).unwrap();
/// sink.fold(1, &[2.0, 4.0], 3.0).unwrap();
/// assert_eq!(sink.folded(), 2);
/// assert_eq!(sink.finish().unwrap(), vec![1.5, 3.5]);
/// ```
pub trait UpdateSink {
    /// Folds one client's update with its aggregation weight.
    ///
    /// # Errors
    ///
    /// [`AggregateError::LengthMismatch`] when `update` disagrees with the
    /// dimension established by the first fold (the `index` field carries
    /// the fold position).
    fn fold(&mut self, client: usize, update: &[f32], weight: f32) -> Result<(), AggregateError>;

    /// Number of updates folded so far.
    fn folded(&self) -> usize;

    /// Bytes of accumulator state currently held — the quantity the
    /// `cohort` bench asserts stays flat as the cohort grows.
    fn state_bytes(&self) -> usize;

    /// Offers a spent buffer, such as the previous round's aggregate, for
    /// the sink to accumulate in. Its contents are ignored: a sink that
    /// adopts it zeroes it at the first fold, and it counts in
    /// [`UpdateSink::state_bytes`] from then on. The default drops it.
    fn adopt(&mut self, _buf: Vec<f32>) {}

    /// Drains the accumulated state into the aggregate.
    ///
    /// # Errors
    ///
    /// [`AggregateError::Empty`] when nothing was folded (or the sink was
    /// already finished); [`AggregateError::NonPositiveTotal`] when a
    /// deferred-normalization sink saw weights summing to ≤ 0.
    fn finish(&mut self) -> Result<Vec<f32>, AggregateError>;
}

/// How a [`StreamingWeightedSink`] normalizes its weights.
#[derive(Debug, Clone, Copy)]
enum WeightedMode {
    /// Accumulate `Σ wᵢ·uᵢ`, divide by `Σ wᵢ` at finish.
    Deferred,
    /// Total weight known up front: apply the exact `wᵢ / total` per-fold
    /// scale (uniform `1/n` fallback when the total is non-positive).
    PerFold {
        /// Pre-computed `Σ wᵢ` over the full cohort.
        total: f32,
        /// Cohort size, for the uniform fallback.
        cohort: usize,
    },
}

/// The weighted-average [`UpdateSink`]: O(model) state, the streaming form
/// of [`Aggregator::WeightedAverage`].
///
/// # Determinism
///
/// * [`StreamingWeightedSink::new`] defers normalization to finish
///   (`Σ wᵢ·uᵢ / Σ wᵢ`) — the true streaming mode for cohorts whose total
///   weight is unknown until everyone reported. Agrees with
///   [`aggregate_robust`] within f32 round-off under *any* fold order,
///   and is bit-identical on replay of the same fold order.
/// * [`StreamingWeightedSink::for_cohort`] takes the total weight and
///   cohort size up front and applies the exact per-fold scale `wᵢ / Σ w`;
///   folding in canonical (selection-slot) order is **bit-identical** to
///   [`aggregate_robust`] with [`Aggregator::WeightedAverage`], which runs
///   this very fold. The golden-checksum tests pin it.
///
/// # Examples
///
/// Canonical-order folding through the pre-normalized mode reproduces
/// the weighted [`aggregate_robust`] bit for bit:
///
/// ```
/// use calibre_fl::aggregate::{aggregate_robust, Aggregator, StreamingWeightedSink, UpdateSink};
///
/// let updates: [&[f32]; 2] = [&[1.0, -2.5], &[0.5, 4.0]];
/// let weights = [2.0, 5.0];
/// let total: f32 = weights.iter().sum();
/// let mut sink = StreamingWeightedSink::for_cohort(total, updates.len());
/// for (i, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
///     sink.fold(i, u, w).unwrap();
/// }
/// let streamed = sink.finish().unwrap();
/// let reference = aggregate_robust(Aggregator::WeightedAverage, &updates, &weights).unwrap();
/// assert!(streamed.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()));
/// ```
#[derive(Debug)]
pub struct StreamingWeightedSink {
    acc: Vec<f32>,
    total: f32,
    folded: usize,
    mode: WeightedMode,
}

impl StreamingWeightedSink {
    /// Deferred-normalization mode: `Σ wᵢ·uᵢ / Σ wᵢ` at finish. Requires a
    /// positive total weight by finish time.
    pub fn new() -> Self {
        StreamingWeightedSink {
            acc: Vec::new(),
            total: 0.0,
            folded: 0,
            mode: WeightedMode::Deferred,
        }
    }

    /// Pre-normalized mode for a cohort whose `total_weight` (and size) is
    /// known before folding starts: bit-identical to the weighted
    /// [`aggregate_robust`] when folded in canonical order.
    pub fn for_cohort(total_weight: f32, cohort: usize) -> Self {
        StreamingWeightedSink {
            acc: Vec::new(),
            total: 0.0,
            folded: 0,
            mode: WeightedMode::PerFold {
                total: total_weight,
                cohort: cohort.max(1),
            },
        }
    }
}

impl Default for StreamingWeightedSink {
    fn default() -> Self {
        Self::new()
    }
}

impl UpdateSink for StreamingWeightedSink {
    fn fold(&mut self, _client: usize, update: &[f32], weight: f32) -> Result<(), AggregateError> {
        if self.folded == 0 {
            // A fresh accumulator, or an adopted buffer zeroed in place.
            self.acc.clear();
            self.acc.reserve_exact(update.len());
            self.acc.resize(update.len(), 0.0);
        }
        if update.len() != self.acc.len() {
            return Err(AggregateError::LengthMismatch {
                index: self.folded,
                expected: self.acc.len(),
                got: update.len(),
            });
        }
        let scale = match self.mode {
            WeightedMode::Deferred => weight,
            WeightedMode::PerFold { total, cohort } => {
                if total > 0.0 {
                    weight / total
                } else {
                    // analyze:allow(lossy-cast) -- cohort sizes sit far
                    // below f32 integer precision loss (2^24).
                    1.0 / cohort as f32
                }
            }
        };
        for (o, &v) in self.acc.iter_mut().zip(update.iter()) {
            *o += scale * v;
        }
        self.total += weight;
        self.folded += 1;
        Ok(())
    }

    fn folded(&self) -> usize {
        self.folded
    }

    fn state_bytes(&self) -> usize {
        // Capacity, not length: allocated-but-unused slack is still resident
        // memory the cohort bench's flat-peak assertion must see. An adopted
        // buffer becomes accumulator state at the first fold.
        let acc = if self.folded == 0 {
            0
        } else {
            self.acc.capacity()
        };
        acc * std::mem::size_of::<f32>() + std::mem::size_of::<Self>()
    }

    fn adopt(&mut self, buf: Vec<f32>) {
        if self.folded == 0 {
            self.acc = buf;
        }
    }

    fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
        if self.folded == 0 {
            return Err(AggregateError::Empty);
        }
        let total = self.total;
        let mut out = std::mem::take(&mut self.acc);
        self.folded = 0;
        self.total = 0.0;
        match self.mode {
            WeightedMode::PerFold { .. } => Ok(out),
            WeightedMode::Deferred => {
                if total <= 0.0 {
                    return Err(AggregateError::NonPositiveTotal);
                }
                let inv = 1.0 / total;
                for v in out.iter_mut() {
                    *v *= inv;
                }
                Ok(out)
            }
        }
    }
}

/// SplitMix64 finalizer — the deterministic group-assignment hash of
/// [`HierarchicalSink`].
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Two-level weighted [`UpdateSink`]: clients are deterministically hashed
/// into one of `groups` edge accumulators, each edge keeps a deferred
/// weighted sum, and finish folds the edges into the root mean.
///
/// State is O(groups × model) — the middle rung of the
/// O(clients × model) → O(groups × model) → O(model) ladder in `DESIGN.md`
/// §11. In a real deployment each edge accumulator lives on its own
/// aggregator node; in-process the type models the memory/communication
/// shape and pins the determinism contract.
///
/// # Determinism
///
/// Group assignment depends only on `(seed, client id)` via a SplitMix64
/// hash, never on arrival order. The result depends on the fold order
/// *within* each group: replaying the same fold sequence is bit-identical,
/// and permuting clients across different groups changes nothing. Agreement
/// with the flat weighted average is within f32 round-off (summation is
/// re-associated by group).
///
/// # Examples
///
/// ```
/// use calibre_fl::aggregate::{HierarchicalSink, UpdateSink};
///
/// let mut sink = HierarchicalSink::new(4, 42);
/// for client in 0..100usize {
///     let v = client as f32;
///     sink.fold(client, &[v, -v], 1.0).unwrap();
/// }
/// let mean = sink.finish().unwrap();
/// assert!((mean[0] - 49.5).abs() < 1e-3); // mean of 0..100
/// assert!((mean[1] + 49.5).abs() < 1e-3);
/// ```
#[derive(Debug)]
pub struct HierarchicalSink {
    accs: Vec<Vec<f32>>,
    totals: Vec<f32>,
    seed: u64,
    folded: usize,
    dim: Option<usize>,
}

impl HierarchicalSink {
    /// A sink with `groups` edge accumulators (at least 1) and a seed for
    /// the group-assignment hash.
    pub fn new(groups: usize, seed: u64) -> Self {
        let groups = groups.max(1);
        HierarchicalSink {
            accs: vec![Vec::new(); groups],
            totals: vec![0.0; groups],
            seed,
            folded: 0,
            dim: None,
        }
    }

    /// Number of edge accumulators.
    pub fn groups(&self) -> usize {
        self.accs.len()
    }

    /// The edge group `client` folds into — a pure function of
    /// `(seed, client)`, stable across rounds and replays.
    pub fn group_of(&self, client: usize) -> usize {
        // analyze:allow(lossy-cast) -- id→u64 is widening on every
        // supported target; the modulus keeps the result in-range.
        (mix64(self.seed ^ client as u64) % self.accs.len() as u64) as usize
    }
}

impl UpdateSink for HierarchicalSink {
    fn fold(&mut self, client: usize, update: &[f32], weight: f32) -> Result<(), AggregateError> {
        let dim = *self.dim.get_or_insert(update.len());
        if update.len() != dim {
            return Err(AggregateError::LengthMismatch {
                index: self.folded,
                expected: dim,
                got: update.len(),
            });
        }
        let g = self.group_of(client);
        if let (Some(acc), Some(total)) = (self.accs.get_mut(g), self.totals.get_mut(g)) {
            if acc.is_empty() {
                acc.resize(dim, 0.0);
            }
            for (o, &v) in acc.iter_mut().zip(update.iter()) {
                *o += weight * v;
            }
            *total += weight;
        }
        self.folded += 1;
        Ok(())
    }

    fn folded(&self) -> usize {
        self.folded
    }

    fn state_bytes(&self) -> usize {
        // Capacity-based, matching the other sinks: per-group accumulators,
        // the spine holding them, and the per-group weight totals.
        let held: usize = self.accs.iter().map(Vec::capacity).sum();
        let spine = self.accs.capacity() * std::mem::size_of::<Vec<f32>>();
        (held + self.totals.capacity()) * std::mem::size_of::<f32>()
            + spine
            + std::mem::size_of::<Self>()
    }

    fn finish(&mut self) -> Result<Vec<f32>, AggregateError> {
        if self.folded == 0 {
            return Err(AggregateError::Empty);
        }
        let dim = self.dim.take().unwrap_or(0);
        let grand: f32 = self.totals.iter().sum();
        let accs = std::mem::take(&mut self.accs);
        let groups = accs.len();
        self.accs = vec![Vec::new(); groups];
        for t in self.totals.iter_mut() {
            *t = 0.0;
        }
        self.folded = 0;
        if grand <= 0.0 {
            return Err(AggregateError::NonPositiveTotal);
        }
        // Root fold: edge sums combine in group-index order, then one
        // normalization — the same arithmetic a physical edge tier reports.
        let mut out = vec![0.0f32; dim];
        for acc in &accs {
            for (o, &v) in out.iter_mut().zip(acc.iter()) {
                *o += v;
            }
        }
        let inv = 1.0 / grand;
        for v in out.iter_mut() {
            *v *= inv;
        }
        Ok(out)
    }
}

/// The updates a round holds for its seal: each accepted reply's own
/// buffer and its weight, in the order the engine keeps them
/// ([`crate::scheduler::Fold::Hold`], and every round detection scores).
///
/// The robust statistics need the whole round at once — order statistics
/// need every coordinate's column, Krum compares every pair of updates,
/// Weiszfeld iterates over all of them — so no constant-memory stream
/// computes them (`DESIGN.md` §11). The hold keeps at most `capacity`
/// updates and samples the round uniformly past that (Vitter's algorithm
/// R, driven by a seeded rng):
///
/// * rounds up to `capacity` are held whole, so their statistic is exact;
/// * past it, the statistic runs over a uniform sample of the round, in
///   O(capacity × model) state whatever the cohort.
///
/// Replacement choices depend only on `(seed, keep order)`, so replaying a
/// round reproduces the reservoir, and its aggregate, bit for bit.
#[derive(Debug)]
pub(crate) struct Hold {
    entries: Vec<Vec<f32>>,
    weights: Vec<f32>,
    capacity: usize,
    rng: StdRng,
    /// Updates offered so far, held or not.
    offered: usize,
}

impl Hold {
    /// A hold of at most `capacity` updates (at least one); `seed` drives
    /// the reservoir's replacement choices.
    pub(crate) fn new(capacity: usize, seed: u64) -> Self {
        Hold {
            entries: Vec::new(),
            weights: Vec::new(),
            capacity: capacity.max(1),
            rng: calibre_tensor::rng::seeded(seed ^ 0x5EED_5EED_5EED_5EED),
            offered: 0,
        }
    }

    /// Holds `update` with its weight, and returns the buffer the round no
    /// longer needs: none under capacity; past it, `update` itself when the
    /// reservoir passes over it, else the update it displaces.
    pub(crate) fn keep(&mut self, update: Vec<f32>, weight: f32) -> Option<Vec<f32>> {
        let offered = self.offered;
        self.offered += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(update);
            self.weights.push(weight);
            return None;
        }
        // Algorithm R: item k replaces a uniform j ∈ [0, k]; j beyond the
        // capacity means the item is passed over.
        let j = self.rng.gen_range(0..=offered);
        match (self.entries.get_mut(j), self.weights.get_mut(j)) {
            (Some(slot), Some(wslot)) => {
                *wslot = weight;
                Some(std::mem::replace(slot, update))
            }
            _ => Some(update),
        }
    }

    /// The held updates, in reservoir order.
    pub(crate) fn updates(&self) -> Vec<&[f32]> {
        self.entries.iter().map(Vec::as_slice).collect()
    }

    /// The held updates' weights, in the order of [`Hold::updates`].
    pub(crate) fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Bytes held: each buffer's capacity, the spine holding them, the
    /// weights and the hold itself.
    pub(crate) fn state_bytes(&self) -> usize {
        let held: usize = self.entries.iter().map(Vec::capacity).sum();
        let spine = self.entries.capacity() * std::mem::size_of::<Vec<f32>>();
        (held + self.weights.capacity()) * std::mem::size_of::<f32>()
            + spine
            + std::mem::size_of::<Self>()
    }

    /// The held buffers, to go back to the transport.
    pub(crate) fn into_buffers(self) -> Vec<Vec<f32>> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_average_of_two_vectors() {
        let avg = weighted_average_refs(&[&[0.0, 2.0], &[2.0, 4.0]], &[1.0, 1.0]);
        assert_eq!(avg, vec![1.0, 3.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let avg = weighted_average_refs(&[&[0.0], &[10.0]], &[3.0, 1.0]);
        assert!((avg[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn weights_are_normalized() {
        let a = weighted_average_refs(&[&[1.0], &[3.0]], &[1.0, 1.0]);
        let b = weighted_average_refs(&[&[1.0], &[3.0]], &[100.0, 100.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_total_weight_falls_back_to_uniform() {
        let avg = weighted_average_refs(&[&[0.0], &[4.0]], &[0.0, 0.0]);
        assert_eq!(avg, vec![2.0]);
    }

    #[test]
    fn single_update_is_identity() {
        let avg = weighted_average_refs(&[&[1.5, -2.0]], &[7.0]);
        assert_eq!(avg, vec![1.5, -2.0]);
    }

    #[test]
    fn divergence_weights_prefer_low_divergence() {
        assert!(divergence_weight(0.1) > divergence_weight(1.0));
    }

    #[test]
    fn sample_count_weights_are_proportional() {
        // Clients holding 10 and 30 samples count 1:3.
        let avg = weighted_average_refs(&[&[0.0], &[4.0]], &[10.0, 30.0]);
        assert_eq!(avg, vec![3.0]);
    }

    #[test]
    fn refs_variant_matches_owned_variant_bitwise() {
        // Owned updates reach the weighted core through the front door.
        let updates = [vec![1.0f32, -2.5, 3.25], vec![0.5, 4.0, -1.0]];
        let weights = [2.0, 5.0];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let owned = aggregate_robust(Aggregator::WeightedAverage, &refs, &weights).unwrap();
        let borrowed = weighted_average_refs(&refs, &weights);
        assert_eq!(
            owned.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            borrowed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "cannot aggregate zero updates")]
    fn empty_updates_panics() {
        weighted_average_refs(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn mismatched_lengths_panic() {
        weighted_average_refs(&[&[1.0], &[1.0, 2.0]], &[1.0, 1.0]);
    }

    #[test]
    fn validate_update_flags_non_finite_values() {
        assert!(validate_update(&[1.0, -2.0, 0.0]));
        assert!(!validate_update(&[1.0, f32::NAN]));
        assert!(!validate_update(&[f32::INFINITY]));
        assert!(!validate_update(&[f32::NEG_INFINITY, 2.0]));
        assert!(validate_update(&[]));
    }

    #[test]
    fn validate_update_agrees_with_all_finite_at_every_index() {
        for len in 0..=67usize {
            let clean: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 7.0).collect();
            assert!(validate_update(&clean), "len {len}");
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for at in 0..len {
                    let mut update = clean.clone();
                    update[at] = bad;
                    let want = update.iter().all(|v| v.is_finite());
                    assert_eq!(validate_update(&update), want, "{bad} at {at} of {len}");
                }
            }
        }
    }

    #[test]
    fn clip_norm_scales_only_oversized_updates() {
        let mut big = vec![3.0f32, 4.0];
        assert!(clip_norm(&mut big, 1.0));
        let norm = (big[0] * big[0] + big[1] * big[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-5, "clipped norm {norm}");
        assert!((big[0] / big[1] - 0.75).abs() < 1e-5, "direction changed");

        let mut small = vec![0.3f32, 0.4];
        assert!(!clip_norm(&mut small, 1.0));
        assert_eq!(small, vec![0.3, 0.4]);

        // Non-finite norms are left for validation to reject.
        let mut poisoned = vec![f32::NAN, 1.0];
        assert!(!clip_norm(&mut poisoned, 1.0));
        assert!(poisoned[0].is_nan());
    }

    #[test]
    fn trimmed_mean_discards_an_outlier() {
        // Five honest clients around 1.0 and one blown-up straggler: a 20%
        // trim must remove the 1e6 update from every coordinate.
        let updates: Vec<Vec<f32>> = vec![
            vec![0.9, 1.1],
            vec![1.0, 1.0],
            vec![1.1, 0.9],
            vec![0.95, 1.05],
            vec![1.05, 0.95],
            vec![1e6, -1e6],
        ];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let weights = vec![1.0f32; refs.len()];
        let out = trimmed_mean(&refs, &weights, 0.2).unwrap();
        assert!(
            out.iter().all(|v| (*v - 1.0).abs() < 0.2),
            "outlier leaked into {out:?}"
        );
    }

    #[test]
    fn coordinate_median_resists_a_minority_of_liars() {
        let updates: Vec<Vec<f32>> = vec![
            vec![1.0, -1.0],
            vec![1.1, -0.9],
            vec![0.9, -1.1],
            vec![-500.0, 500.0],
        ];
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let out = coordinate_median(&refs, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(out[0] > 0.0 && out[0] < 1.2, "median hijacked: {out:?}");
        assert!(out[1] < 0.0 && out[1] > -1.2, "median hijacked: {out:?}");
    }

    #[test]
    fn coordinate_median_respects_weights() {
        let refs: Vec<&[f32]> = vec![&[0.0f32], &[10.0f32]];
        // The heavy client owns more than half the total weight, so the
        // weighted median lands on its value.
        let out = coordinate_median(&refs, &[1.0, 3.0]).unwrap();
        assert_eq!(out, vec![10.0]);
        let out = coordinate_median(&refs, &[3.0, 1.0]).unwrap();
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn robust_aggregation_reports_typed_errors() {
        assert!(matches!(
            aggregate_robust(Aggregator::WeightedAverage, &[], &[]),
            Err(AggregateError::Empty)
        ));
        let refs: Vec<&[f32]> = vec![&[1.0f32, 2.0], &[1.0f32]];
        assert!(matches!(
            aggregate_robust(Aggregator::CoordinateMedian, &refs, &[1.0, 1.0]),
            Err(AggregateError::LengthMismatch {
                index: 1,
                expected: 2,
                got: 1
            })
        ));
        let refs: Vec<&[f32]> = vec![&[1.0f32]];
        assert!(matches!(
            aggregate_robust(Aggregator::TrimmedMean(0.2), &refs, &[1.0, 1.0]),
            Err(AggregateError::WeightCountMismatch {
                updates: 1,
                weights: 2
            })
        ));
    }

    #[test]
    fn non_finite_weights_are_typed_errors_for_every_aggregator() {
        // Unchecked, a NaN weight makes the median return the
        // per-coordinate maximum, [300, 7], and the average the uniform
        // mean; an infinite weight makes the average [NaN, NaN].
        let updates: [&[f32]; 3] = [&[1.0, -5.0], &[2.0, 0.0], &[300.0, 7.0]];
        for agg in [
            Aggregator::WeightedAverage,
            Aggregator::TrimmedMean(0.2),
            Aggregator::CoordinateMedian,
            Aggregator::Krum { f: 1 },
            Aggregator::MultiKrum { f: 1, m: 2 },
            Aggregator::GeometricMedian,
            Aggregator::NormBound(10.0),
            Aggregator::CenteredClip(5.0),
        ] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let got = aggregate_robust(agg, &updates, &[bad, 1.0, 1.0]);
                assert!(
                    matches!(
                        got,
                        Err(AggregateError::InvalidWeight { index: 0, weight })
                            if weight.to_bits() == bad.to_bits()
                    ),
                    "{agg:?} with weight {bad}: {got:?}"
                );
            }
            // A negative finite weight keeps the non-positive-total
            // fallback: the statistic is defined, not an error.
            let negative = aggregate_robust(agg, &updates, &[-4.0, 1.0, 1.0]);
            assert!(
                !matches!(negative, Err(AggregateError::InvalidWeight { .. })),
                "{agg:?}: {negative:?}"
            );
        }
        assert_eq!(
            AggregateError::InvalidWeight {
                index: 2,
                weight: f32::INFINITY
            }
            .to_string(),
            "weight 2 is inf, not finite"
        );
    }

    #[test]
    fn aggregator_parse_accepts_the_documented_spellings() {
        assert_eq!(
            Aggregator::parse("weighted").unwrap(),
            Aggregator::WeightedAverage
        );
        assert_eq!(
            Aggregator::parse("mean").unwrap(),
            Aggregator::WeightedAverage
        );
        assert_eq!(
            Aggregator::parse("median").unwrap(),
            Aggregator::CoordinateMedian
        );
        assert_eq!(
            Aggregator::parse("trimmed").unwrap(),
            Aggregator::TrimmedMean(0.2)
        );
        assert_eq!(
            Aggregator::parse("trimmed:0.1").unwrap(),
            Aggregator::TrimmedMean(0.1)
        );
        assert!(
            Aggregator::parse("trimmed:0.7").is_none(),
            "ratio above 0.5"
        );
        assert_eq!(
            Aggregator::parse("krum").unwrap(),
            Aggregator::Krum { f: 1 }
        );
        assert_eq!(
            Aggregator::parse("krum:2").unwrap(),
            Aggregator::Krum { f: 2 }
        );
        assert_eq!(
            Aggregator::parse("multikrum").unwrap(),
            Aggregator::MultiKrum { f: 1, m: 3 }
        );
        assert_eq!(
            Aggregator::parse("multi-krum:2:5").unwrap(),
            Aggregator::MultiKrum { f: 2, m: 5 }
        );
        assert_eq!(
            Aggregator::parse("geomedian").unwrap(),
            Aggregator::GeometricMedian
        );
        assert_eq!(
            Aggregator::parse("normbound:5").unwrap(),
            Aggregator::NormBound(5.0)
        );
        assert_eq!(
            Aggregator::parse("clip:0.5").unwrap(),
            Aggregator::CenteredClip(0.5)
        );
        assert!(
            Aggregator::parse("multikrum:1:0").is_none(),
            "m must be > 0"
        );
        assert!(Aggregator::parse("normbound:-1").is_none());
        assert!(Aggregator::parse("bogus").is_none(), "unknown aggregator");
        // Every variant's canonical name must parse back to itself.
        for agg in [
            Aggregator::WeightedAverage,
            Aggregator::TrimmedMean(0.2),
            Aggregator::CoordinateMedian,
            Aggregator::Krum { f: 2 },
            Aggregator::MultiKrum { f: 2, m: 4 },
            Aggregator::GeometricMedian,
            Aggregator::NormBound(3.0),
            Aggregator::CenteredClip(1.5),
        ] {
            assert_eq!(Aggregator::parse(&agg.name()), Some(agg), "{agg:?}");
        }
    }

    #[test]
    fn parse_spec_errors_name_keyword_and_parameter_span() {
        // Every malformed shape: (spec, blamed keyword, byte span of the
        // offending parameter — the whole input for unknown keywords).
        let cases = [
            ("bogus", "bogus", (0, 5)),
            ("trimmed:x", "trimmed", (8, 9)),
            ("trimmed:0.5", "trimmed", (8, 11)),
            ("trimmed:-0.1", "trimmed", (8, 12)),
            ("krum:x", "krum", (5, 6)),
            ("multikrum:1", "multikrum", (10, 11)),
            ("multikrum:x:2", "multikrum", (10, 11)),
            ("multikrum:1:x", "multikrum", (12, 13)),
            ("multikrum:1:0", "multikrum", (12, 13)),
            ("multi-krum:1:x", "multikrum", (13, 14)),
            ("normbound:x", "normbound", (10, 11)),
            ("normbound:-1", "normbound", (10, 12)),
            ("normbound:inf", "normbound", (10, 13)),
            ("clip:x", "clip", (5, 6)),
            ("clip:0", "clip", (5, 6)),
        ];
        for (spec, key, span) in cases {
            let err = Aggregator::parse_spec(spec).expect_err(spec);
            assert_eq!(err.family, "aggregator", "{spec}");
            assert_eq!(err.key, key, "{spec}");
            assert_eq!(err.span, span, "{spec}");
        }
        let err = Aggregator::parse_spec("trimmed:0.9").expect_err("trimmed:0.9");
        assert_eq!(
            err.to_string(),
            "aggregator spec: `trimmed` at bytes 8..11: ratio 0.9 outside [0, 0.5)"
        );
    }

    #[test]
    fn streaming_sink_per_fold_matches_refs_bitwise() {
        let updates: [&[f32]; 3] = [&[1.0, -2.5, 0.125], &[0.5, 4.0, -1.0], &[3.0, 0.0, 9.5]];
        let weights = [2.0, 5.0, 1.0];
        let reference = weighted_average_refs(&updates, &weights);
        let total: f32 = weights.iter().sum();
        let mut sink = StreamingWeightedSink::for_cohort(total, updates.len());
        for (i, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
            sink.fold(i, u, w).unwrap();
        }
        let streamed = sink.finish().unwrap();
        assert_eq!(streamed.len(), reference.len());
        for (s, r) in streamed.iter().zip(reference.iter()) {
            assert_eq!(s.to_bits(), r.to_bits(), "bit-identity in canonical order");
        }
    }

    #[test]
    fn streaming_sink_deferred_agrees_under_permutation() {
        let updates: [&[f32]; 3] = [&[1.0, -2.5], &[0.5, 4.0], &[3.0, 0.0]];
        let weights = [2.0, 5.0, 1.0];
        let reference = weighted_average_refs(&updates, &weights);
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut sink = StreamingWeightedSink::new();
            for &i in &order {
                let (u, w) = updates
                    .iter()
                    .zip(weights.iter())
                    .nth(i)
                    .map(|(u, &w)| (*u, w))
                    .unwrap_or((&[], 0.0));
                sink.fold(i, u, w).unwrap();
            }
            let streamed = sink.finish().unwrap();
            for (s, r) in streamed.iter().zip(reference.iter()) {
                assert!((s - r).abs() < 1e-5, "{order:?}: {s} vs {r}");
            }
        }
    }

    #[test]
    fn streaming_sink_reports_mismatch_and_spent_state() {
        let mut sink = StreamingWeightedSink::new();
        sink.fold(0, &[1.0, 2.0], 1.0).unwrap();
        assert!(matches!(
            sink.fold(1, &[1.0], 1.0),
            Err(AggregateError::LengthMismatch {
                index: 1,
                expected: 2,
                got: 1
            })
        ));
        assert!(sink.finish().is_ok());
        assert!(
            matches!(sink.finish(), Err(AggregateError::Empty)),
            "a sink is spent after finish"
        );
    }

    #[test]
    fn streaming_sink_rejects_non_positive_total() {
        let mut sink = StreamingWeightedSink::new();
        sink.fold(0, &[1.0], 0.0).unwrap();
        assert!(matches!(
            sink.finish(),
            Err(AggregateError::NonPositiveTotal)
        ));
    }

    /// `updates` offered to a hold of `capacity` seeded with `seed`, in
    /// order, and the buffers it gave back.
    fn hold_of(updates: &[&[f32]], capacity: usize, seed: u64) -> (Hold, usize) {
        let mut hold = Hold::new(capacity, seed);
        let given_back = updates
            .iter()
            .filter_map(|u| hold.keep(u.to_vec(), 1.0))
            .count();
        (hold, given_back)
    }

    #[test]
    fn reservoir_sink_is_exact_under_capacity() {
        let updates: [&[f32]; 5] = [&[1.0], &[2.0], &[3.0], &[100.0], &[-50.0]];
        let weights = [1.0; 5];
        let (hold, given_back) = hold_of(&updates, 8, 3);
        assert_eq!(given_back, 0, "under capacity every update is held");
        let seal = |aggregator| aggregate_robust(aggregator, &hold.updates(), hold.weights());
        assert_eq!(
            seal(Aggregator::CoordinateMedian).unwrap(),
            coordinate_median(&updates, &weights).unwrap()
        );
        assert_eq!(
            seal(Aggregator::TrimmedMean(0.2)).unwrap(),
            trimmed_mean(&updates, &weights, 0.2).unwrap()
        );
    }

    /// `offered` updates through a hold of capacity 16 seal with
    /// `aggregator` in bounded state, and replay bit-identically.
    fn assert_reservoir_is_bounded_and_replay_identical(aggregator: Aggregator, offered: usize) {
        let rows: Vec<Vec<f32>> = (0..offered)
            // analyze:allow(lossy-cast) -- test data generation only.
            .map(|i| vec![i as f32, -(i as f32)])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let run = || {
            let (hold, given_back) = hold_of(&refs, 16, 9);
            assert_eq!(
                given_back,
                offered - 16,
                "{aggregator:?}: one buffer back per update past capacity"
            );
            let aggregate = aggregate_robust(aggregator, &hold.updates(), hold.weights());
            (aggregate.unwrap(), hold.state_bytes())
        };
        let (a, bytes_a) = run();
        let (b, bytes_b) = run();
        assert_eq!(
            a, b,
            "{aggregator:?}: same seed + keep order replays bit-identically"
        );
        assert_eq!(bytes_a, bytes_b);
        let flat_bytes = offered * 2 * std::mem::size_of::<f32>();
        assert!(
            bytes_a < flat_bytes / 10,
            "{aggregator:?}: the reservoir must stay far below the O(cohort) collection \
             ({bytes_a} vs {flat_bytes})"
        );
    }

    #[test]
    fn reservoir_sink_is_bounded_and_replay_identical() {
        assert_reservoir_is_bounded_and_replay_identical(Aggregator::CoordinateMedian, 5_000);
    }

    #[test]
    fn buffered_robust_sink_is_bounded_and_replay_identical() {
        assert_reservoir_is_bounded_and_replay_identical(Aggregator::GeometricMedian, 3_000);
    }

    #[test]
    fn krum_sink_surfaces_cohort_too_small_for_skipped_rounds() {
        let (hold, _) = hold_of(&[&[1.0]], 64, 1);
        assert!(
            matches!(
                aggregate_robust(Aggregator::Krum { f: 1 }, &hold.updates(), hold.weights()),
                Err(AggregateError::CohortTooSmall { needed: 4, got: 1 })
            ),
            "single-client cohort must take the typed skipped-round path"
        );
    }

    #[test]
    fn hierarchical_sink_agrees_with_flat_average() {
        let mut sink = HierarchicalSink::new(8, 42);
        let updates: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                // analyze:allow(lossy-cast) -- test data generation only.
                vec![i as f32 * 0.25, 1.0 - i as f32]
            })
            .collect();
        let weights: Vec<f32> = (0..200).map(|i| 1.0 + (i % 7) as f32).collect();
        for (i, (u, &w)) in updates.iter().zip(weights.iter()).enumerate() {
            sink.fold(i, u, w).unwrap();
        }
        let hier = sink.finish().unwrap();
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let flat = weighted_average_refs(&refs, &weights);
        for (h, f) in hier.iter().zip(flat.iter()) {
            assert!((h - f).abs() < 1e-3, "{h} vs {f}");
        }
    }

    #[test]
    fn hierarchical_sink_group_assignment_is_stable() {
        let sink = HierarchicalSink::new(4, 7);
        let assignment: Vec<usize> = (0..64).map(|c| sink.group_of(c)).collect();
        let again: Vec<usize> = (0..64).map(|c| sink.group_of(c)).collect();
        assert_eq!(assignment, again);
        assert!(assignment.iter().all(|&g| g < 4));
        // The seeded hash must actually spread clients across groups.
        let used: std::collections::BTreeSet<usize> = assignment.iter().copied().collect();
        assert!(used.len() > 1, "all clients hashed to one group");
    }

    #[test]
    fn trimmed_mean_rejects_bad_ratio_and_tiny_cohorts() {
        let refs: Vec<&[f32]> = vec![&[1.0f32], &[2.0f32]];
        assert!(matches!(
            trimmed_mean(&refs, &[1.0, 1.0], 0.5),
            Err(AggregateError::InvalidTrimRatio { .. })
        ));
        assert!(matches!(
            trimmed_mean(&refs, &[1.0, 1.0], -0.1),
            Err(AggregateError::InvalidTrimRatio { .. })
        ));
        assert!(matches!(
            trimmed_mean(&refs, &[1.0, 1.0], f32::NAN),
            Err(AggregateError::InvalidTrimRatio { .. })
        ));
        // Trimming one from each side of a two-client cohort leaves nothing:
        // typed error, not a silent average of zero updates.
        assert!(matches!(
            trimmed_mean(&refs, &[1.0, 1.0], 0.49),
            Err(AggregateError::CohortTooSmall { needed: 3, got: 2 })
        ));
        // Ratio zero is a plain weighted mean even for a single client.
        let single: Vec<&[f32]> = vec![&[4.0f32]];
        assert_eq!(trimmed_mean(&single, &[2.0], 0.0).unwrap(), vec![4.0]);
    }

    #[test]
    fn krum_picks_the_central_update_and_rejects_tiny_cohorts() {
        let updates: [&[f32]; 5] = [
            &[1.0, 1.0],
            &[1.1, 0.9],
            &[0.9, 1.1],
            &[1.0, 0.95],
            &[80.0, -80.0],
        ];
        let weights = [1.0; 5];
        let out = krum(&updates, &weights, 1).unwrap();
        assert!(out[0] < 2.0, "byzantine update won krum: {out:?}");
        // The winner is one of the inputs, verbatim.
        assert!(updates.contains(&out.as_slice()));

        let small: Vec<&[f32]> = vec![&[1.0f32], &[2.0f32]];
        assert!(matches!(
            krum(&small, &[1.0, 1.0], 1),
            Err(AggregateError::CohortTooSmall { needed: 4, got: 2 })
        ));
        let one: Vec<&[f32]> = vec![&[1.0f32]];
        assert!(matches!(
            krum(&one, &[1.0], 0),
            Err(AggregateError::CohortTooSmall { needed: 3, got: 1 })
        ));
    }

    #[test]
    fn multi_krum_averages_the_low_score_set() {
        let updates: [&[f32]; 5] = [&[1.0], &[1.2], &[0.8], &[1.1], &[500.0]];
        let weights = [1.0; 5];
        let out = multi_krum(&updates, &weights, 1, 3).unwrap();
        assert!(out[0] > 0.5 && out[0] < 1.5, "outlier leaked: {out:?}");
    }

    #[test]
    fn geometric_median_resists_a_minority_of_liars() {
        let updates: [&[f32]; 4] = [&[1.0, -1.0], &[1.1, -0.9], &[0.9, -1.1], &[-500.0, 500.0]];
        let out = geometric_median(&updates, &[1.0; 4]).unwrap();
        assert!(out[0] > 0.0 && out[0] < 1.5, "hijacked: {out:?}");
        assert!(out[1] < 0.0 && out[1] > -1.5, "hijacked: {out:?}");
        // Single client: the median is that client.
        let one: Vec<&[f32]> = vec![&[3.0f32, -2.0]];
        assert_eq!(geometric_median(&one, &[1.0]).unwrap(), vec![3.0, -2.0]);
    }

    #[test]
    fn geometric_median_is_replay_and_permutation_stable() {
        let updates: [&[f32]; 3] = [&[0.0, 0.0], &[2.0, 0.0], &[0.0, 2.0]];
        let a = geometric_median(&updates, &[1.0; 3]).unwrap();
        let b = geometric_median(&updates, &[1.0; 3]).unwrap();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "same inputs must produce the same bits"
        );
        let permuted: [&[f32]; 3] = [&[0.0, 2.0], &[0.0, 0.0], &[2.0, 0.0]];
        let c = geometric_median(&permuted, &[1.0; 3]).unwrap();
        for (x, y) in a.iter().zip(c.iter()) {
            assert!((x - y).abs() < 1e-4, "permutation moved the median");
        }
    }

    #[test]
    fn norm_bounded_mean_caps_a_blown_up_client() {
        let updates: [&[f32]; 3] = [&[1.0, 0.0], &[0.0, 1.0], &[1e6, 1e6]];
        let out = norm_bounded_mean(&updates, &[1.0; 3], 2.0).unwrap();
        let norm = (out[0] * out[0] + out[1] * out[1]).sqrt();
        assert!(norm <= 2.0 + 1e-4, "clip failed: {out:?}");
    }

    #[test]
    fn centered_clip_bounds_byzantine_displacement() {
        let updates: [&[f32]; 4] = [&[1.0, 1.0], &[1.1, 0.9], &[0.9, 1.1], &[1e5, -1e5]];
        let out = centered_clip(&updates, &[1.0; 4], 2.0).unwrap();
        // Each iteration moves the center by at most tau, so three
        // iterations bound it within 3·tau of the origin.
        let norm = (out[0] * out[0] + out[1] * out[1]).sqrt();
        assert!(norm <= 3.0 * 2.0 + 1e-4, "center ran away: {out:?}");
        // And honest clients must still pull it toward their mean.
        assert!(out[0] > 0.5, "honest signal lost: {out:?}");
    }
}
