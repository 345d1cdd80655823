//! Secure-aggregation simulation: pairwise additive masking.
//!
//! In the Bonawitz et al. (CCS 2017) protocol, every pair of clients agrees
//! on a shared random mask; one adds it, the other subtracts it, so the
//! server's *sum* is exact while any individual masked update is
//! statistically indistinguishable from noise. This module simulates that
//! arithmetic (key agreement is out of scope — pair seeds are derived from
//! a shared round seed), which is enough to verify that the aggregation
//! paths of this workspace are compatible with masked inputs: FedAvg-style
//! averaging only ever needs the weighted sum.

use calibre_telemetry::metrics;
use calibre_tensor::rng;

/// Derives the mask shared by the client pair `(a, b)` for a round.
fn pair_mask(round_seed: u64, a: usize, b: usize, dim: usize) -> Vec<f32> {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let seed = round_seed
        ^ (lo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (hi as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    rng::normal_vec(&mut rng::seeded(seed), dim)
}

/// Masks one client's update with the pairwise masks of its cohort.
///
/// `client` must be a member of `cohort`; all cohort members must call this
/// with the same `round_seed` and cohort for the masks to cancel.
///
/// # Errors
///
/// [`SecureAggError::UnknownClient`] when `client` is not in `cohort`,
/// [`SecureAggError::DuplicateClient`] when the cohort lists it twice —
/// either way the pairwise masks could never cancel, so masking refuses to
/// produce an update the server would silently mis-sum.
pub fn mask_update(
    update: &[f32],
    client: usize,
    cohort: &[usize],
    round_seed: u64,
) -> Result<Vec<f32>, SecureAggError> {
    match cohort.iter().filter(|&&c| c == client).count() {
        0 => return Err(SecureAggError::UnknownClient(client)),
        1 => {}
        _ => return Err(SecureAggError::DuplicateClient(client)),
    }
    let mut masked = update.to_vec();
    for &other in cohort {
        if other == client {
            continue;
        }
        let mask = pair_mask(round_seed, client, other, update.len());
        // The lower id adds, the higher id subtracts: antisymmetric, so the
        // pair's contributions cancel in the sum.
        let sign = if client < other { 1.0 } else { -1.0 };
        for (m, &v) in masked.iter_mut().zip(&mask) {
            *m += sign * v;
        }
    }
    metrics::counter_add("calibre_secure_masked_updates_total", &[], 1);
    Ok(masked)
}

/// Typed failure of the cohort-aware secure aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureAggError {
    /// No updates arrived at all — there is nothing to unmask.
    Empty,
    /// A contributing client id is not a member of the declared cohort.
    UnknownClient(usize),
    /// The same client contributed more than once.
    DuplicateClient(usize),
    /// Update lengths disagree (`expected` from the first update).
    LengthMismatch {
        /// Client whose update has the wrong length.
        client: usize,
        /// Expected vector length.
        expected: usize,
        /// Actual vector length.
        got: usize,
    },
    /// Fewer (or more) updates arrived than the cohort that masked them —
    /// the pairwise masks cannot cancel.
    CohortMismatch {
        /// Size of the cohort the updates were masked with.
        cohort: usize,
        /// Number of updates that actually arrived.
        got: usize,
    },
}

impl std::fmt::Display for SecureAggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecureAggError::Empty => write!(f, "no masked updates to aggregate"),
            SecureAggError::UnknownClient(c) => {
                write!(f, "client {c} contributed but is not in the cohort")
            }
            SecureAggError::DuplicateClient(c) => {
                write!(f, "client {c} contributed more than once")
            }
            SecureAggError::LengthMismatch {
                client,
                expected,
                got,
            } => write!(f, "client {client} sent length {got}, expected {expected}"),
            SecureAggError::CohortMismatch { cohort, got } => write!(
                f,
                "{got} masked updates for a cohort of {cohort}: masks cannot cancel"
            ),
        }
    }
}

impl std::error::Error for SecureAggError {}

/// Sums masked updates — the only operation the server can perform.
///
/// # Cancellation invariant
///
/// The pairwise masks cancel **only** when every member of the cohort that
/// masked with [`mask_update`] contributes exactly once. If any client
/// drops out after masking, the masks it shared with the survivors remain
/// in the sum as un-cancelled noise and the result is silently garbage.
/// When the cohort is known, prefer [`aggregate_masked_cohort`], which
/// detects dropouts and re-derives the residual masks; this function is the
/// raw primitive for the no-dropout case.
///
/// In debug builds, pass the cohort size you masked with via
/// [`aggregate_masked_checked`] to turn the hazard into a loud failure.
///
/// # Errors
///
/// [`SecureAggError::Empty`] when `updates` is empty,
/// [`SecureAggError::LengthMismatch`] when lengths differ (the `client`
/// field carries the *position* of the offending update — this raw
/// primitive does not know client ids).
pub fn aggregate_masked(updates: &[Vec<f32>]) -> Result<Vec<f32>, SecureAggError> {
    fold_masked(updates.iter().map(Vec::as_slice))
}

/// [`aggregate_masked`] over borrowed slices — the zero-copy entry point
/// for callers that already hold their updates elsewhere (e.g. a sink's
/// buffered cohort) and should not clone O(cohort × model) floats just to
/// sum them.
///
/// # Errors
///
/// Same contract as [`aggregate_masked`].
pub fn aggregate_masked_refs(updates: &[&[f32]]) -> Result<Vec<f32>, SecureAggError> {
    fold_masked(updates.iter().copied())
}

/// The shared streaming fold: one O(model) accumulator, updates borrowed
/// and folded in input order — never copied.
fn fold_masked<'a, I>(updates: I) -> Result<Vec<f32>, SecureAggError>
where
    I: Iterator<Item = &'a [f32]>,
{
    let mut sum: Option<Vec<f32>> = None;
    for (i, u) in updates.enumerate() {
        let acc = sum.get_or_insert_with(|| vec![0.0f32; u.len()]);
        if u.len() != acc.len() {
            return Err(SecureAggError::LengthMismatch {
                client: i,
                expected: acc.len(),
                got: u.len(),
            });
        }
        for (s, &v) in acc.iter_mut().zip(u) {
            *s += v;
        }
    }
    sum.ok_or(SecureAggError::Empty)
}

/// [`aggregate_masked`] with the cancellation invariant asserted.
///
/// `cohort_len` is the size of the cohort the contributors masked with. In
/// debug builds a mismatch (i.e. at least one dropout) is a panic; in
/// release builds it returns a typed error instead of silently producing a
/// mask-polluted sum.
///
/// # Errors
///
/// [`SecureAggError::Empty`] when `updates` is empty,
/// [`SecureAggError::CohortMismatch`] when the counts disagree.
pub fn aggregate_masked_checked(
    updates: &[Vec<f32>],
    cohort_len: usize,
) -> Result<Vec<f32>, SecureAggError> {
    if updates.is_empty() {
        return Err(SecureAggError::Empty);
    }
    debug_assert_eq!(
        updates.len(),
        cohort_len,
        "secure aggregation cancellation invariant violated: {} updates for a cohort of {}",
        updates.len(),
        cohort_len
    );
    if updates.len() != cohort_len {
        // A dropout without recovery: refuse to return garbage.
        return Err(SecureAggError::CohortMismatch {
            cohort: cohort_len,
            got: updates.len(),
        });
    }
    aggregate_masked(updates)
}

/// Cohort-aware secure aggregation that survives client dropout.
///
/// `updates` pairs each *surviving* client id with its masked update;
/// `cohort` is the full set every contributor masked with. For each dropped
/// client `d`, the masks `pair_mask(round_seed, s, d)` it shared with every
/// survivor `s` never got their cancelling counterpart, so this function
/// re-derives them (the simulation's stand-in for the secret-share recovery
/// round of Bonawitz et al.) and subtracts each survivor's residual
/// contribution. The result equals the sum of the survivors' plaintext
/// updates exactly as if the dropped clients had never been in the cohort.
///
/// # Errors
///
/// - [`SecureAggError::Empty`] — every client dropped.
/// - [`SecureAggError::UnknownClient`] — a contributor is not in `cohort`.
/// - [`SecureAggError::DuplicateClient`] — a client contributed twice.
/// - [`SecureAggError::LengthMismatch`] — update lengths disagree.
pub fn aggregate_masked_cohort(
    updates: &[(usize, Vec<f32>)],
    cohort: &[usize],
    round_seed: u64,
) -> Result<Vec<f32>, SecureAggError> {
    let dim = match updates.first() {
        Some((_, u)) => u.len(),
        None => return Err(SecureAggError::Empty),
    };
    let mut seen: Vec<usize> = Vec::with_capacity(updates.len());
    for (client, u) in updates {
        if !cohort.contains(client) {
            return Err(SecureAggError::UnknownClient(*client));
        }
        if seen.contains(client) {
            return Err(SecureAggError::DuplicateClient(*client));
        }
        seen.push(*client);
        if u.len() != dim {
            return Err(SecureAggError::LengthMismatch {
                client: *client,
                expected: dim,
                got: u.len(),
            });
        }
    }
    let mut sum = vec![0.0f32; dim];
    for (_, u) in updates {
        for (s, &v) in sum.iter_mut().zip(u) {
            *s += v;
        }
    }
    // Recovery: strip the residual masks each survivor shared with each
    // dropped cohort member.
    let dropped: Vec<usize> = cohort
        .iter()
        .copied()
        .filter(|c| !seen.contains(c))
        .collect();
    for &d in &dropped {
        for &s in &seen {
            let mask = pair_mask(round_seed, s, d, dim);
            let sign = if s < d { 1.0 } else { -1.0 };
            for (acc, &v) in sum.iter_mut().zip(&mask) {
                *acc -= sign * v;
            }
        }
    }
    if !dropped.is_empty() {
        metrics::counter_add(
            "calibre_secure_dropout_recoveries_total",
            &[],
            dropped.len() as u64,
        );
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_sum(updates: &[Vec<f32>]) -> Vec<f32> {
        let mut sum = vec![0.0f32; updates[0].len()];
        for u in updates {
            for (s, &v) in sum.iter_mut().zip(u) {
                *s += v;
            }
        }
        sum
    }

    #[test]
    fn masks_cancel_in_the_sum() {
        let cohort = vec![3usize, 7, 11, 20];
        let dim = 64;
        let updates: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| rng::normal_vec(&mut rng::seeded(c as u64), dim))
            .collect();
        let masked: Vec<Vec<f32>> = cohort
            .iter()
            .zip(&updates)
            .map(|(&c, u)| mask_update(u, c, &cohort, 99).unwrap())
            .collect();
        let secure = aggregate_masked(&masked).unwrap();
        let plain = plain_sum(&updates);
        for (s, p) in secure.iter().zip(&plain) {
            assert!((s - p).abs() < 1e-3, "masked sum {s} vs plain {p}");
        }
    }

    #[test]
    fn individual_masked_update_hides_the_plaintext() {
        let cohort = vec![0usize, 1, 2, 3, 4, 5, 6, 7];
        let dim = 256;
        let update = vec![0.0f32; dim]; // all-zero plaintext
        let masked = mask_update(&update, 3, &cohort, 7).unwrap();
        // The mask contribution should dominate: a zero update becomes
        // something with variance ≈ (cohort-1) after masking.
        let energy: f32 = masked.iter().map(|v| v * v).sum::<f32>() / dim as f32;
        assert!(energy > 1.0, "masked zero-update energy {energy} too small");
    }

    #[test]
    fn two_client_masks_are_antisymmetric() {
        let cohort = vec![4usize, 9];
        let zeros = vec![0.0f32; 16];
        let a = mask_update(&zeros, 4, &cohort, 1).unwrap();
        let b = mask_update(&zeros, 9, &cohort, 1).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x + y).abs() < 1e-6, "pair masks must cancel: {x} vs {y}");
        }
    }

    #[test]
    fn masking_is_deterministic_per_round_seed() {
        let cohort = vec![1usize, 2, 3];
        let update = vec![1.0f32; 8];
        assert_eq!(
            mask_update(&update, 2, &cohort, 5).unwrap(),
            mask_update(&update, 2, &cohort, 5).unwrap()
        );
        assert_ne!(
            mask_update(&update, 2, &cohort, 5).unwrap(),
            mask_update(&update, 2, &cohort, 6).unwrap(),
            "different rounds must use different masks"
        );
    }

    #[test]
    fn single_client_cohort_is_a_no_op() {
        let update = vec![1.0, -2.0, 3.0];
        assert_eq!(mask_update(&update, 5, &[5], 0).unwrap(), update);
    }

    #[test]
    fn client_outside_cohort_is_rejected() {
        assert_eq!(
            mask_update(&[1.0], 9, &[1, 2, 3], 0),
            Err(SecureAggError::UnknownClient(9))
        );
        assert_eq!(
            mask_update(&[1.0], 2, &[1, 2, 2], 0),
            Err(SecureAggError::DuplicateClient(2))
        );
    }

    #[test]
    fn raw_aggregation_rejects_bad_inputs() {
        assert_eq!(aggregate_masked(&[]), Err(SecureAggError::Empty));
        assert_eq!(
            aggregate_masked(&[vec![1.0], vec![1.0, 2.0]]),
            Err(SecureAggError::LengthMismatch {
                client: 1,
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn dropout_pollutes_the_plain_sum() {
        // Losing one member after masking leaves un-cancelled masks behind.
        let cohort = vec![3usize, 7, 11, 20];
        let dim = 64;
        let updates: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| rng::normal_vec(&mut rng::seeded(c as u64), dim))
            .collect();
        let masked: Vec<Vec<f32>> = cohort
            .iter()
            .zip(&updates)
            .map(|(&c, u)| mask_update(u, c, &cohort, 99).unwrap())
            .collect();
        let partial = aggregate_masked(&masked[..3]).unwrap();
        let plain = plain_sum(&updates[..3]);
        let err: f32 = partial.iter().zip(&plain).map(|(s, p)| (s - p).abs()).sum();
        assert!(err > 1.0, "dropout should skew the sum, error was {err}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cancellation invariant")]
    fn checked_aggregation_catches_dropout_in_debug() {
        aggregate_masked_checked(&[vec![1.0f32; 4]], 2).unwrap();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn checked_aggregation_reports_dropout_in_release() {
        assert_eq!(
            aggregate_masked_checked(&[vec![1.0f32; 4]], 2),
            Err(SecureAggError::CohortMismatch { cohort: 2, got: 1 })
        );
    }

    #[test]
    fn checked_aggregation_passes_full_cohorts() {
        let cohort = vec![1usize, 2];
        let masked: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| mask_update(&[1.0f32; 8], c, &cohort, 5).unwrap())
            .collect();
        let sum = aggregate_masked_checked(&masked, 2).unwrap();
        for v in &sum {
            assert!((v - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cohort_aggregation_recovers_dropped_clients() {
        let cohort = vec![3usize, 7, 11, 20];
        let dim = 64;
        let updates: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| rng::normal_vec(&mut rng::seeded(c as u64), dim))
            .collect();
        let masked: Vec<(usize, Vec<f32>)> = cohort
            .iter()
            .zip(&updates)
            .map(|(&c, u)| (c, mask_update(u, c, &cohort, 99).unwrap()))
            .collect();
        // Clients 11 and 20 drop after masking.
        let survivors = &masked[..2];
        let recovered = aggregate_masked_cohort(survivors, &cohort, 99).unwrap();
        let plain = plain_sum(&updates[..2]);
        for (s, p) in recovered.iter().zip(&plain) {
            assert!((s - p).abs() < 1e-3, "recovered {s} vs plain {p}");
        }
    }

    #[test]
    fn cohort_aggregation_without_dropout_matches_plain_path() {
        let cohort = vec![1usize, 2, 3];
        let updates: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| rng::normal_vec(&mut rng::seeded(50 + c as u64), 16))
            .collect();
        let masked: Vec<(usize, Vec<f32>)> = cohort
            .iter()
            .zip(&updates)
            .map(|(&c, u)| (c, mask_update(u, c, &cohort, 8).unwrap()))
            .collect();
        let full = aggregate_masked_cohort(&masked, &cohort, 8).unwrap();
        let plain = plain_sum(&updates);
        for (s, p) in full.iter().zip(&plain) {
            assert!((s - p).abs() < 1e-3);
        }
    }

    #[test]
    fn cohort_aggregation_rejects_bad_inputs() {
        assert_eq!(
            aggregate_masked_cohort(&[], &[1, 2], 0),
            Err(SecureAggError::Empty)
        );
        assert_eq!(
            aggregate_masked_cohort(&[(9, vec![1.0])], &[1, 2], 0),
            Err(SecureAggError::UnknownClient(9))
        );
        assert_eq!(
            aggregate_masked_cohort(&[(1, vec![1.0]), (1, vec![1.0])], &[1, 2], 0),
            Err(SecureAggError::DuplicateClient(1))
        );
        assert_eq!(
            aggregate_masked_cohort(&[(1, vec![1.0]), (2, vec![1.0, 2.0])], &[1, 2], 0),
            Err(SecureAggError::LengthMismatch {
                client: 2,
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn secure_mean_matches_fedavg_mean() {
        // End-to-end: the server computes the mean from masked updates and
        // matches the plain FedAvg uniform average.
        use crate::aggregate::{aggregate_robust, Aggregator};
        let cohort = vec![10usize, 11, 12];
        let updates: Vec<Vec<f32>> = cohort
            .iter()
            .map(|&c| rng::normal_vec(&mut rng::seeded(100 + c as u64), 32))
            .collect();
        let masked: Vec<Vec<f32>> = cohort
            .iter()
            .zip(&updates)
            .map(|(&c, u)| mask_update(u, c, &cohort, 42).unwrap())
            .collect();
        let sum = aggregate_masked(&masked).unwrap();
        let secure_mean: Vec<f32> = sum.iter().map(|v| v / cohort.len() as f32).collect();
        let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        let uniform = vec![1.0; refs.len()];
        let plain_mean = aggregate_robust(Aggregator::WeightedAverage, &refs, &uniform).unwrap();
        for (s, p) in secure_mean.iter().zip(&plain_mean) {
            assert!((s - p).abs() < 1e-4);
        }
    }
}
