//! Seeded cohort sampling for massive-cohort rounds.
//!
//! At production scale only a cohort of the client population participates
//! in each round. [`Sampler`] picks that cohort deterministically: the
//! selection is a pure function of `(seed, round, population, cohort,
//! scores)`, so a replayed run — or a resumed one — selects exactly the
//! same clients regardless of when or how often `select` is called
//! (`DESIGN.md` §11).

use calibre_tensor::rng::{sample_without_replacement, seeded};
use rand::rngs::StdRng;
use rand::Rng as _;

/// Domain-separation salt so the sampler stream never collides with the
/// per-client training rngs derived from the same run seed.
const SAMPLER_SALT: u64 = 0x5A4D_504C_4552_0001;

/// The sampling strategy of a [`Sampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Every client is equally likely.
    Uniform,
    /// Clients are drawn proportionally to a caller-supplied importance
    /// score (e.g. sample counts), without replacement.
    Importance,
    /// Clients are drawn proportionally to their last reported model
    /// divergence, favouring *high*-divergence clients. This is the inverse
    /// of the divergence-aware aggregation weighting
    /// ([`crate::aggregate::divergence_weight`] down-weights divergent
    /// updates when merging): sampling seeks out the clients the global
    /// model fits worst so their data is represented, while aggregation
    /// then tempers how hard each such update pulls.
    DivergenceWeighted,
}

impl SamplerKind {
    /// Parses the CLI spelling (`uniform` / `importance` / `divergence`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "uniform" => Some(SamplerKind::Uniform),
            "importance" => Some(SamplerKind::Importance),
            "divergence" => Some(SamplerKind::DivergenceWeighted),
            _ => None,
        }
    }

    /// The canonical CLI spelling accepted by [`SamplerKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Uniform => "uniform",
            SamplerKind::Importance => "importance",
            SamplerKind::DivergenceWeighted => "divergence",
        }
    }
}

/// A deterministic cohort sampler.
///
/// # Determinism
///
/// `select` re-derives its rng from `(seed, round)` on every call, so the
/// result is replay-identical and independent of call order: sampling
/// round 7 before round 3, or sampling round 3 twice, changes nothing.
/// Weighted modes break score ties by client index, so equal scores are
/// also deterministic.
///
/// # Examples
///
/// ```
/// use calibre_fl::sampler::{Sampler, SamplerKind};
///
/// let sampler = Sampler::new(SamplerKind::Uniform, 42);
/// let a = sampler.select(3, 1_000, 10, None);
/// let b = sampler.select(3, 1_000, 10, None);
/// assert_eq!(a, b, "same (seed, round) always selects the same cohort");
/// assert_eq!(a.len(), 10);
/// assert!(a.iter().all(|&c| c < 1_000));
/// assert_ne!(a, sampler.select(4, 1_000, 10, None), "rounds decorrelate");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    kind: SamplerKind,
    seed: u64,
}

impl Sampler {
    /// A sampler with the given strategy and run seed.
    pub fn new(kind: SamplerKind, seed: u64) -> Self {
        Sampler { kind, seed }
    }

    /// The sampling strategy.
    pub fn kind(&self) -> SamplerKind {
        self.kind
    }

    fn round_rng(&self, round: usize) -> StdRng {
        // analyze:allow(lossy-cast) -- round→u64 is widening on every
        // supported target.
        seeded(self.seed ^ SAMPLER_SALT ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Selects `cohort` distinct clients from `0..population` for `round`.
    ///
    /// `scores` feeds the weighted modes: importance scores for
    /// [`SamplerKind::Importance`], last-known divergences for
    /// [`SamplerKind::DivergenceWeighted`] (indexed by client id; missing
    /// or non-positive entries fall back to a tiny uniform weight so every
    /// client stays reachable). Uniform sampling ignores it, and weighted
    /// samplers degrade to uniform when no scores exist yet — the first
    /// round of a divergence-weighted run has no divergences to use.
    ///
    /// The result is sorted ascending. A `cohort` of `population` or more
    /// selects everyone.
    pub fn select(
        &self,
        round: usize,
        population: usize,
        cohort: usize,
        scores: Option<&[f32]>,
    ) -> Vec<usize> {
        if cohort >= population {
            return (0..population).collect();
        }
        let mut rng = self.round_rng(round);
        let mut picked = match (self.kind, scores) {
            (SamplerKind::Uniform, _) | (_, None) => {
                sample_without_replacement(&mut rng, population, cohort)
            }
            (_, Some(scores)) => weighted_without_replacement(&mut rng, population, cohort, scores),
        };
        picked.sort_unstable();
        picked
    }

    /// [`Sampler::select`] over the population minus `banned` (quarantined
    /// clients from a `ReputationBook`).
    ///
    /// With an empty ban set this **delegates to `select` verbatim** —
    /// same rng stream, same result, bit for bit — so an unarmed
    /// reputation book can never perturb the golden selections. With bans,
    /// the sampler draws over the allowed-id list (re-deriving the same
    /// `(seed, round)` rng) and maps indices back to client ids; the result
    /// is sorted ascending and never contains a banned id. A ban set
    /// covering the whole population selects nobody — the caller's
    /// skipped-round path.
    pub fn select_excluding(
        &self,
        round: usize,
        population: usize,
        cohort: usize,
        scores: Option<&[f32]>,
        banned: &std::collections::BTreeSet<usize>,
    ) -> Vec<usize> {
        if banned.is_empty() {
            return self.select(round, population, cohort, scores);
        }
        let allowed: Vec<usize> = (0..population).filter(|c| !banned.contains(c)).collect();
        if cohort >= allowed.len() {
            return allowed;
        }
        let mut rng = self.round_rng(round);
        let allowed_scores: Vec<f32>;
        let scores = match scores {
            None => None,
            Some(scores) => {
                allowed_scores = allowed
                    .iter()
                    .map(|&c| scores.get(c).copied().unwrap_or(0.0))
                    .collect();
                Some(allowed_scores.as_slice())
            }
        };
        let mut picked: Vec<usize> = match (self.kind, scores) {
            (SamplerKind::Uniform, _) | (_, None) => {
                sample_without_replacement(&mut rng, allowed.len(), cohort)
            }
            (_, Some(scores)) => {
                weighted_without_replacement(&mut rng, allowed.len(), cohort, scores)
            }
        }
        .into_iter()
        .filter_map(|i| allowed.get(i).copied())
        .collect();
        picked.sort_unstable();
        picked
    }
}

/// Weighted sampling without replacement via the exponential race: client
/// `i` gets key `-ln(uᵢ)/wᵢ` and the `cohort` smallest keys win. Ties are
/// broken by client index so the result is a total order.
fn weighted_without_replacement(
    rng: &mut StdRng,
    population: usize,
    cohort: usize,
    scores: &[f32],
) -> Vec<usize> {
    const FLOOR: f32 = 1e-6;
    let mut keyed: Vec<(f32, usize)> = (0..population)
        .map(|i| {
            let w = scores.get(i).copied().unwrap_or(0.0).max(0.0) + FLOOR;
            let u: f32 = rng.gen_range(f32::EPSILON..1.0);
            (-u.ln() / w, i)
        })
        .collect();
    keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().take(cohort).map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_selection_is_replay_identical_and_in_range() {
        let sampler = Sampler::new(SamplerKind::Uniform, 7);
        let a = sampler.select(0, 500, 50, None);
        let b = sampler.select(0, 500, 50, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&c| c < 500));
    }

    #[test]
    fn selection_is_independent_of_call_order() {
        let sampler = Sampler::new(SamplerKind::Uniform, 7);
        let late_first = sampler.select(9, 100, 10, None);
        let _ = sampler.select(0, 100, 10, None);
        assert_eq!(late_first, sampler.select(9, 100, 10, None));
    }

    #[test]
    fn rounds_decorrelate() {
        let sampler = Sampler::new(SamplerKind::Uniform, 7);
        let rounds: Vec<Vec<usize>> = (0..4).map(|r| sampler.select(r, 1_000, 20, None)).collect();
        assert!(
            rounds.windows(2).any(|w| w[0] != w[1]),
            "consecutive rounds must not repeat the cohort"
        );
    }

    #[test]
    fn full_cohort_selects_everyone() {
        let sampler = Sampler::new(SamplerKind::DivergenceWeighted, 1);
        assert_eq!(sampler.select(0, 5, 5, None), vec![0, 1, 2, 3, 4]);
        assert_eq!(sampler.select(0, 5, 9, None), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn importance_sampling_favours_heavy_scores() {
        let sampler = Sampler::new(SamplerKind::Importance, 3);
        let mut scores = vec![0.01f32; 100];
        for s in scores.iter_mut().take(10) {
            *s = 100.0;
        }
        let mut heavy_hits = 0usize;
        for round in 0..50 {
            let picked = sampler.select(round, 100, 10, Some(&scores));
            heavy_hits += picked.iter().filter(|&&c| c < 10).count();
        }
        assert!(
            heavy_hits > 350,
            "heavy clients should dominate the cohort, got {heavy_hits}/500"
        );
    }

    #[test]
    fn divergence_weighted_favours_divergent_clients() {
        let sampler = Sampler::new(SamplerKind::DivergenceWeighted, 11);
        let mut divergences = vec![0.001f32; 50];
        if let Some(d) = divergences.get_mut(42) {
            *d = 50.0;
        }
        let hits = (0..40)
            .filter(|&r| sampler.select(r, 50, 5, Some(&divergences)).contains(&42))
            .count();
        assert!(hits > 30, "most divergent client picked {hits}/40 rounds");
    }

    #[test]
    fn weighted_sampler_without_scores_degrades_to_uniform() {
        let with_kind = Sampler::new(SamplerKind::Importance, 5).select(2, 200, 20, None);
        let uniform = Sampler::new(SamplerKind::Uniform, 5).select(2, 200, 20, None);
        assert_eq!(with_kind, uniform);
    }

    #[test]
    fn empty_cohort_selects_nobody() {
        for kind in [
            SamplerKind::Uniform,
            SamplerKind::Importance,
            SamplerKind::DivergenceWeighted,
        ] {
            let sampler = Sampler::new(kind, 9);
            assert!(sampler.select(0, 100, 0, None).is_empty());
            assert!(sampler.select(3, 100, 0, Some(&[1.0; 100])).is_empty());
        }
    }

    #[test]
    fn empty_population_selects_nobody() {
        let sampler = Sampler::new(SamplerKind::Uniform, 9);
        assert!(sampler.select(0, 0, 0, None).is_empty());
        assert!(sampler.select(0, 0, 10, None).is_empty());
    }

    #[test]
    fn fraction_rounding_to_zero_clients_is_an_empty_round() {
        // A 0.4% participation fraction of a 100-client population truncates
        // to a cohort of zero — the round must come back empty, not panic.
        let population = 100usize;
        // analyze:allow(lossy-cast) -- test-scale populations only.
        let cohort = (population as f32 * 0.004) as usize;
        assert_eq!(cohort, 0);
        let sampler = Sampler::new(SamplerKind::Uniform, 21);
        assert!(sampler.select(0, population, cohort, None).is_empty());
    }

    #[test]
    fn fraction_of_one_selects_the_whole_population() {
        let population = 37usize;
        // analyze:allow(lossy-cast) -- test-scale populations only.
        let cohort = (population as f32 * 1.0) as usize;
        let sampler = Sampler::new(SamplerKind::Importance, 21);
        let picked = sampler.select(5, population, cohort, Some(&vec![2.0; population]));
        assert_eq!(picked, (0..population).collect::<Vec<_>>());
    }

    #[test]
    fn all_zero_weights_still_fill_the_cohort_deterministically() {
        // Zero (and negative) scores sum to nothing; the exponential-race
        // floor keeps every client reachable instead of dividing by zero.
        let zeros = vec![0.0f32; 60];
        let sampler = Sampler::new(SamplerKind::Importance, 13);
        let a = sampler.select(2, 60, 12, Some(&zeros));
        let b = sampler.select(2, 60, 12, Some(&zeros));
        assert_eq!(a, b, "zero weights must still be replay-identical");
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&c| c < 60));

        let negative = vec![-3.0f32; 60];
        let c = sampler.select(2, 60, 12, Some(&negative));
        assert_eq!(a, c, "negative scores clamp to the same floor as zeros");
        assert!(a.iter().all(|&i| i < 60));
    }

    #[test]
    fn select_excluding_with_no_bans_is_bit_identical_to_select() {
        use std::collections::BTreeSet;
        let empty = BTreeSet::new();
        for kind in [
            SamplerKind::Uniform,
            SamplerKind::Importance,
            SamplerKind::DivergenceWeighted,
        ] {
            let sampler = Sampler::new(kind, 17);
            let scores = vec![1.5f32; 80];
            for round in 0..5 {
                assert_eq!(
                    sampler.select_excluding(round, 80, 12, Some(&scores), &empty),
                    sampler.select(round, 80, 12, Some(&scores)),
                    "an empty ban set must not perturb selection"
                );
                assert_eq!(
                    sampler.select_excluding(round, 80, 12, None, &empty),
                    sampler.select(round, 80, 12, None),
                );
            }
        }
    }

    #[test]
    fn select_excluding_never_draws_banned_clients() {
        use std::collections::BTreeSet;
        let banned: BTreeSet<usize> = [3, 7, 11, 42].into_iter().collect();
        let sampler = Sampler::new(SamplerKind::Uniform, 23);
        for round in 0..10 {
            let picked = sampler.select_excluding(round, 50, 20, None, &banned);
            assert_eq!(picked.len(), 20);
            assert!(picked.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(
                picked.iter().all(|c| !banned.contains(c)),
                "banned client drawn in round {round}: {picked:?}"
            );
        }
        // Replay-identical under bans too.
        assert_eq!(
            sampler.select_excluding(4, 50, 20, None, &banned),
            sampler.select_excluding(4, 50, 20, None, &banned),
        );
    }

    #[test]
    fn select_excluding_everyone_banned_is_an_empty_round() {
        use std::collections::BTreeSet;
        let everyone: BTreeSet<usize> = (0..10).collect();
        let sampler = Sampler::new(SamplerKind::Uniform, 5);
        assert!(sampler
            .select_excluding(0, 10, 4, None, &everyone)
            .is_empty());
        // Bans shrinking the population below the cohort select all survivors.
        let most: BTreeSet<usize> = (0..8).collect();
        assert_eq!(sampler.select_excluding(0, 10, 4, None, &most), vec![8, 9]);
    }

    #[test]
    fn select_excluding_ban_set_larger_than_population_is_safe() {
        use std::collections::BTreeSet;
        let sampler = Sampler::new(SamplerKind::Uniform, 9);
        // A ban set strictly larger than the population (superset of every
        // id plus ids that never existed) selects nobody, without panics.
        let superset: BTreeSet<usize> = (0..40).collect();
        assert!(sampler
            .select_excluding(1, 10, 4, None, &superset)
            .is_empty());
        // Bans naming only out-of-range ids leave everyone drawable and
        // never leak a nonexistent client into the cohort.
        let out_of_range: BTreeSet<usize> = (100..140).collect();
        let picked = sampler.select_excluding(1, 10, 4, None, &out_of_range);
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|&c| c < 10), "{picked:?}");
    }

    #[test]
    fn quarantine_can_empty_a_round_below_quorum() {
        use crate::adversary::ReputationBook;
        // A book that has quarantined 9 of 10 clients: selection shrinks to
        // the lone survivor, below any sensible quorum — the caller's
        // skipped-round path, never a panic.
        let mut lines = String::from("reputation 9\n");
        for client in 0..9 {
            lines.push_str(&format!("rep {client} 40800000 3 1\n"));
        }
        let book = ReputationBook::parse_checkpoint_lines(lines.lines().peekable())
            .expect("checkpoint lines parse");
        let banned = book.quarantined();
        assert_eq!(banned.len(), 9);
        let sampler = Sampler::new(SamplerKind::Uniform, 31);
        let picked = sampler.select_excluding(0, 10, 4, None, &banned);
        assert_eq!(picked, vec![9], "only the unquarantined client survives");
        let min_quorum = 3;
        assert!(
            picked.len() < min_quorum,
            "a quorum gate must now skip the round"
        );
        // Quarantining the survivor too empties the round entirely.
        let mut all = banned;
        all.insert(9);
        assert!(sampler.select_excluding(0, 10, 4, None, &all).is_empty());
    }

    #[test]
    fn selection_with_a_nonempty_book_is_replay_identical() {
        use crate::adversary::ReputationBook;
        let lines = "reputation 3\nrep 2 40a00000 3 1\nrep 5 40f00000 4 1\nrep 8 3f000000 1 0\n";
        let book = ReputationBook::parse_checkpoint_lines(lines.lines().peekable())
            .expect("checkpoint lines parse");
        let banned = book.quarantined();
        assert_eq!(banned.len(), 2, "the unquarantined entry must not ban");
        for kind in [
            SamplerKind::Uniform,
            SamplerKind::Importance,
            SamplerKind::DivergenceWeighted,
        ] {
            let sampler = Sampler::new(kind, 13);
            let scores = vec![0.5f32; 30];
            for round in 0..6 {
                let a = sampler.select_excluding(round, 30, 8, Some(&scores), &banned);
                let b = sampler.select_excluding(round, 30, 8, Some(&scores), &banned);
                assert_eq!(a, b, "replay diverged at round {round} ({kind:?})");
                assert!(a.iter().all(|c| !banned.contains(c)), "{a:?}");
                // A book rebuilt from its own checkpoint drives the exact
                // same selection.
                let replayed = ReputationBook::parse_checkpoint_lines(
                    book.to_checkpoint_lines().lines().peekable(),
                )
                .expect("round-tripped book parses");
                assert_eq!(
                    sampler.select_excluding(round, 30, 8, Some(&scores), &replayed.quarantined()),
                    a
                );
            }
        }
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in [
            SamplerKind::Uniform,
            SamplerKind::Importance,
            SamplerKind::DivergenceWeighted,
        ] {
            assert_eq!(SamplerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SamplerKind::parse("magic"), None);
    }
}
