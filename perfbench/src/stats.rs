//! Order statistics over per-round samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// A tail percentile and the samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Integer percentile, 1..=99 (the smallest over blocks).
    pub percentile: u32,
    /// Nearest-rank value at that percentile; with several blocks, the
    /// median of the blocks' values.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank (fewest in a block).
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
    /// Consecutive blocks the samples were cut into.
    pub blocks: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Samples per block of the tail estimate (at least this many, below
/// twice as many).
pub const TAIL_BLOCK: usize = 100;

/// The gated round-time tail: [`whole_run_tail`] per block, median over
/// blocks, or `None` when fewer than `TAIL_BEYOND + 1` samples exist.
///
/// Below `2 × TAIL_BLOCK` samples this is [`whole_run_tail`] itself. From
/// there on, the samples are cut into consecutive blocks of `TAIL_BLOCK`
/// to `2 × TAIL_BLOCK − 1`, each block gets its highest percentile with ten
/// beyond (p90 to p94), and the median of the block values is reported.
/// A slowdown then moves the value only when it hits more than about a
/// tenth of the rounds in most blocks; a slowdown of rarer rounds (such
/// as every 20th) or one confined to a few blocks does not move it. That
/// is the price of steadiness: on a shared VM a whole-run p99 over ~1 000
/// rounds of 20 ms sits inside host-steal bursts as soon as more than ten
/// rounds are hit, and measures the host rather than the program.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let blocks = (n / TAIL_BLOCK).max(1);
    let mut per_block = Vec::with_capacity(blocks);
    for b in 0..blocks {
        per_block.push(whole_run_tail(
            &values[b * n / blocks..(b + 1) * n / blocks],
        )?);
    }
    let value = median(&per_block.iter().map(|t| t.value).collect::<Vec<_>>());
    Some(Tail {
        percentile: per_block.iter().map(|t| t.percentile).min()?,
        value,
        beyond: per_block.iter().map(|t| t.beyond).min()?,
        count: n,
        blocks,
    })
}

/// The highest integer percentile (capped at 99) of all of `values` with
/// at least [`TAIL_BEYOND`] samples beyond its nearest-rank position, or
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
///
/// Nearest rank: the `p`-th percentile of `n` sorted samples is the one at
/// 1-based rank `ceil(p·n/100)`, leaving `n − rank` samples beyond it. The
/// rank is at most `n − 10` exactly when `p ≤ 100·(n − 10)/n`.
pub fn whole_run_tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p = ((100 * (n - TAIL_BEYOND)) / n).clamp(1, 99);
    let rank = (p * n).div_ceil(100);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: p as u32,
        value: sorted[rank - 1],
        beyond: n - rank,
        count: n,
        blocks: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the function must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (9, 10, 0.0));
    }

    #[test]
    fn tail_keeps_at_least_ten_beyond_and_is_the_highest_such_percentile() {
        for n in 11..2 * TAIL_BLOCK {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!(t.blocks, 1);
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.count, n);
            // Rank r = n - beyond holds the value r - 1 of 0..n.
            assert_eq!(t.value, (n - t.beyond - 1) as f64, "n={n}");
            if t.percentile < 99 {
                let next = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(
                    n - next < TAIL_BEYOND,
                    "n={n}: p{} not highest",
                    t.percentile
                );
            }
        }
    }

    #[test]
    fn tail_examples() {
        // 22 rounds: p54 is rank 12, ten beyond.
        let t = tail(&ramp(22)).unwrap();
        assert_eq!((t.percentile, t.beyond), (54, 10));
        // 199 rounds, one block: p94 is rank 188, eleven beyond.
        let t = tail(&ramp(199)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.blocks), (94, 11, 1));
        // 1 000 rounds as a whole: p99 is rank 990, ten beyond.
        let t = whole_run_tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (99, 10, 989.0));
    }

    #[test]
    fn long_runs_take_the_median_of_block_tails() {
        // 682 rounds: six blocks of 113-114, each p91 with ≥ 10 beyond.
        let values: Vec<f64> = (0..682).map(|i| (i % 113) as f64).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.blocks, t.percentile, t.count), (6, 91, 682));
        assert!(t.beyond >= TAIL_BEYOND);
        // A burst of spikes inside one block moves only that block's tail.
        let mut spiky = values.clone();
        for v in spiky.iter_mut().take(40) {
            *v = 1000.0;
        }
        assert_eq!(tail(&spiky).unwrap().value, t.value);
        // Spikes spread over every block move the median.
        let mut everywhere = values;
        for v in everywhere.iter_mut().step_by(8) {
            *v = 1000.0;
        }
        assert_eq!(tail(&everywhere).unwrap().value, 1000.0);
    }
}
