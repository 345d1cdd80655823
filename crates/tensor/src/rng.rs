//! Seeded random-number helpers shared across the workspace.
//!
//! The `rand` crate in this workspace does not ship the `rand_distr` normal
//! distribution, so Gaussian sampling is implemented here via the Box–Muller
//! transform. Every experiment in the reproduction is seeded through these
//! helpers so that results are bit-reproducible across runs.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut a = calibre_tensor::rng::seeded(42);
/// let mut b = calibre_tensor::rng::seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one sample from the standard normal distribution `N(0, 1)` using the
/// Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fills a vector with `n` i.i.d. standard normal samples.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f32> {
    (0..n).map(|_| normal(rng)).collect()
}

/// Matrix of i.i.d. samples from `N(0, std²)`.
pub fn normal_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| std * normal(rng)).collect(),
    )
}

/// Matrix of i.i.d. samples from the uniform distribution on `[lo, hi)`.
pub fn uniform_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    lo: f32,
    hi: f32,
) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect(),
    )
}

/// Samples from a symmetric Dirichlet distribution with concentration
/// `alpha`, returning a probability vector of length `k`.
///
/// Implemented by normalizing `k` Gamma(alpha, 1) draws; the Gamma sampler
/// uses the Marsaglia–Tsang method (with the standard `alpha < 1` boost).
///
/// # Panics
///
/// Panics if `k == 0` or `alpha <= 0`.
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    assert!(k > 0, "dirichlet requires at least one category");
    assert!(alpha > 0.0, "dirichlet concentration must be positive");
    let mut draws: Vec<f64> = (0..k).map(|_| gamma(rng, alpha)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Degenerate draw (possible for tiny alpha in f64): fall back to a
        // random one-hot vector, which is the correct alpha -> 0 limit.
        let hot = rng.gen_range(0..k);
        return (0..k).map(|i| if i == hot { 1.0 } else { 0.0 }).collect();
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

/// Samples Gamma(shape, 1) via Marsaglia–Tsang.
fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng) as f64;
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Returns a random permutation of `0..n`, Fisher–Yates shuffled.
pub fn permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Samples `k` distinct indices from `0..n` without replacement.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from a population of {n}");
    let mut perm = permutation(rng, n);
    perm.truncate(k);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rngs_are_reproducible() {
        let a = normal_vec(&mut seeded(7), 16);
        let b = normal_vec(&mut seeded(7), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let mut rng = seeded(123);
        let n = 20_000;
        let samples = normal_vec(&mut rng, n);
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_nonnegative() {
        let mut rng = seeded(99);
        for &alpha in &[0.1, 0.3, 1.0, 10.0] {
            let p = dirichlet(&mut rng, alpha, 10);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn small_alpha_dirichlet_is_concentrated() {
        // With alpha = 0.05 the mass should mostly land on very few labels —
        // this is exactly how the D-non-i.i.d. partitioner induces skew.
        let mut rng = seeded(5);
        let p = dirichlet(&mut rng, 0.05, 10);
        let max = p.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.5, "expected concentration, got max {max}");
    }

    #[test]
    fn permutation_contains_every_index_once() {
        let mut rng = seeded(11);
        let mut p = permutation(&mut rng, 50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut rng = seeded(12);
        let s = sample_without_replacement(&mut rng, 100, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "duplicates in {s:?}");
    }

    #[test]
    fn uniform_matrix_respects_bounds() {
        let mut rng = seeded(3);
        let m = uniform_matrix(&mut rng, 8, 8, -2.0, 3.0);
        assert!(m.iter().all(|&v| (-2.0..3.0).contains(&v)));
    }
}
