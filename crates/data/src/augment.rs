//! Stochastic augmentation of rendered observations.
//!
//! Plays the role of the SimCLR augmentation family `A` in Algorithm 1 of
//! the paper: semantic-preserving, nuisance-randomizing perturbations. The
//! latent-side nuisance resampling lives in
//! [`SynthVision::render_view`](crate::SynthVision::render_view); this module
//! holds the observation-side perturbations (noise, masking, gain) and their
//! configuration.

use calibre_tensor::rng::normal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the two-view SSL augmentation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AugmentConfig {
    /// Fraction of the original nuisance latent kept when a view is rendered
    /// (`ρ`); the rest is resampled. 1.0 disables nuisance resampling,
    /// 0.0 draws a completely fresh nuisance per view.
    pub nuisance_keep: f32,
    /// Standard deviation of additive Gaussian observation noise.
    pub noise_std: f32,
    /// Probability of zeroing each observation coordinate (random erasing
    /// analog).
    pub mask_prob: f32,
    /// Multiplicative gain is drawn uniformly from
    /// `[1 - gain_jitter, 1 + gain_jitter]` (brightness/contrast analog).
    pub gain_jitter: f32,
}

impl Default for AugmentConfig {
    /// The default pipeline used by every SSL experiment in the
    /// reproduction; strong enough that representations must rely on
    /// semantics, weak enough that views stay closer to their own sample
    /// than to other classes.
    fn default() -> Self {
        AugmentConfig {
            nuisance_keep: 0.35,
            noise_std: 0.08,
            mask_prob: 0.08,
            gain_jitter: 0.15,
        }
    }
}

impl AugmentConfig {
    /// An augmentation pipeline that leaves observations untouched
    /// (for ablations and tests).
    pub fn none() -> Self {
        AugmentConfig {
            nuisance_keep: 1.0,
            noise_std: 0.0,
            mask_prob: 0.0,
            gain_jitter: 0.0,
        }
    }

    /// A deliberately aggressive pipeline (for robustness experiments).
    pub fn strong() -> Self {
        AugmentConfig {
            nuisance_keep: 0.0,
            noise_std: 0.2,
            mask_prob: 0.2,
            gain_jitter: 0.3,
        }
    }

    /// Applies the observation-side perturbations in place. All of their
    /// random numbers are drawn before the first is applied.
    pub fn perturb<R: Rng + ?Sized>(&self, obs: &mut [f32], rng: &mut R) {
        self.draw(obs.len(), rng).apply(obs);
    }

    /// Draws the random numbers that perturb one observation of `len`
    /// coordinates: the gain, then per coordinate the noise and the mask
    /// draw. No draw depends on the observation, so a batch can take every
    /// view's draws first and render all views in one pass.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Perturbation {
        let gain = if self.gain_jitter > 0.0 {
            1.0 + rng.gen_range(-self.gain_jitter..self.gain_jitter)
        } else {
            1.0
        };
        let mut noise = Vec::with_capacity(len);
        let mut mask = Vec::with_capacity(len);
        for _ in 0..len {
            if self.noise_std > 0.0 {
                noise.push(self.noise_std * normal(rng));
            }
            if self.mask_prob > 0.0 {
                mask.push(rng.gen::<f32>() < self.mask_prob);
            }
        }
        Perturbation { gain, noise, mask }
    }
}

/// The drawn perturbation of one observation ([`AugmentConfig::draw`]).
#[derive(Debug)]
pub(crate) struct Perturbation {
    gain: f32,
    /// Additive noise per coordinate; empty when noise is off.
    noise: Vec<f32>,
    /// Whether each coordinate is zeroed; empty when masking is off.
    mask: Vec<bool>,
}

impl Perturbation {
    /// Perturbs `obs` in place: per coordinate the gain, the noise, then the
    /// mask.
    pub(crate) fn apply(&self, obs: &mut [f32]) {
        for (i, v) in obs.iter_mut().enumerate() {
            *v *= self.gain;
            if let Some(&n) = self.noise.get(i) {
                *v += n;
            }
            if self.mask.get(i) == Some(&true) {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_tensor::rng::seeded;

    #[test]
    fn none_config_is_identity() {
        let mut obs = vec![1.0, -2.0, 3.0];
        let orig = obs.clone();
        AugmentConfig::none().perturb(&mut obs, &mut seeded(0));
        assert_eq!(obs, orig);
    }

    #[test]
    fn default_config_changes_observations() {
        let mut obs = vec![1.0; 32];
        AugmentConfig::default().perturb(&mut obs, &mut seeded(1));
        assert!(obs.iter().any(|&v| (v - 1.0).abs() > 1e-4));
    }

    #[test]
    fn masking_zeroes_roughly_expected_fraction() {
        let cfg = AugmentConfig {
            nuisance_keep: 1.0,
            noise_std: 0.0,
            mask_prob: 0.25,
            gain_jitter: 0.0,
        };
        let mut obs = vec![1.0; 10_000];
        cfg.perturb(&mut obs, &mut seeded(2));
        let zeroed = obs.iter().filter(|&&v| v == 0.0).count() as f32 / 10_000.0;
        assert!((zeroed - 0.25).abs() < 0.03, "mask fraction {zeroed}");
    }

    #[test]
    fn gain_bounds_respected_without_noise() {
        let cfg = AugmentConfig {
            nuisance_keep: 1.0,
            noise_std: 0.0,
            mask_prob: 0.0,
            gain_jitter: 0.1,
        };
        let mut obs = vec![2.0; 64];
        cfg.perturb(&mut obs, &mut seeded(3));
        // Single gain per call: all entries equal, within bounds.
        assert!(obs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6));
        assert!(obs[0] >= 2.0 * 0.9 && obs[0] <= 2.0 * 1.1);
    }

    #[test]
    fn strong_is_stronger_than_default() {
        let strong = AugmentConfig::strong();
        let default = AugmentConfig::default();
        assert!(strong.noise_std > default.noise_std);
        assert!(strong.mask_prob > default.mask_prob);
        assert!(strong.nuisance_keep < default.nuisance_keep);
    }
}
