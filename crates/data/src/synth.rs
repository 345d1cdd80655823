//! `SynthVision`: the synthetic stand-in for CIFAR-10 / CIFAR-100 / STL-10.
//!
//! The generator is a class-conditional latent-variable model:
//!
//! 1. every class `k` owns a semantic prototype `μ_k` in latent space;
//! 2. a sample of class `k` draws `z = μ_k + σ_w·ε` (within-class variation)
//!    and an independent nuisance vector `u`;
//! 3. the observation is `x = M([z ; u])` where `M` is a *fixed random*
//!    tanh MLP (the "renderer") shared by the whole dataset.
//!
//! The nuisance subspace is what SSL augmentation perturbs; the semantic
//! subspace is what a good representation must recover. This mirrors the role
//! of photometric/geometric augmentation in the paper's image experiments:
//! two augmented views share semantics, differ in nuisance. See DESIGN.md §2
//! for the substitution argument.

use crate::augment::AugmentConfig;
use crate::sample::Sample;
use calibre_tensor::nn::{Activation, Mlp};
use calibre_tensor::{rng, Matrix};
use rand::Rng;

/// Static description of a synthetic dataset family.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthVisionSpec {
    /// Human-readable dataset name, e.g. `"cifar10-analog"`.
    pub name: String,
    /// Number of classes (10 for the CIFAR-10/STL-10 analogs, 100 for
    /// CIFAR-100).
    pub num_classes: usize,
    /// Dimensionality of the semantic latent.
    pub semantic_dim: usize,
    /// Dimensionality of the nuisance latent.
    pub nuisance_dim: usize,
    /// Dimensionality of the rendered observation.
    pub obs_dim: usize,
    /// Within-class standard deviation in semantic space. Larger values make
    /// classes overlap more (harder dataset).
    pub within_class_std: f32,
    /// Separation scale of the class prototypes.
    pub class_separation: f32,
    /// Seed used for the renderer weights and class prototypes, so two
    /// `SynthVision` instances with the same spec are identical.
    pub seed: u64,
}

impl SynthVisionSpec {
    /// The CIFAR-10 analog: 10 well-separated classes.
    pub fn cifar10() -> Self {
        SynthVisionSpec {
            name: "cifar10-analog".to_string(),
            num_classes: 10,
            semantic_dim: 16,
            nuisance_dim: 16,
            obs_dim: 64,
            within_class_std: 0.55,
            class_separation: 1.9,
            seed: 0xC1FA_0010,
        }
    }

    /// The CIFAR-100 analog: 100 classes, tighter packing (harder).
    pub fn cifar100() -> Self {
        SynthVisionSpec {
            name: "cifar100-analog".to_string(),
            num_classes: 100,
            semantic_dim: 24,
            nuisance_dim: 16,
            obs_dim: 64,
            within_class_std: 0.5,
            class_separation: 1.6,
            seed: 0xC1FA_0100,
        }
    }

    /// The STL-10 analog: 10 classes, few labeled samples but a large
    /// unlabeled pool (constructed by the partitioner).
    pub fn stl10() -> Self {
        SynthVisionSpec {
            name: "stl10-analog".to_string(),
            num_classes: 10,
            semantic_dim: 16,
            nuisance_dim: 20,
            obs_dim: 64,
            within_class_std: 0.6,
            class_separation: 1.8,
            seed: 0x5710_0010,
        }
    }
}

/// A reproducible synthetic dataset generator (see module docs).
#[derive(Debug, Clone)]
pub struct SynthVision {
    spec: SynthVisionSpec,
    /// Class prototypes in semantic space, `(K, semantic_dim)`.
    prototypes: Matrix,
    /// Fixed random renderer mapping `[z ; u]` to observations.
    renderer: Mlp,
}

impl SynthVision {
    /// Builds the generator for a spec. Deterministic in `spec.seed`.
    pub fn new(spec: SynthVisionSpec) -> Self {
        let mut r = rng::seeded(spec.seed);
        // Prototypes drawn on a scaled sphere: normalize then scale, so class
        // separation is controlled by `class_separation` rather than luck.
        let raw = rng::normal_matrix(&mut r, spec.num_classes, spec.semantic_dim, 1.0);
        let prototypes = raw.row_l2_normalized().scale(spec.class_separation);
        let renderer = Mlp::with_output_activation(
            &[
                spec.semantic_dim + spec.nuisance_dim,
                (spec.obs_dim * 3) / 2,
                spec.obs_dim,
            ],
            Activation::Tanh,
            Activation::Identity,
            &mut r,
        );
        SynthVision {
            spec,
            prototypes,
            renderer,
        }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &SynthVisionSpec {
        &self.spec
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Observation dimensionality (the encoder input width).
    pub fn obs_dim(&self) -> usize {
        self.spec.obs_dim
    }

    /// Draws one labeled sample of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes`.
    pub fn sample<R: Rng + ?Sized>(&self, class: usize, rng_: &mut R) -> Sample {
        assert!(
            class < self.spec.num_classes,
            "class {class} out of range for {} classes",
            self.spec.num_classes
        );
        let semantic: Vec<f32> = self
            .prototypes
            .row(class)
            .iter()
            .map(|&m| m + self.spec.within_class_std * rng::normal(rng_))
            .collect();
        let nuisance = rng::normal_vec(rng_, self.spec.nuisance_dim);
        Sample {
            semantic,
            nuisance,
            label: Some(class),
        }
    }

    /// Draws one *unlabeled* sample whose hidden class is `class`. Used to
    /// build the STL-10-analog unlabeled pool: the class structure exists in
    /// the data but is not observable by any training procedure.
    pub fn sample_unlabeled<R: Rng + ?Sized>(&self, class: usize, rng_: &mut R) -> Sample {
        let mut s = self.sample(class, rng_);
        s.label = None;
        s
    }

    /// Renders the canonical (deterministic) observation of a sample.
    pub fn render(&self, sample: &Sample) -> Vec<f32> {
        self.render_batch(std::iter::once(sample)).into_vec()
    }

    /// Renders a stochastic augmented view of a sample: the nuisance latent
    /// is partially resampled and the rendered observation is perturbed
    /// according to `aug` (noise, masking, gain).
    pub fn render_view<R: Rng + ?Sized>(
        &self,
        sample: &Sample,
        aug: &AugmentConfig,
        rng_: &mut R,
    ) -> Vec<f32> {
        self.render_views(std::iter::once(sample), aug, rng_)
            .into_vec()
    }

    /// Renders a batch of canonical observations as an `(N, obs_dim)` matrix.
    pub fn render_batch<'a, I>(&self, samples: I) -> Matrix
    where
        I: IntoIterator<Item = &'a Sample>,
    {
        let mut latent = Vec::new();
        let mut rows = 0;
        for sample in samples {
            latent.extend_from_slice(&sample.semantic);
            latent.extend_from_slice(&sample.nuisance);
            rows += 1;
        }
        self.render_latents(rows, latent)
    }

    /// Renders two independent augmented views for every sample — the
    /// dual-view input of every SSL objective (`I_e`, `I_o` in Algorithm 1 of
    /// the paper). Returns `(view_e, view_o)`, each `(N, obs_dim)`: every
    /// sample's `view_e` first, then every `view_o`, each drawn as
    /// [`SynthVision::render_view`] draws it.
    pub fn render_two_views<'a, I, R>(
        &self,
        samples: I,
        aug: &AugmentConfig,
        rng_: &mut R,
    ) -> (Matrix, Matrix)
    where
        I: IntoIterator<Item = &'a Sample>,
        R: Rng + ?Sized,
    {
        let samples: Vec<&Sample> = samples.into_iter().collect();
        let n = samples.len();
        let views = self.render_views(samples.iter().chain(&samples).copied(), aug, rng_);
        let obs_dim = self.spec.obs_dim;
        let mut view_e = views.into_vec();
        let view_o = view_e.split_off(n * obs_dim);
        (
            Matrix::from_vec(n, obs_dim, view_e),
            Matrix::from_vec(n, obs_dim, view_o),
        )
    }

    /// Renders one augmented view per sample, one row each. Every view takes
    /// its random numbers in turn (its nuisance resample, then its
    /// perturbation); none depends on a rendered observation, so all of
    /// them are drawn first and every row is rendered in one renderer pass.
    fn render_views<'a, I, R>(&self, samples: I, aug: &AugmentConfig, rng_: &mut R) -> Matrix
    where
        I: IntoIterator<Item = &'a Sample>,
        R: Rng + ?Sized,
    {
        let rho = aug.nuisance_keep.clamp(0.0, 1.0);
        let fresh_scale = (1.0 - rho * rho).sqrt();
        let mut latent = Vec::new();
        let mut perturbations = Vec::new();
        for sample in samples {
            latent.extend_from_slice(&sample.semantic);
            for &u in &sample.nuisance {
                latent.push(rho * u + fresh_scale * rng::normal(rng_));
            }
            perturbations.push(aug.draw(self.spec.obs_dim, rng_));
        }
        let mut obs = self.render_latents(perturbations.len(), latent);
        let rows = obs.as_mut_slice().chunks_exact_mut(self.spec.obs_dim);
        for (row, perturbation) in rows.zip(&perturbations) {
            perturbation.apply(row);
        }
        obs
    }

    /// Runs the renderer on `rows` latent rows `[z ; u]` laid out back to
    /// back.
    fn render_latents(&self, rows: usize, latent: Vec<f32>) -> Matrix {
        let width = self.spec.semantic_dim + self.spec.nuisance_dim;
        self.renderer.infer(&Matrix::from_vec(rows, width, latent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_in_spec_seed() {
        let a = SynthVision::new(SynthVisionSpec::cifar10());
        let b = SynthVision::new(SynthVisionSpec::cifar10());
        let s = a.sample(3, &mut rng::seeded(1));
        assert_eq!(a.render(&s), b.render(&s));
    }

    #[test]
    fn different_datasets_render_differently() {
        let a = SynthVision::new(SynthVisionSpec::cifar10());
        let b = SynthVision::new(SynthVisionSpec::stl10());
        let s = a.sample(0, &mut rng::seeded(2));
        // STL-10 analog has different nuisance dim; pad sample to compare is
        // meaningless — just check the specs differ as intended.
        assert_ne!(a.spec(), b.spec());
        assert_eq!(s.semantic.len(), 16);
    }

    #[test]
    fn samples_carry_their_class() {
        let gen = SynthVision::new(SynthVisionSpec::cifar10());
        let mut r = rng::seeded(3);
        for class in 0..10 {
            assert_eq!(gen.sample(class, &mut r).label, Some(class));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sample_rejects_invalid_class() {
        let gen = SynthVision::new(SynthVisionSpec::cifar10());
        gen.sample(10, &mut rng::seeded(0));
    }

    #[test]
    fn render_has_observation_dim() {
        let gen = SynthVision::new(SynthVisionSpec::cifar100());
        let s = gen.sample(42, &mut rng::seeded(4));
        assert_eq!(gen.render(&s).len(), 64);
    }

    #[test]
    fn same_class_samples_are_closer_than_cross_class() {
        // The core property the encoder must exploit: within-class distances
        // in observation space are smaller on average than between-class.
        // Averaged over every class (pair) — any single pair of prototypes
        // can land close together on the prototype sphere by chance.
        let gen = SynthVision::new(SynthVisionSpec::cifar10());
        let spec = SynthVisionSpec::cifar10();
        let mut r = rng::seeded(5);
        let n = 20;
        let rendered: Vec<Matrix> = (0..spec.num_classes)
            .map(|k| {
                let samples: Vec<Sample> = (0..n).map(|_| gen.sample(k, &mut r)).collect();
                gen.render_batch(samples.iter())
            })
            .collect();
        let mut within = 0.0;
        let mut cw = 0;
        let mut between = 0.0;
        let mut cb = 0;
        for (ka, am) in rendered.iter().enumerate() {
            for i in 0..n {
                for j in (i + 1)..n {
                    within += am.row_distance_sq(i, am, j);
                    cw += 1;
                }
            }
            for bm in rendered.iter().skip(ka + 1) {
                for i in 0..n {
                    for j in 0..n {
                        between += am.row_distance_sq(i, bm, j);
                        cb += 1;
                    }
                }
            }
        }
        let within = within / cw as f32;
        let between = between / cb as f32;
        assert!(
            between > within * 1.1,
            "between {between} should exceed within {within}"
        );
    }

    #[test]
    fn two_views_share_semantics_but_differ() {
        let gen = SynthVision::new(SynthVisionSpec::cifar10());
        let mut r = rng::seeded(6);
        let samples: Vec<Sample> = (0..8).map(|i| gen.sample(i % 10, &mut r)).collect();
        let aug = AugmentConfig::default();
        let (ve, vo) = gen.render_two_views(samples.iter(), &aug, &mut r);
        assert_eq!(ve.shape(), (8, 64));
        assert_eq!(vo.shape(), (8, 64));
        // Views of the same sample must not be identical (stochastic aug)…
        assert!(ve.sub(&vo).max_abs() > 1e-3);
        // …but must be closer to each other than to a view of another class.
        let d_same = ve.row_distance_sq(0, &vo, 0);
        let mut d_cross = 0.0;
        let mut count = 0;
        for j in 1..8 {
            d_cross += ve.row_distance_sq(0, &vo, j);
            count += 1;
        }
        assert!(d_same < d_cross / count as f32 * 1.5);
    }

    #[test]
    fn unlabeled_sample_hides_class() {
        let gen = SynthVision::new(SynthVisionSpec::stl10());
        let s = gen.sample_unlabeled(7, &mut rng::seeded(7));
        assert_eq!(s.label, None);
    }

    #[test]
    fn empty_batch_renders_empty_matrix() {
        let gen = SynthVision::new(SynthVisionSpec::cifar10());
        let m = gen.render_batch(std::iter::empty());
        assert_eq!(m.shape(), (0, 64));
    }
}
