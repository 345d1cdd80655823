//! Optimizers.
//!
//! The paper trains every personalized head with plain SGD (lr 0.05) and the
//! SSL encoders with SGD + momentum, so that is all this module provides —
//! with optional weight decay and gradient clipping because several
//! baselines (SCAFFOLD, Ditto) need them.

use crate::nn::Module;
use crate::Matrix;
use serde::{Deserialize, Serialize};

/// Configuration for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables the velocity buffer).
    pub momentum: f32,
    /// Decoupled L2 weight decay applied to the parameter values.
    pub weight_decay: f32,
    /// If positive, gradients are rescaled so the global L2 norm does not
    /// exceed this value.
    pub grad_clip: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
            grad_clip: 0.0,
        }
    }
}

impl SgdConfig {
    /// Plain SGD with the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        SgdConfig {
            lr,
            ..SgdConfig::default()
        }
    }

    /// SGD with momentum.
    pub fn with_lr_momentum(lr: f32, momentum: f32) -> Self {
        SgdConfig {
            lr,
            momentum,
            ..SgdConfig::default()
        }
    }
}

/// Stochastic gradient descent with optional momentum, weight decay and
/// global-norm gradient clipping.
///
/// The optimizer is stateful (velocity buffers) and tied to the parameter
/// *order* of the module it optimizes, not to the module itself; reusing one
/// `Sgd` across modules with identical shapes is allowed (this is exactly
/// what the federated runtime does when a client trains a fresh model copy
/// every round).
///
/// # Examples
///
/// ```
/// use calibre_tensor::optim::{Sgd, SgdConfig};
/// use calibre_tensor::nn::{Mlp, Activation, Module};
/// use calibre_tensor::{Matrix, rng};
///
/// let mut r = rng::seeded(0);
/// let mut mlp = Mlp::new(&[2, 2], Activation::Relu, &mut r);
/// let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
/// let grads: Vec<Matrix> = mlp.parameters().iter()
///     .map(|p| Matrix::full(p.rows(), p.cols(), 1.0)).collect();
/// let before = mlp.to_flat();
/// opt.step(&mut mlp, &grads);
/// let after = mlp.to_flat();
/// assert!(before.iter().zip(&after).all(|(b, a)| (b - 0.1 - a).abs() < 1e-6));
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Applies one update step to `module` given `grads` in parameter order.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the module's parameter count or
    /// any gradient shape mismatches its parameter.
    pub fn step<M: Module + ?Sized>(&mut self, module: &mut M, grads: &[Matrix]) {
        let span = calibre_telemetry::span("optimizer_step");
        span.add_items(grads.len() as u64);
        let mut params = module.parameters_mut();
        assert_eq!(
            params.len(),
            grads.len(),
            "gradient count {} does not match parameter count {}",
            grads.len(),
            params.len()
        );

        let clip_scale = if self.config.grad_clip > 0.0 {
            let total: f32 = grads
                .iter()
                .map(|g| {
                    let n = g.frobenius_norm();
                    n * n
                })
                .sum::<f32>()
                .sqrt();
            if total > self.config.grad_clip {
                self.config.grad_clip / total
            } else {
                1.0
            }
        } else {
            1.0
        };

        if self.config.momentum > 0.0 && self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }

        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            assert_eq!(p.shape(), g.shape(), "gradient {i} shape mismatch");
            let mut effective = g.scale(clip_scale);
            if self.config.weight_decay > 0.0 {
                effective.add_scaled(p, self.config.weight_decay);
            }
            if self.config.momentum > 0.0 {
                let v = &mut self.velocity[i];
                // v ← m·v + g ; p ← p − lr·v
                for (vv, &gv) in v.iter_mut().zip(effective.iter()) {
                    *vv = self.config.momentum * *vv + gv;
                }
                p.add_scaled(&self.velocity[i], -self.config.lr);
            } else {
                p.add_scaled(&effective, -self.config.lr);
            }
        }
    }

    /// Applies one update step reading gradients directly off a
    /// differentiated [`Graph`](crate::Graph), with in-place parameter
    /// updates.
    ///
    /// Equivalent to `step(module, &gradients(graph, binding))` but without
    /// materializing the gradient vector: parameters whose leaves received
    /// no gradient are treated as having zero gradients (weight decay and
    /// momentum-velocity decay still apply), bit-identically to the
    /// materialized path. This is the arena hot-path entry point — one local
    /// update performs no per-step allocation at all.
    ///
    /// # Panics
    ///
    /// Panics if `binding.len()` differs from the module's parameter count
    /// or any gradient shape mismatches its parameter.
    pub fn step_graph<M: Module + ?Sized>(
        &mut self,
        module: &mut M,
        graph: &crate::Graph,
        binding: &crate::nn::Binding,
    ) {
        self.step_graph_masked(module, graph, binding, |_| false);
    }

    /// Like [`Sgd::step_graph`] but treats parameters for which
    /// `frozen(index)` returns `true` as having zero gradients, regardless
    /// of what the tape computed. Used for partial-model training (e.g.
    /// head-only fine-tuning where the encoder is frozen): frozen parameters
    /// still see weight decay and momentum-velocity decay, exactly as if a
    /// zero gradient matrix had been passed to [`Sgd::step`].
    ///
    /// # Panics
    ///
    /// Panics if `binding.len()` differs from the module's parameter count
    /// or any live gradient shape mismatches its parameter.
    pub fn step_graph_masked<M, F>(
        &mut self,
        module: &mut M,
        graph: &crate::Graph,
        binding: &crate::nn::Binding,
        frozen: F,
    ) where
        M: Module + ?Sized,
        F: Fn(usize) -> bool,
    {
        let span = calibre_telemetry::span("optimizer_step");
        span.add_items(binding.len() as u64);
        let mut params = module.parameters_mut();
        assert_eq!(
            params.len(),
            binding.len(),
            "binding count {} does not match parameter count {}",
            binding.len(),
            params.len()
        );
        let grad_of = |i: usize| -> Option<&Matrix> {
            if frozen(i) {
                None
            } else {
                graph.grad(binding.nodes()[i])
            }
        };

        let clip_scale = if self.config.grad_clip > 0.0 {
            let total: f32 = (0..params.len())
                .map(|i| match grad_of(i) {
                    Some(g) => {
                        let n = g.frobenius_norm();
                        n * n
                    }
                    None => 0.0,
                })
                .sum::<f32>()
                .sqrt();
            if total > self.config.grad_clip {
                self.config.grad_clip / total
            } else {
                1.0
            }
        } else {
            1.0
        };

        if self.config.momentum > 0.0 && self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }

        let (lr, mom, wd) = (
            self.config.lr,
            self.config.momentum,
            self.config.weight_decay,
        );
        for (i, p) in params.iter_mut().enumerate() {
            let grad = grad_of(i);
            if let Some(g) = grad {
                assert_eq!(p.shape(), g.shape(), "gradient {i} shape mismatch");
            }
            if mom > 0.0 {
                let v = &mut self.velocity[i];
                match grad {
                    Some(g) => {
                        for ((pv, vv), &gv) in p.iter_mut().zip(v.iter_mut()).zip(g.iter()) {
                            let mut ev = gv * clip_scale;
                            if wd > 0.0 {
                                ev += *pv * wd;
                            }
                            *vv = mom * *vv + ev;
                            *pv += *vv * (-lr);
                        }
                    }
                    None => {
                        for (pv, vv) in p.iter_mut().zip(v.iter_mut()) {
                            let mut ev = 0.0;
                            if wd > 0.0 {
                                ev += *pv * wd;
                            }
                            *vv = mom * *vv + ev;
                            *pv += *vv * (-lr);
                        }
                    }
                }
            } else {
                match grad {
                    Some(g) => {
                        for (pv, &gv) in p.iter_mut().zip(g.iter()) {
                            let mut ev = gv * clip_scale;
                            if wd > 0.0 {
                                ev += *pv * wd;
                            }
                            *pv += ev * (-lr);
                        }
                    }
                    None => {
                        if wd > 0.0 {
                            for pv in p.iter_mut() {
                                let ev = *pv * wd;
                                *pv += ev * (-lr);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Clears momentum buffers (e.g. when the model is replaced wholesale at
    /// the start of a federated round).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Activation, Mlp, Module};
    use crate::rng;

    fn unit_grads<M: Module>(m: &M) -> Vec<Matrix> {
        m.parameters()
            .iter()
            .map(|p| Matrix::full(p.rows(), p.cols(), 1.0))
            .collect()
    }

    #[test]
    fn plain_sgd_subtracts_lr_times_grad() {
        let mut r = rng::seeded(0);
        let mut m = Mlp::new(&[2, 3], Activation::Relu, &mut r);
        let before = m.to_flat();
        let mut opt = Sgd::new(SgdConfig::with_lr(0.5));
        let gr = unit_grads(&m);
        opt.step(&mut m, &gr);
        for (b, a) in before.iter().zip(m.to_flat().iter()) {
            assert!((b - 0.5 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut r = rng::seeded(1);
        let mut m = Mlp::new(&[1, 1], Activation::Identity, &mut r);
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(1.0, 0.5));
        let start = m.to_flat();
        let gr = unit_grads(&m);
        opt.step(&mut m, &gr); // v=1, p -= 1
        let gr = unit_grads(&m);
        opt.step(&mut m, &gr); // v=1.5, p -= 1.5
        let end = m.to_flat();
        for (s, e) in start.iter().zip(end.iter()) {
            assert!((s - 2.5 - e).abs() < 1e-6, "expected total step 2.5");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        let mut r = rng::seeded(2);
        let mut m = Mlp::new(&[2, 2], Activation::Relu, &mut r);
        let zeros: Vec<Matrix> = m
            .parameters()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let before = m.to_flat();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..SgdConfig::default()
        });
        opt.step(&mut m, &zeros);
        for (b, a) in before.iter().zip(m.to_flat().iter()) {
            assert!((a - b * (1.0 - 0.05)).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_clip_bounds_update_norm() {
        let mut r = rng::seeded(3);
        let mut m = Mlp::new(&[4, 4], Activation::Relu, &mut r);
        let huge: Vec<Matrix> = m
            .parameters()
            .iter()
            .map(|p| Matrix::full(p.rows(), p.cols(), 1000.0))
            .collect();
        let before = m.to_flat();
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            grad_clip: 1.0,
            ..SgdConfig::default()
        });
        opt.step(&mut m, &huge);
        let delta_norm: f32 = before
            .iter()
            .zip(m.to_flat().iter())
            .map(|(b, a)| (b - a) * (b - a))
            .sum::<f32>()
            .sqrt();
        assert!(
            delta_norm <= 1.0 + 1e-4,
            "clipped update norm {delta_norm} > 1"
        );
    }

    #[test]
    fn reset_clears_velocity() {
        let mut r = rng::seeded(4);
        let mut m = Mlp::new(&[1, 1], Activation::Identity, &mut r);
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(1.0, 0.9));
        let gr = unit_grads(&m);
        opt.step(&mut m, &gr);
        opt.reset();
        let before = m.to_flat();
        let gr = unit_grads(&m);
        opt.step(&mut m, &gr);
        // After reset, velocity starts at zero again: step is exactly lr·g.
        for (b, a) in before.iter().zip(m.to_flat().iter()) {
            assert!((b - 1.0 - a).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "gradient count")]
    fn step_rejects_wrong_grad_count() {
        let mut r = rng::seeded(5);
        let mut m = Mlp::new(&[2, 2], Activation::Relu, &mut r);
        let mut opt = Sgd::new(SgdConfig::default());
        opt.step(&mut m, &[]);
    }

    #[test]
    fn step_graph_matches_materialized_step_bitwise() {
        // The in-place graph path must be indistinguishable from
        // materializing gradients and calling step — including momentum,
        // weight decay and clipping interactions, down to the bit.
        let mut r = rng::seeded(13);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Relu, &mut r);
        let x = rng::normal_matrix(&mut r, 6, 3, 1.0);
        let cfg = SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.01,
            grad_clip: 1.0,
        };

        let run = |use_graph: bool| -> Vec<u32> {
            let mut m = mlp.clone();
            let mut opt = Sgd::new(cfg);
            for _ in 0..3 {
                let mut g = crate::Graph::new();
                let xn = g.constant(x.clone());
                let mut binding = crate::nn::Binding::new();
                let y = m.forward(&mut g, xn, &mut binding);
                let sq = g.mul(y, y);
                let loss = g.mean_all(sq);
                g.backward(loss);
                if use_graph {
                    opt.step_graph(&mut m, &g, &binding);
                } else {
                    let grads = crate::nn::gradients(&g, &binding);
                    opt.step(&mut m, &grads);
                }
            }
            m.to_flat().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn step_graph_masked_matches_zero_grad_step() {
        // Masking a parameter must behave exactly like passing an explicit
        // zero gradient: weight decay applies and momentum velocity decays.
        let mut r = rng::seeded(14);
        let mlp = Mlp::new(&[2, 3, 2], Activation::Tanh, &mut r);
        let x = rng::normal_matrix(&mut r, 4, 2, 1.0);
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.5,
            weight_decay: 0.02,
            grad_clip: 0.0,
        };
        // Freeze the first layer (parameters 0 and 1).
        let frozen = |i: usize| i < 2;

        let build = |m: &Mlp| -> (crate::Graph, crate::nn::Binding) {
            let mut g = crate::Graph::new();
            let xn = g.constant(x.clone());
            let mut binding = crate::nn::Binding::new();
            let y = m.forward(&mut g, xn, &mut binding);
            let sq = g.mul(y, y);
            let loss = g.mean_all(sq);
            g.backward(loss);
            (g, binding)
        };

        let mut m_ref = mlp.clone();
        let mut opt_ref = Sgd::new(cfg);
        for _ in 0..2 {
            let (g, binding) = build(&m_ref);
            let mut grads = crate::nn::gradients(&g, &binding);
            for (i, gr) in grads.iter_mut().enumerate() {
                if frozen(i) {
                    *gr = Matrix::zeros(gr.rows(), gr.cols());
                }
            }
            opt_ref.step(&mut m_ref, &grads);
        }

        let mut m_graph = mlp;
        let mut opt_graph = Sgd::new(cfg);
        for _ in 0..2 {
            let (g, binding) = build(&m_graph);
            opt_graph.step_graph_masked(&mut m_graph, &g, &binding, frozen);
        }

        let a: Vec<u32> = m_ref.to_flat().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = m_graph.to_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }
}
