//! # calibre-tensor
//!
//! Minimal 2-D tensor library with tape-based reverse-mode autograd, built as
//! the numerical substrate for the Calibre personalized-federated-learning
//! reproduction (ICDCS 2024).
//!
//! **Role in Algorithm 1:** substrate for *both* stages — the federated
//! training stage differentiates SSL + calibration losses through this tape,
//! and the personalization stage trains its per-client linear probe with the
//! same autograd and [`optim::Sgd`] optimizer.
//!
//! The crate provides exactly what the reproduction needs and nothing more:
//!
//! - [`Matrix`] — dense row-major `f32` matrix with the linear-algebra
//!   helpers used across the workspace.
//! - [`Graph`] / [`Node`] — a reusable autodiff tape covering dense
//!   layers, contrastive-loss plumbing (row normalization, diagonal masking,
//!   fused cross-entropies) and the prototype machinery (grouped row means,
//!   gathers/concats). Tapes recycle their buffers across steps through a
//!   [`pool::StepArena`].
//! - [`backend`] — the execution seam: every dense kernel dispatches
//!   through a [`backend::Backend`]. [`backend::Scalar`], the one
//!   implementation, is bit-identical to the original `Matrix` loops; its
//!   three matmuls (forward, and the `dA` and `dW` of backward) run
//!   sixteen output columns per register tile without changing any
//!   output's terms or summation order. [`Matrix::matmul`] runs on it too.
//! - [`pool`] — [`pool::BufferPool`] / [`pool::Workspace`] /
//!   [`pool::StepArena`]: size-keyed buffer recycling so a local update of
//!   E epochs reuses one arena instead of allocating fresh tapes per step.
//! - [`nn`] — [`nn::Linear`] / [`nn::Mlp`] modules with parameter
//!   flattening for federated aggregation, plus EMA updates for momentum
//!   encoders.
//! - [`optim`] — SGD with momentum, weight decay and gradient clipping.
//! - [`rng`] — seeded randomness, Box–Muller normals and Dirichlet draws
//!   (the non-i.i.d. partitioners depend on these).
//! - [`gradcheck`] — finite-difference gradient verification used heavily by
//!   the test suite.
//!
//! # Example: one training step
//!
//! ```
//! use calibre_tensor::{Graph, Matrix, rng};
//! use calibre_tensor::nn::{Mlp, Activation, Binding, Module, gradients};
//! use calibre_tensor::optim::{Sgd, SgdConfig};
//!
//! let mut r = rng::seeded(7);
//! let mut model = Mlp::new(&[4, 16, 3], Activation::Relu, &mut r);
//! let x = rng::normal_matrix(&mut r, 8, 4, 1.0);
//! let targets = vec![0, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut g = Graph::new();
//! let xn = g.constant(x);
//! let mut binding = Binding::new();
//! let logits = model.forward(&mut g, xn, &mut binding);
//! let loss = g.cross_entropy(logits, &targets);
//! g.backward(loss);
//!
//! let grads = gradients(&g, &binding);
//! let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
//! opt.step(&mut model, &grads);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod matrix;

pub mod backend;
pub mod conv;
pub mod gradcheck;
pub mod nn;
pub mod optim;
pub mod pool;
pub mod rng;

pub use graph::{Graph, Node};
pub use matrix::Matrix;
pub use pool::{StepArena, Workspace};
