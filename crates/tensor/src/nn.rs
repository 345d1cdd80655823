//! Neural-network building blocks on top of the autograd [`Graph`].
//!
//! Parameters live in plain structs ([`Linear`], [`Mlp`]) outside the tape.
//! Each forward pass inserts them as differentiable leaves and records the
//! leaf handles in a [`Binding`]; after `backward`, [`gradients`] extracts
//! the per-parameter gradients in the same order as
//! [`Module::parameters`]. This mirrors how the federated runtime treats a
//! model: a bag of matrices that can be flattened, shipped, aggregated and
//! loaded back.

use crate::rng::normal_matrix;
use crate::{Graph, Matrix, Node};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation function applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit (default).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    /// Applies the activation to a graph node.
    pub fn apply(self, g: &mut Graph, x: Node) -> Node {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Identity => x,
        }
    }

    /// Applies the activation to a plain matrix in place (inference path).
    pub fn apply_matrix(self, mut x: Matrix) -> Matrix {
        match self {
            Activation::Relu => x.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => x.iter_mut().for_each(|v| *v = v.tanh()),
            Activation::Identity => {}
        }
        x
    }
}

/// Anything that owns an ordered list of parameter matrices.
///
/// The order returned by [`Module::parameters`] and
/// [`Module::parameters_mut`] must be identical and stable; the federated
/// aggregation, flattening and EMA helpers all rely on it.
pub trait Module {
    /// Immutable borrows of every parameter, in a stable order.
    fn parameters(&self) -> Vec<&Matrix>;
    /// Mutable borrows of every parameter, in the same order.
    fn parameters_mut(&mut self) -> Vec<&mut Matrix>;

    /// Total number of scalar parameters.
    fn num_scalars(&self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }

    /// Flattens every parameter into one `Vec<f32>` (aggregation wire format).
    fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for p in self.parameters() {
            out.extend_from_slice(p.as_slice());
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Module::to_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not match [`Module::num_scalars`].
    fn load_flat(&mut self, flat: &[f32]) {
        let expected = self.num_scalars();
        assert_eq!(
            flat.len(),
            expected,
            "flat parameter length mismatch: got {}, expected {expected}",
            flat.len()
        );
        let mut offset = 0;
        for p in self.parameters_mut() {
            let n = p.len();
            p.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }
}

/// Exponential-moving-average update `target ← m·target + (1-m)·online`,
/// the building block of BYOL / MoCo momentum encoders and FedEMA.
///
/// # Panics
///
/// Panics if the two modules have different parameter shapes.
pub fn ema_update<M: Module + ?Sized>(target: &mut M, online: &M, momentum: f32) {
    for (t, o) in target.parameters_mut().into_iter().zip(online.parameters()) {
        assert_eq!(t.shape(), o.shape(), "ema_update shape mismatch");
        for (tv, &ov) in t.iter_mut().zip(o.iter()) {
            *tv = momentum * *tv + (1.0 - momentum) * ov;
        }
    }
}

/// Records the graph leaves a module's parameters were bound to during one
/// forward pass. Order matches [`Module::parameters`].
#[derive(Debug, Default, Clone)]
pub struct Binding {
    nodes: Vec<Node>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Self {
        Binding { nodes: Vec::new() }
    }

    /// Adds a bound parameter leaf. Layers call this during `forward`.
    pub fn push(&mut self, node: Node) {
        self.nodes.push(node);
    }

    /// The bound leaves, in parameter order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no parameters were bound.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Extracts per-parameter gradients after `backward`, in binding order.
///
/// Parameters that did not participate in the loss (e.g. a frozen branch)
/// yield zero matrices of the right shape.
pub fn gradients(g: &Graph, binding: &Binding) -> Vec<Matrix> {
    binding
        .nodes()
        .iter()
        .map(|&n| match g.grad(n) {
            Some(grad) => grad.clone(),
            None => {
                let (r, c) = g.value(n).shape();
                Matrix::zeros(r, c)
            }
        })
        .collect()
}

/// A dense affine layer `y = x W + b` with `W: (in, out)` and `b: (1, out)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    w: Matrix,
    b: Matrix,
}

impl Linear {
    /// Creates a layer with Kaiming-style initialization (`std = √(2/in)`)
    /// and zero bias.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, output_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / input_dim.max(1) as f32).sqrt();
        Linear {
            w: normal_matrix(rng, input_dim, output_dim, std),
            b: Matrix::zeros(1, output_dim),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Differentiable forward pass; binds `W` and `b` as leaves on `g`.
    pub fn forward(&self, g: &mut Graph, x: Node, binding: &mut Binding) -> Node {
        let w = g.leaf_from(&self.w);
        let b = g.leaf_from(&self.b);
        binding.push(w);
        binding.push(b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }

    /// Inference forward pass on plain matrices (no tape, no gradients).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for row in y.as_mut_slice().chunks_exact_mut(self.b.len().max(1)) {
            for (v, &b) in row.iter_mut().zip(self.b.iter()) {
                *v += b;
            }
        }
        y
    }

    /// Binds `W` and `b` as leaves without running a forward pass. Use with
    /// [`Linear::forward_with`] when the same parameters must be applied to
    /// several inputs in one graph (e.g. the two SSL views) so gradients
    /// accumulate on a single leaf per parameter.
    pub fn bind(&self, g: &mut Graph, binding: &mut Binding) -> (Node, Node) {
        let w = g.leaf_from(&self.w);
        let b = g.leaf_from(&self.b);
        binding.push(w);
        binding.push(b);
        (w, b)
    }

    /// Forward pass through pre-bound parameter leaves from [`Linear::bind`].
    pub fn forward_with(&self, g: &mut Graph, x: Node, bound: (Node, Node)) -> Node {
        let xw = g.matmul(x, bound.0);
        g.add_row(xw, bound.1)
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.b]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.w, &mut self.b]
    }
}

/// A multi-layer perceptron: `dims.len() - 1` [`Linear`] layers with a shared
/// hidden activation and an optional output activation.
///
/// The `Mlp` is the encoder/projector/predictor/head workhorse of the whole
/// reproduction (the paper's ResNet-18 substitute — see `DESIGN.md` §2).
///
/// # Examples
///
/// ```
/// use calibre_tensor::nn::{Mlp, Activation, Module};
/// use calibre_tensor::{Graph, Matrix, rng};
///
/// let mut r = rng::seeded(0);
/// let mlp = Mlp::new(&[8, 16, 4], Activation::Relu, &mut r);
/// assert_eq!(mlp.input_dim(), 8);
/// assert_eq!(mlp.output_dim(), 4);
/// let out = mlp.infer(&Matrix::zeros(3, 8));
/// assert_eq!(out.shape(), (3, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions, hidden activation and
    /// an identity output activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::with_output_activation(dims, hidden_activation, Activation::Identity, rng)
    }

    /// Creates an MLP with an explicit output activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given.
    pub fn with_output_activation<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        // analyze:allow(no-expect) -- Mlp::new rejects empty layer lists.
        self.layers.first().expect("at least one layer").input_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        // analyze:allow(no-expect) -- Mlp::new rejects empty layer lists.
        self.layers.last().expect("at least one layer").output_dim()
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Borrow of the individual layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Differentiable forward pass; binds all layer parameters on `g`.
    pub fn forward(&self, g: &mut Graph, x: Node, binding: &mut Binding) -> Node {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h, binding);
            h = if i < last {
                self.hidden_activation.apply(g, h)
            } else {
                self.output_activation.apply(g, h)
            };
        }
        h
    }

    /// Binds every layer's parameters as leaves without running a forward
    /// pass. Use with [`Mlp::forward_with`] when the same network processes
    /// several inputs in one graph (e.g. the two SSL views): gradients from
    /// all passes accumulate on one leaf per parameter.
    pub fn bind(&self, g: &mut Graph, binding: &mut Binding) -> Vec<(Node, Node)> {
        self.layers.iter().map(|l| l.bind(g, binding)).collect()
    }

    /// Forward pass through pre-bound parameter leaves from [`Mlp::bind`].
    ///
    /// # Panics
    ///
    /// Panics if `bound.len()` differs from the layer count.
    pub fn forward_with(&self, g: &mut Graph, x: Node, bound: &[(Node, Node)]) -> Node {
        assert_eq!(bound.len(), self.layers.len(), "bound leaf count mismatch");
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, (layer, &nodes)) in self.layers.iter().zip(bound.iter()).enumerate() {
            h = layer.forward_with(g, h, nodes);
            h = if i < last {
                self.hidden_activation.apply(g, h)
            } else {
                self.output_activation.apply(g, h)
            };
        }
        h
    }

    /// Inference forward pass on plain matrices (no tape, no gradients).
    ///
    /// This is the "frozen encoder" path used during the personalization
    /// stage: features are extracted without ever touching the tape.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.infer(h.as_ref().unwrap_or(x));
            h = Some(if i < last {
                self.hidden_activation.apply_matrix(z)
            } else {
                self.output_activation.apply_matrix(z)
            });
        }
        h.unwrap_or_else(|| x.clone())
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn linear_infer_matches_graph_forward() {
        let mut r = rng::seeded(1);
        let layer = Linear::new(4, 3, &mut r);
        let x = rng::normal_matrix(&mut r, 5, 4, 1.0);

        let infer = layer.infer(&x);

        let mut g = Graph::new();
        let xn = g.constant(x);
        let mut binding = Binding::new();
        let out = layer.forward(&mut g, xn, &mut binding);
        assert_eq!(binding.len(), 2);
        for (a, b) in infer.iter().zip(g.value(out).iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mlp_shapes_and_depth() {
        let mut r = rng::seeded(2);
        let mlp = Mlp::new(&[10, 20, 30, 5], Activation::Relu, &mut r);
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.input_dim(), 10);
        assert_eq!(mlp.output_dim(), 5);
        let y = mlp.infer(&Matrix::zeros(7, 10));
        assert_eq!(y.shape(), (7, 5));
    }

    #[test]
    fn mlp_infer_matches_graph_forward() {
        let mut r = rng::seeded(3);
        let mlp = Mlp::new(&[6, 8, 4], Activation::Tanh, &mut r);
        let x = rng::normal_matrix(&mut r, 3, 6, 1.0);
        let infer = mlp.infer(&x);
        let mut g = Graph::new();
        let xn = g.constant(x);
        let mut binding = Binding::new();
        let out = mlp.forward(&mut g, xn, &mut binding);
        assert_eq!(binding.len(), 4);
        for (a, b) in infer.iter().zip(g.value(out).iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn flat_roundtrip_preserves_parameters() {
        let mut r = rng::seeded(4);
        let mlp = Mlp::new(&[5, 7, 2], Activation::Relu, &mut r);
        let flat = mlp.to_flat();
        assert_eq!(flat.len(), mlp.num_scalars());
        assert_eq!(flat.len(), 5 * 7 + 7 + 7 * 2 + 2);

        let mut other = Mlp::new(&[5, 7, 2], Activation::Relu, &mut r);
        assert_ne!(other.to_flat(), flat, "fresh init should differ");
        other.load_flat(&flat);
        assert_eq!(other.to_flat(), flat);
        // loaded copy computes identically
        let x = rng::normal_matrix(&mut r, 2, 5, 1.0);
        assert_eq!(mlp.infer(&x), other.infer(&x));
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn load_flat_rejects_wrong_length() {
        let mut r = rng::seeded(5);
        let mut mlp = Mlp::new(&[3, 2], Activation::Relu, &mut r);
        mlp.load_flat(&[0.0; 3]);
    }

    #[test]
    fn gradients_returns_zero_for_unused_params() {
        let mut r = rng::seeded(6);
        let layer = Linear::new(2, 2, &mut r);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        // Bind but never use in the loss.
        let x = g.constant(Matrix::zeros(1, 2));
        let _out = layer.forward(&mut g, x, &mut binding);
        let unrelated = g.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let loss = g.sum_all(unrelated);
        g.backward(loss);
        let grads = gradients(&g, &binding);
        assert_eq!(grads.len(), 2);
        assert!(grads.iter().all(|m| m.max_abs() == 0.0));
        assert_eq!(grads[0].shape(), (2, 2));
        assert_eq!(grads[1].shape(), (1, 2));
    }

    #[test]
    fn ema_update_moves_target_toward_online() {
        let mut r = rng::seeded(7);
        let online = Mlp::new(&[3, 3], Activation::Relu, &mut r);
        let mut target = Mlp::new(&[3, 3], Activation::Relu, &mut r);
        let before = target.to_flat();
        ema_update(&mut target, &online, 0.9);
        let after = target.to_flat();
        let online_flat = online.to_flat();
        for ((b, a), o) in before.iter().zip(after.iter()).zip(online_flat.iter()) {
            let expected = 0.9 * b + 0.1 * o;
            assert!((a - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn ema_with_momentum_one_is_identity() {
        let mut r = rng::seeded(8);
        let online = Mlp::new(&[3, 3], Activation::Relu, &mut r);
        let mut target = Mlp::new(&[3, 3], Activation::Relu, &mut r);
        let before = target.to_flat();
        ema_update(&mut target, &online, 1.0);
        assert_eq!(target.to_flat(), before);
    }

    #[test]
    fn bound_forward_matches_plain_forward() {
        let mut r = rng::seeded(20);
        let mlp = Mlp::new(&[4, 6, 3], Activation::Relu, &mut r);
        let x = rng::normal_matrix(&mut r, 5, 4, 1.0);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let mut binding = Binding::new();
        let bound = mlp.bind(&mut g, &mut binding);
        let out = mlp.forward_with(&mut g, xn, &bound);
        let infer = mlp.infer(&x);
        for (a, b) in infer.iter().zip(g.value(out).iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(binding.len(), mlp.parameters().len());
    }

    #[test]
    fn shared_binding_accumulates_gradients_across_passes() {
        // Running the same bound network on two inputs must give the sum of
        // the two per-pass gradients on each parameter leaf.
        let mut r = rng::seeded(21);
        let mlp = Mlp::new(&[3, 2], Activation::Identity, &mut r);
        let x1 = rng::normal_matrix(&mut r, 4, 3, 1.0);
        let x2 = rng::normal_matrix(&mut r, 4, 3, 1.0);

        let grad_for = |inputs: &[&Matrix]| -> Vec<Matrix> {
            let mut g = Graph::new();
            let mut binding = Binding::new();
            let bound = mlp.bind(&mut g, &mut binding);
            let mut total: Option<crate::Node> = None;
            for x in inputs {
                let xn = g.constant((*x).clone());
                let out = mlp.forward_with(&mut g, xn, &bound);
                let s = g.sum_all(out);
                total = Some(match total {
                    Some(t) => g.add(t, s),
                    None => s,
                });
            }
            let loss = total.unwrap();
            g.backward(loss);
            gradients(&g, &binding)
        };

        let g1 = grad_for(&[&x1]);
        let g2 = grad_for(&[&x2]);
        let both = grad_for(&[&x1, &x2]);
        for ((a, b), sum) in g1.iter().zip(g2.iter()).zip(both.iter()) {
            let expected = a.add(b);
            for (e, s) in expected.iter().zip(sum.iter()) {
                assert!((e - s).abs() < 1e-4, "accumulated grad mismatch");
            }
        }
    }

    #[test]
    fn training_one_step_reduces_simple_regression_loss() {
        // Single gradient step on MSE must reduce the loss for a small lr.
        let mut r = rng::seeded(9);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut r);
        let x = rng::normal_matrix(&mut r, 16, 2, 1.0);
        let target = x.row_sum_sq(); // learn ||x||²

        let loss_of = |m: &Mlp| {
            let pred = m.infer(&x);
            pred.sub(&target).row_sum_sq().mean()
        };
        let before = loss_of(&mlp);

        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let tn = g.constant(target.clone());
        let mut binding = Binding::new();
        let pred = mlp.forward(&mut g, xn, &mut binding);
        let diff = g.sub(pred, tn);
        let sq = g.mul(diff, diff);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let grads = gradients(&g, &binding);
        for (p, gr) in mlp.parameters_mut().into_iter().zip(grads.iter()) {
            p.add_scaled(gr, -0.01);
        }
        let after = loss_of(&mlp);
        assert!(after < before, "loss should decrease: {before} -> {after}");
    }
}
