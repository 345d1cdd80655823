//! 2-D convolution on the autograd tape, via im2col.
//!
//! The reproduction's default encoder is an MLP (fast enough for the
//! CPU-scale experiment harness), but the substrate also supports proper
//! convolutional encoders over the synthetic observations interpreted as
//! `H × W × C` grids — the closer analog of the paper's ResNet-18. The
//! building blocks are:
//!
//! - [`Graph::im2col`] / [`Graph::reshape`] tape ops (this module adds the
//!   layer types on top of them);
//! - [`Conv2d`]: one convolution layer (+ bias), `y = im2col(x) · W + b`;
//! - [`ConvNet`]: a small conv → conv → linear encoder with the same
//!   [`Module`] interface as [`Mlp`], so it drops into every federated
//!   aggregation path unchanged.
//!
//! Data layout: images are flattened **channel-last**, i.e. the value at
//! `(y, x, c)` lives at index `(y * width + x) * channels + c`; a batch is
//! an `(N, H·W·C)` matrix. A conv layer's output is again channel-last with
//! its own spatial size, so layers chain without explicit transposition.
//!
//! [`Mlp`]: crate::nn::Mlp

use crate::nn::{Activation, Binding, Linear, Module};
use crate::rng::normal_matrix;
use crate::{Graph, Matrix, Node};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Spatial description of a channel-last image batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageShape {
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Channels.
    pub channels: usize,
}

impl ImageShape {
    /// Creates a shape.
    pub fn new(height: usize, width: usize, channels: usize) -> Self {
        ImageShape {
            height,
            width,
            channels,
        }
    }

    /// Flattened length of one image.
    pub fn len(&self) -> usize {
        self.height * self.width * self.channels
    }

    /// Whether the shape is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Output spatial shape after a valid (no-padding) `k × k` convolution
    /// with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit or the stride is zero.
    pub fn conv_output(&self, kernel: usize, stride: usize, out_channels: usize) -> ImageShape {
        assert!(stride > 0, "stride must be positive");
        assert!(
            kernel <= self.height && kernel <= self.width,
            "kernel {kernel} larger than image {}x{}",
            self.height,
            self.width
        );
        ImageShape {
            height: (self.height - kernel) / stride + 1,
            width: (self.width - kernel) / stride + 1,
            channels: out_channels,
        }
    }
}

/// One 2-D convolution layer (valid padding) over channel-last images.
///
/// Weights are stored as a `(kernel·kernel·in_channels, out_channels)`
/// matrix so the convolution is exactly `im2col(x) · W + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    weight: Matrix,
    bias: Matrix,
    input_shape: ImageShape,
    kernel: usize,
    stride: usize,
    out_channels: usize,
}

impl Conv2d {
    /// Creates a layer with Kaiming-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the input or the stride is zero.
    pub fn new<R: Rng + ?Sized>(
        input_shape: ImageShape,
        kernel: usize,
        stride: usize,
        out_channels: usize,
        rng: &mut R,
    ) -> Self {
        // Validates kernel/stride.
        let _ = input_shape.conv_output(kernel, stride, out_channels);
        let patch = kernel * kernel * input_shape.channels;
        let std = (2.0 / patch as f32).sqrt();
        Conv2d {
            weight: normal_matrix(rng, patch, out_channels, std),
            bias: Matrix::zeros(1, out_channels),
            input_shape,
            kernel,
            stride,
            out_channels,
        }
    }

    /// The layer's output shape.
    pub fn output_shape(&self) -> ImageShape {
        self.input_shape
            .conv_output(self.kernel, self.stride, self.out_channels)
    }

    /// The layer's input shape.
    pub fn input_shape(&self) -> ImageShape {
        self.input_shape
    }

    /// Differentiable forward pass over an `(N, H·W·C)` node; returns an
    /// `(N, OH·OW·K)` node.
    pub fn forward(&self, g: &mut Graph, x: Node, binding: &mut Binding) -> Node {
        let span = calibre_telemetry::span("conv_forward");
        let n = g.value(x).rows();
        span.add_items(n as u64);
        let out = self.output_shape();
        let w = g.leaf(self.weight.clone());
        let b = g.leaf(self.bias.clone());
        binding.push(w);
        binding.push(b);
        let patches = g.im2col(x, self.input_shape, self.kernel, self.stride);
        let conv = g.matmul(patches, w);
        let with_bias = g.add_row(conv, b);
        g.reshape(with_bias, n, out.len())
    }

    /// Inference forward pass on plain matrices.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let out = self.output_shape();
        let patches = im2col_matrix(x, self.input_shape, self.kernel, self.stride);
        let mut conv = patches.matmul(&self.weight).add_row_vec(&self.bias);
        conv = Matrix::from_vec(n, out.len(), conv.into_vec());
        conv
    }
}

impl Module for Conv2d {
    fn parameters(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// A small convolutional encoder: `conv → ReLU → conv → ReLU → linear`,
/// with the same [`Module`] interface as the MLP encoder so it drops into
/// the federated plumbing (flattening, aggregation, EMA) unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvNet {
    conv1: Conv2d,
    conv2: Conv2d,
    head: Linear,
}

impl ConvNet {
    /// Builds an encoder for `input` images producing `output_dim`
    /// features: `conv(k3, c1) → ReLU → conv(k3, stride 2, c2) → ReLU →
    /// linear`.
    ///
    /// # Panics
    ///
    /// Panics if the image is too small for two 3×3 convolutions.
    pub fn new<R: Rng + ?Sized>(
        input: ImageShape,
        channels1: usize,
        channels2: usize,
        output_dim: usize,
        rng: &mut R,
    ) -> Self {
        let conv1 = Conv2d::new(input, 3, 1, channels1, rng);
        let conv2 = Conv2d::new(conv1.output_shape(), 3, 2, channels2, rng);
        let head = Linear::new(conv2.output_shape().len(), output_dim, rng);
        ConvNet { conv1, conv2, head }
    }

    /// Input dimensionality (flattened image length).
    pub fn input_dim(&self) -> usize {
        self.conv1.input_shape().len()
    }

    /// Output feature dimensionality.
    pub fn output_dim(&self) -> usize {
        self.head.output_dim()
    }

    /// Differentiable forward pass.
    pub fn forward(&self, g: &mut Graph, x: Node, binding: &mut Binding) -> Node {
        let h1 = self.conv1.forward(g, x, binding);
        let h1 = g.relu(h1);
        let h2 = self.conv2.forward(g, h1, binding);
        let h2 = g.relu(h2);
        self.head.forward(g, h2, binding)
    }

    /// Inference forward pass on plain matrices.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let h1 = Activation::Relu.apply_matrix(self.conv1.infer(x));
        let h2 = Activation::Relu.apply_matrix(self.conv2.infer(&h1));
        self.head.infer(&h2)
    }
}

impl Module for ConvNet {
    fn parameters(&self) -> Vec<&Matrix> {
        let mut p = self.conv1.parameters();
        p.extend(self.conv2.parameters());
        p.extend(self.head.parameters());
        p
    }

    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.conv1.parameters_mut();
        p.extend(self.conv2.parameters_mut());
        p.extend(self.head.parameters_mut());
        p
    }
}

/// Plain-matrix im2col used by both the tape op and the inference path.
pub(crate) fn im2col_matrix(
    input: &Matrix,
    shape: ImageShape,
    kernel: usize,
    stride: usize,
) -> Matrix {
    assert_eq!(
        input.cols(),
        shape.len(),
        "input width {} does not match image shape {:?}",
        input.cols(),
        shape
    );
    let out = shape.conv_output(kernel, stride, 1);
    let patch_len = kernel * kernel * shape.channels;
    let mut patches = Matrix::zeros(input.rows() * out.height * out.width, patch_len);
    let mut row = 0;
    for n in 0..input.rows() {
        let img = input.row(n);
        for oy in 0..out.height {
            for ox in 0..out.width {
                let dst = patches.row_mut(row);
                let mut i = 0;
                for ky in 0..kernel {
                    let y = oy * stride + ky;
                    for kx in 0..kernel {
                        let x = ox * stride + kx;
                        let src = (y * shape.width + x) * shape.channels;
                        dst[i..i + shape.channels].copy_from_slice(&img[src..src + shape.channels]);
                        i += shape.channels;
                    }
                }
                row += 1;
            }
        }
    }
    patches
}

/// Scatter-add of patch gradients back to image positions (col2im).
pub(crate) fn col2im_matrix(
    grad_patches: &Matrix,
    rows: usize,
    shape: ImageShape,
    kernel: usize,
    stride: usize,
) -> Matrix {
    let out = shape.conv_output(kernel, stride, 1);
    let mut grad_input = Matrix::zeros(rows, shape.len());
    let mut row = 0;
    for n in 0..rows {
        for oy in 0..out.height {
            for ox in 0..out.width {
                let src = grad_patches.row(row);
                let dst = grad_input.row_mut(n);
                let mut i = 0;
                for ky in 0..kernel {
                    let y = oy * stride + ky;
                    for kx in 0..kernel {
                        let x = ox * stride + kx;
                        let d = (y * shape.width + x) * shape.channels;
                        for c in 0..shape.channels {
                            dst[d + c] += src[i + c];
                        }
                        i += shape.channels;
                    }
                }
                row += 1;
            }
        }
    }
    grad_input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::nn::gradients;
    use crate::optim::{Sgd, SgdConfig};
    use crate::rng;

    const SHAPE: ImageShape = ImageShape {
        height: 8,
        width: 8,
        channels: 1,
    };

    #[test]
    fn image_shape_conv_arithmetic() {
        let s = ImageShape::new(8, 8, 3);
        let o = s.conv_output(3, 1, 16);
        assert_eq!((o.height, o.width, o.channels), (6, 6, 16));
        let o2 = o.conv_output(3, 2, 4);
        assert_eq!((o2.height, o2.width), (2, 2));
    }

    #[test]
    fn im2col_extracts_expected_patches() {
        // 3x3 single-channel image, 2x2 kernel, stride 1 → 4 patches.
        let img = Matrix::from_rows(&[vec![
            1.0, 2.0, 3.0, //
            4.0, 5.0, 6.0, //
            7.0, 8.0, 9.0,
        ]]);
        let shape = ImageShape::new(3, 3, 1);
        let patches = im2col_matrix(&img, shape, 2, 1);
        assert_eq!(patches.shape(), (4, 4));
        assert_eq!(patches.row(0), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(patches.row(1), &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(patches.row(2), &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(patches.row(3), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // With stride 1 the center pixel of a 3x3 image appears in all four
        // 2x2 patches.
        let shape = ImageShape::new(3, 3, 1);
        let ones = Matrix::full(4, 4, 1.0);
        let back = col2im_matrix(&ones, 1, shape, 2, 1);
        assert_eq!(back.get(0, 4), 4.0, "center pixel gets 4 contributions");
        assert_eq!(back.get(0, 0), 1.0, "corner pixel gets 1");
    }

    #[test]
    fn conv_matches_hand_convolution() {
        // Identity-like kernel: picks the top-left pixel of each patch.
        let mut r = rng::seeded(0);
        let mut layer = Conv2d::new(ImageShape::new(3, 3, 1), 2, 1, 1, &mut r);
        let mut w = Matrix::zeros(4, 1);
        w.set(0, 0, 1.0);
        *layer.parameters_mut()[0] = w;
        let img = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]);
        let out = layer.infer(&img);
        assert_eq!(out.row(0), &[1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn graph_forward_matches_infer() {
        let mut r = rng::seeded(1);
        let net = ConvNet::new(SHAPE, 4, 8, 16, &mut r);
        let x = rng::normal_matrix(&mut r, 3, SHAPE.len(), 1.0);
        let infer = net.infer(&x);
        let mut g = Graph::new();
        let xn = g.constant(x);
        let mut binding = Binding::new();
        let out = net.forward(&mut g, xn, &mut binding);
        assert_eq!(g.value(out).shape(), (3, 16));
        for (a, b) in infer.iter().zip(g.value(out).iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(binding.len(), net.parameters().len());
    }

    #[test]
    fn conv_gradient_matches_finite_differences() {
        let mut r = rng::seeded(2);
        let layer = Conv2d::new(ImageShape::new(4, 4, 1), 3, 1, 2, &mut r);
        let x = rng::normal_matrix(&mut r, 2, 16, 1.0);
        let report = check_gradient(&x, 1e-3, |g, xn| {
            let mut binding = Binding::new();
            let y = layer.forward(g, xn, &mut binding);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn convnet_trains_on_a_small_classification_task() {
        // Two texture classes: vertical vs horizontal stripes + noise.
        let mut r = rng::seeded(3);
        let n_per = 24;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for _ in 0..n_per {
                let mut img = vec![0.0f32; 64];
                for y in 0..8 {
                    for x in 0..8 {
                        let stripe = if class == 0 { x % 2 } else { y % 2 };
                        img[y * 8 + x] = stripe as f32 + 0.3 * crate::rng::normal(&mut r);
                    }
                }
                rows.push(img);
                labels.push(class);
            }
        }
        let x = Matrix::from_rows(&rows);

        let mut net = ConvNet::new(SHAPE, 4, 8, 2, &mut r);
        let mut opt = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let accuracy = |net: &ConvNet| -> f32 {
            let logits = net.infer(&x);
            (0..logits.rows())
                .filter(|&i| {
                    let row = logits.row(i);
                    (row[1] > row[0]) == (labels[i] == 1)
                })
                .count() as f32
                / labels.len() as f32
        };
        let before = accuracy(&net);
        for _ in 0..30 {
            let mut g = Graph::new();
            let xn = g.constant(x.clone());
            let mut binding = Binding::new();
            let logits = net.forward(&mut g, xn, &mut binding);
            let loss = g.cross_entropy(logits, &labels);
            g.backward(loss);
            let grads = gradients(&g, &binding);
            opt.step(&mut net, &grads);
        }
        let after = accuracy(&net);
        assert!(
            after > 0.9 && after > before,
            "conv net should learn stripes: {before} -> {after}"
        );
    }

    #[test]
    fn convnet_flat_roundtrip() {
        let mut r = rng::seeded(4);
        let net = ConvNet::new(SHAPE, 4, 8, 16, &mut r);
        let mut other = ConvNet::new(SHAPE, 4, 8, 16, &mut r);
        assert_ne!(net.to_flat(), other.to_flat());
        other.load_flat(&net.to_flat());
        assert_eq!(net.to_flat(), other.to_flat());
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_rejected() {
        let mut r = rng::seeded(5);
        let _ = Conv2d::new(ImageShape::new(2, 2, 1), 3, 1, 4, &mut r);
    }
}
