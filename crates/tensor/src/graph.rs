//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a reusable tape: each training step builds the step's ops
//! on it, runs [`Graph::backward`] on a scalar loss node, reads the
//! parameter gradients out, and either drops the graph or — on the hot path
//! — recycles it through a [`crate::pool::StepArena`], which calls
//! [`Graph::reset`] to reclaim every buffer into the graph's
//! [`crate::pool::Workspace`] pool for the next step. Parameters themselves
//! live *outside* the graph (see [`crate::nn`]) and are inserted as leaf
//! nodes each step — this keeps the tape trivially `Send` for the parallel
//! federated runtime and sidesteps interior-mutability entirely.
//!
//! All dense kernels dispatch through the workspace's
//! [`crate::backend::Backend`]; the default `Scalar` backend reproduces the
//! original `Matrix` loops bit-for-bit. Backward computes no gradient for
//! an input that does not require one, so `constant · W` never runs the
//! `dA` product.
//!
//! The operation set is exactly what the Calibre reproduction needs: dense
//! linear algebra, the nonlinearities of the encoder MLPs, the normalizations
//! and fused cross-entropies used by contrastive losses, and the
//! gather/concat/group-mean plumbing used by the prototype regularizers.

use crate::conv::ImageShape;
use crate::pool::{PoolStats, Workspace};
use crate::Matrix;

/// Handle to a node in a [`Graph`] tape.
///
/// `Node` is a cheap copyable index; it is only meaningful together with the
/// graph that produced it (and only until that graph is [`Graph::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

/// The operation that produced a node, together with its input handles.
///
/// Some payloads (the scalar of `AddScalar`/`MaskDiagonal`, the source of
/// `Detach`) are only needed in the forward pass but are kept on the tape
/// so `Debug` output and future graph inspection show the full operation.
#[derive(Debug, Clone)]
#[allow(dead_code)]
enum Op {
    /// Leaf node: a constant or a parameter inserted from outside the graph.
    Leaf,
    MatMul(Node, Node),
    Add(Node, Node),
    Sub(Node, Node),
    Mul(Node, Node),
    Div(Node, Node),
    /// Broadcast-add a `(1, D)` row vector to every row of an `(N, D)` input.
    AddRow(Node, Node),
    /// Broadcast-add an `(N, 1)` column vector to every column.
    AddCol(Node, Node),
    Scale(Node, f32),
    AddScalar(Node, f32),
    Relu(Node),
    Tanh(Node),
    Exp(Node),
    Log(Node),
    Transpose(Node),
    RowL2Normalize(Node),
    /// Per-row layer normalization: `(x − mean) / sqrt(var + ε)`.
    LayerNorm(Node),
    /// Per-row sum of squares, producing an `(N, 1)` column.
    RowSumSq(Node),
    GatherRows(Node, Vec<usize>),
    ConcatRows(Node, Node),
    ConcatCols(Node, Node),
    /// Mean of rows grouped by an assignment vector, producing `(K, D)`.
    GroupMeanRows(Node, Vec<usize>, usize),
    /// Row-wise dot product of two `(N, D)` inputs, producing `(N, 1)`.
    RowwiseDot(Node, Node),
    SumAll(Node),
    MeanAll(Node),
    /// Mean cross-entropy between row-softmax of logits and integer targets.
    CrossEntropy(Node, Vec<usize>),
    /// Mean cross-entropy between row-softmax of logits and fixed soft targets.
    CrossEntropySoft(Node, Matrix),
    /// Overwrites the main diagonal with a constant; gradient is zeroed there.
    MaskDiagonal(Node, f32),
    /// Identity forward, but blocks gradient flow (stop-gradient).
    Detach(Node),
    /// Patch extraction for convolution (see [`Graph::im2col`]).
    Im2Col(Node, ImageShape, usize, usize),
    /// Row-major reinterpretation of the data with a new shape.
    Reshape(Node),
}

struct NodeData {
    value: Matrix,
    op: Op,
    requires_grad: bool,
    /// Cached softmax for the fused cross-entropy ops.
    aux: Option<Matrix>,
}

/// A reusable reverse-mode autodiff tape.
///
/// # Examples
///
/// Differentiate `mean((x·w)²)` with respect to `w`:
///
/// ```
/// use calibre_tensor::{Graph, Matrix};
///
/// let mut g = Graph::new();
/// let x = g.constant(Matrix::from_rows(&[vec![1.0, 2.0]]));
/// let w = g.leaf(Matrix::from_rows(&[vec![3.0], vec![4.0]]));
/// let y = g.matmul(x, w);
/// let y_sq = g.mul(y, y);
/// let loss = g.mean_all(y_sq);
/// g.backward(loss);
/// let grad = g.grad(w).expect("leaf requires grad");
/// // d/dw mean((x·w)²) = 2 (x·w) xᵀ = 2·11·[1,2]ᵀ
/// assert_eq!(grad.col(0), vec![22.0, 44.0]);
/// ```
pub struct Graph {
    nodes: Vec<NodeData>,
    grads: Vec<Option<Matrix>>,
    ws: Workspace,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

impl Graph {
    /// Creates an empty tape on a fresh [`Workspace`] (`Scalar` backend,
    /// empty pool).
    pub fn new() -> Self {
        Graph::with_workspace(Workspace::new())
    }

    /// Creates an empty tape on an explicit workspace (backend + pool).
    pub fn with_workspace(ws: Workspace) -> Self {
        Graph {
            nodes: Vec::new(),
            grads: Vec::new(),
            ws,
        }
    }

    /// Clears the tape for reuse, reclaiming every node value, cached
    /// softmax and gradient into the workspace pool. Node handles from
    /// before the reset are invalidated.
    pub fn reset(&mut self) {
        let Graph { nodes, grads, ws } = self;
        for n in nodes.drain(..) {
            ws.reclaim(n.value);
            if let Some(aux) = n.aux {
                ws.reclaim(aux);
            }
        }
        for m in grads.drain(..).flatten() {
            ws.reclaim(m);
        }
    }

    /// Buffer-pool counters of this graph's workspace.
    pub fn pool_stats(&self) -> PoolStats {
        self.ws.pool_stats()
    }

    /// Number of nodes recorded on the tape so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool, aux: Option<Matrix>) -> Node {
        self.nodes.push(NodeData {
            value,
            op,
            requires_grad,
            aux,
        });
        self.grads.push(None);
        Node(self.nodes.len() - 1)
    }

    fn rg(&self, n: Node) -> bool {
        self.nodes[n.0].requires_grad
    }

    /// Inserts a constant leaf (no gradient is tracked through it).
    pub fn constant(&mut self, value: Matrix) -> Node {
        self.push(value, Op::Leaf, false, None)
    }

    /// Inserts a differentiable leaf; its gradient is available after
    /// [`Graph::backward`] via [`Graph::grad`].
    pub fn leaf(&mut self, value: Matrix) -> Node {
        self.push(value, Op::Leaf, true, None)
    }

    /// Like [`Graph::constant`], but copies `value` into pooled storage
    /// instead of taking ownership — the allocation-free way to insert a
    /// batch view on a recycled graph.
    pub fn constant_from(&mut self, value: &Matrix) -> Node {
        let v = self.ws.alloc_copy(value);
        self.push(v, Op::Leaf, false, None)
    }

    /// Like [`Graph::leaf`], but copies `value` into pooled storage — used
    /// by the layer bind path so re-binding parameters every step stops
    /// allocating.
    pub fn leaf_from(&mut self, value: &Matrix) -> Node {
        let v = self.ws.alloc_copy(value);
        self.push(v, Op::Leaf, true, None)
    }

    /// Value of a node.
    pub fn value(&self, n: Node) -> &Matrix {
        &self.nodes[n.0].value
    }

    /// Gradient of the loss with respect to node `n`, if it was computed by
    /// the last [`Graph::backward`] call.
    pub fn grad(&self, n: Node) -> Option<&Matrix> {
        self.grads[n.0].as_ref()
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&mut self, a: Node, b: Node) -> Node {
        let span = calibre_telemetry::span("matmul");
        let Graph { nodes, ws, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        assert_eq!(
            av.cols(),
            bv.rows(),
            "matmul shape mismatch: {}x{} * {}x{}",
            av.rows(),
            av.cols(),
            bv.rows(),
            bv.cols()
        );
        let mut v = ws.alloc_zeros(av.rows(), bv.cols());
        ws.backend().matmul(av, bv, &mut v);
        span.add_items(v.rows() as u64);
        span.add_bytes((v.rows() * v.cols() * std::mem::size_of::<f32>()) as u64);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), rg, None)
    }

    fn zip_values<F: Fn(f32, f32) -> f32>(&mut self, a: Node, b: Node, f: F) -> Matrix {
        let Graph { nodes, ws, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        pooled_zip(ws, av, bv, f)
    }

    fn map_value<F: Fn(f32) -> f32>(&mut self, a: Node, f: F) -> Matrix {
        let Graph { nodes, ws, .. } = self;
        pooled_map(ws, &nodes[a.0].value, f)
    }

    fn copy_value(&mut self, a: Node) -> Matrix {
        let Graph { nodes, ws, .. } = self;
        ws.alloc_copy(&nodes[a.0].value)
    }

    /// Elementwise sum of two equally-shaped nodes.
    pub fn add(&mut self, a: Node, b: Node) -> Node {
        let v = self.zip_values(a, b, |x, y| x + y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg, None)
    }

    /// Elementwise difference of two equally-shaped nodes.
    pub fn sub(&mut self, a: Node, b: Node) -> Node {
        let v = self.zip_values(a, b, |x, y| x - y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg, None)
    }

    /// Elementwise product of two equally-shaped nodes.
    pub fn mul(&mut self, a: Node, b: Node) -> Node {
        let v = self.zip_values(a, b, |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg, None)
    }

    /// Elementwise quotient of two equally-shaped nodes.
    pub fn div(&mut self, a: Node, b: Node) -> Node {
        let v = self.zip_values(a, b, |x, y| x / y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Div(a, b), rg, None)
    }

    /// Adds a `(1, D)` row-vector node to every row of an `(N, D)` node.
    pub fn add_row(&mut self, a: Node, row: Node) -> Node {
        let mut v = {
            let Graph { nodes, ws, .. } = self;
            let (av, rv) = (&nodes[a.0].value, &nodes[row.0].value);
            assert_eq!(rv.rows(), 1, "expected a row vector, got {:?}", rv.shape());
            assert_eq!(rv.cols(), av.cols(), "row vector length mismatch");
            ws.alloc_copy(av)
        };
        {
            let rv = &self.nodes[row.0].value;
            for r in 0..v.rows() {
                for (o, &b) in v.row_mut(r).iter_mut().zip(rv.iter()) {
                    *o += b;
                }
            }
        }
        let rg = self.rg(a) || self.rg(row);
        self.push(v, Op::AddRow(a, row), rg, None)
    }

    /// Adds an `(N, 1)` column-vector node to every column of an `(N, D)` node.
    pub fn add_col(&mut self, a: Node, col: Node) -> Node {
        let mut v = {
            let Graph { nodes, ws, .. } = self;
            let (av, cv) = (&nodes[a.0].value, &nodes[col.0].value);
            assert_eq!(
                cv.cols(),
                1,
                "expected a column vector, got {:?}",
                cv.shape()
            );
            assert_eq!(cv.rows(), av.rows(), "column vector length mismatch");
            ws.alloc_copy(av)
        };
        {
            let cv = &self.nodes[col.0].value;
            for r in 0..v.rows() {
                let add = cv.get(r, 0);
                for o in v.row_mut(r) {
                    *o += add;
                }
            }
        }
        let rg = self.rg(a) || self.rg(col);
        self.push(v, Op::AddCol(a, col), rg, None)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, a: Node, s: f32) -> Node {
        let v = self.map_value(a, |x| x * s);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg, None)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Node, s: f32) -> Node {
        let v = self.map_value(a, |x| x + s);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a, s), rg, None)
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&mut self, a: Node) -> Node {
        let v = self.map_value(a, |x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg, None)
    }

    /// Hyperbolic tangent, elementwise.
    pub fn tanh(&mut self, a: Node) -> Node {
        let v = self.map_value(a, f32::tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg, None)
    }

    /// Exponential, elementwise.
    pub fn exp(&mut self, a: Node) -> Node {
        let v = self.map_value(a, f32::exp);
        let rg = self.rg(a);
        self.push(v, Op::Exp(a), rg, None)
    }

    /// Natural logarithm, elementwise. Inputs are clamped to `1e-12` from
    /// below so the forward value is always finite.
    pub fn log(&mut self, a: Node) -> Node {
        let v = self.map_value(a, |x| x.max(1e-12).ln());
        let rg = self.rg(a);
        self.push(v, Op::Log(a), rg, None)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            pooled_transpose(ws, &nodes[a.0].value)
        };
        let rg = self.rg(a);
        self.push(v, Op::Transpose(a), rg, None)
    }

    /// Scales every row to unit Euclidean norm (rows with near-zero norm pass
    /// through unchanged).
    pub fn row_l2_normalize(&mut self, a: Node) -> Node {
        let mut v = self.copy_value(a);
        for r in 0..v.rows() {
            let norm: f32 = v.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for x in v.row_mut(r) {
                    *x /= norm;
                }
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::RowL2Normalize(a), rg, None)
    }

    /// Per-row layer normalization `(x − μ) / √(σ² + 1e-5)` (no affine
    /// parameters). The standard stabilizer for projector/predictor MLPs.
    pub fn layer_norm(&mut self, a: Node) -> Node {
        let mut v = self.copy_value(a);
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let n = row.len() as f32;
            let mean: f32 = row.iter().sum::<f32>() / n;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            for x in row.iter_mut() {
                *x = (*x - mean) * inv_std;
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::LayerNorm(a), rg, None)
    }

    /// Per-row sum of squares, producing an `(N, 1)` column node.
    pub fn row_sum_sq(&mut self, a: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let av = &nodes[a.0].value;
            let mut out = ws.alloc_uninit(av.rows(), 1);
            ws.backend().row_sum_sq(av, &mut out);
            out
        };
        let rg = self.rg(a);
        self.push(v, Op::RowSumSq(a), rg, None)
    }

    /// Copies the given rows into a new node; gradient scatters back.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, a: Node, indices: &[usize]) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let av = &nodes[a.0].value;
            let mut out = ws.alloc_uninit(indices.len(), av.cols());
            for (i, &idx) in indices.iter().enumerate() {
                assert!(
                    idx < av.rows(),
                    "row index {idx} out of bounds for {} rows",
                    av.rows()
                );
                out.row_mut(i).copy_from_slice(av.row(idx));
            }
            out
        };
        let rg = self.rg(a);
        self.push(v, Op::GatherRows(a, indices.to_vec()), rg, None)
    }

    /// Vertically stacks two nodes with equal column counts.
    pub fn concat_rows(&mut self, a: Node, b: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(av.cols(), bv.cols(), "concat_rows column mismatch");
            let mut out = ws.alloc_uninit(av.rows() + bv.rows(), av.cols());
            out.as_mut_slice()[..av.len()].copy_from_slice(av.as_slice());
            out.as_mut_slice()[av.len()..].copy_from_slice(bv.as_slice());
            out
        };
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatRows(a, b), rg, None)
    }

    /// Horizontally stacks two nodes with equal row counts.
    pub fn concat_cols(&mut self, a: Node, b: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
            let ca = av.cols();
            let mut out = ws.alloc_uninit(av.rows(), ca + bv.cols());
            for r in 0..av.rows() {
                out.row_mut(r)[..ca].copy_from_slice(av.row(r));
                out.row_mut(r)[ca..].copy_from_slice(bv.row(r));
            }
            out
        };
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatCols(a, b), rg, None)
    }

    /// Mean of the rows of `a` grouped by `assignments`, producing a `(k, D)`
    /// node of group centroids. Groups with no members yield a zero row.
    ///
    /// This is the differentiable prototype computation at the heart of the
    /// Calibre `L_p` regularizer: gradients on a centroid flow back equally
    /// to every member of its group.
    ///
    /// # Panics
    ///
    /// Panics if `assignments.len()` differs from the row count of `a`, or if
    /// any assignment is `>= k`.
    pub fn group_mean_rows(&mut self, a: Node, assignments: &[usize], k: usize) -> Node {
        let out = {
            let Graph { nodes, ws, .. } = self;
            let input = &nodes[a.0].value;
            assert_eq!(
                assignments.len(),
                input.rows(),
                "assignment length must match row count"
            );
            let mut counts = vec![0usize; k];
            let mut out = ws.alloc_zeros(k, input.cols());
            for (r, &g) in assignments.iter().enumerate() {
                assert!(g < k, "assignment {g} out of range for {k} groups");
                counts[g] += 1;
                for (o, &v) in out.row_mut(g).iter_mut().zip(input.row(r)) {
                    *o += v;
                }
            }
            for (g, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let inv = 1.0 / c as f32;
                    for o in out.row_mut(g) {
                        *o *= inv;
                    }
                }
            }
            out
        };
        let rg = self.rg(a);
        self.push(out, Op::GroupMeanRows(a, assignments.to_vec(), k), rg, None)
    }

    /// Row-wise dot product of two `(N, D)` nodes, producing `(N, 1)`.
    pub fn rowwise_dot(&mut self, a: Node, b: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(av.shape(), bv.shape(), "rowwise_dot shape mismatch");
            let mut out = ws.alloc_uninit(av.rows(), 1);
            for r in 0..av.rows() {
                let dot: f32 = av.row(r).iter().zip(bv.row(r)).map(|(&x, &y)| x * y).sum();
                out.set(r, 0, dot);
            }
            out
        };
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::RowwiseDot(a, b), rg, None)
    }

    /// Sum of all elements, producing a `(1, 1)` scalar node.
    pub fn sum_all(&mut self, a: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let s = ws.backend().sum(&nodes[a.0].value);
            ws.alloc_full(1, 1, s)
        };
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg, None)
    }

    /// Mean of all elements, producing a `(1, 1)` scalar node.
    pub fn mean_all(&mut self, a: Node) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let av = &nodes[a.0].value;
            let mean = if av.is_empty() {
                0.0
            } else {
                ws.backend().sum(av) / av.len() as f32
            };
            ws.alloc_full(1, 1, mean)
        };
        let rg = self.rg(a);
        self.push(v, Op::MeanAll(a), rg, None)
    }

    /// Fused mean cross-entropy between the row-softmax of `logits` and hard
    /// integer `targets`, producing a `(1, 1)` scalar node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows or any
    /// target is out of range.
    pub fn cross_entropy(&mut self, logits: Node, targets: &[usize]) -> Node {
        let (value, soft) = {
            let Graph { nodes, ws, .. } = self;
            let lv = &nodes[logits.0].value;
            assert_eq!(
                targets.len(),
                lv.rows(),
                "one target per logit row required"
            );
            for &t in targets {
                assert!(
                    t < lv.cols(),
                    "target {t} out of range for {} classes",
                    lv.cols()
                );
            }
            let mut loss = 0.0;
            let soft = pooled_row_softmax(ws, lv, |r, max, log_sum| {
                if let Some(&t) = targets.get(r) {
                    loss -= lv.get(r, t) - max - log_sum;
                }
            });
            loss /= targets.len().max(1) as f32;
            (ws.alloc_full(1, 1, loss), soft)
        };
        let rg = self.rg(logits);
        self.push(
            value,
            Op::CrossEntropy(logits, targets.to_vec()),
            rg,
            Some(soft),
        )
    }

    /// Fused mean cross-entropy between the row-softmax of `logits` and a
    /// fixed matrix of soft `targets` (each row a probability distribution),
    /// producing a `(1, 1)` scalar node. Used by SwAV-style objectives.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn cross_entropy_soft(&mut self, logits: Node, targets: Matrix) -> Node {
        let (value, soft) = {
            let Graph { nodes, ws, .. } = self;
            let lv = &nodes[logits.0].value;
            assert_eq!(
                lv.shape(),
                targets.shape(),
                "soft targets must match logits shape"
            );
            let mut loss = 0.0;
            let soft = pooled_row_softmax(ws, lv, |r, max, log_sum| {
                for (c, &v) in lv.row(r).iter().enumerate() {
                    loss -= targets.get(r, c) * (v - max - log_sum);
                }
            });
            loss /= lv.rows().max(1) as f32;
            (ws.alloc_full(1, 1, loss), soft)
        };
        let rg = self.rg(logits);
        self.push(value, Op::CrossEntropySoft(logits, targets), rg, Some(soft))
    }

    /// Overwrites the main diagonal of a square node with `value`; the
    /// gradient at the diagonal is dropped. Contrastive losses use this to
    /// exclude self-similarity from the denominator.
    ///
    /// # Panics
    ///
    /// Panics if the node is not square.
    pub fn mask_diagonal(&mut self, a: Node, value: f32) -> Node {
        let mut v = {
            let Graph { nodes, ws, .. } = self;
            let av = &nodes[a.0].value;
            assert_eq!(
                av.rows(),
                av.cols(),
                "mask_diagonal requires a square matrix"
            );
            ws.alloc_copy(av)
        };
        for i in 0..v.rows() {
            v.set(i, i, value);
        }
        let rg = self.rg(a);
        self.push(v, Op::MaskDiagonal(a, value), rg, None)
    }

    /// Extracts convolution patches from a batch of channel-last images
    /// (see [`crate::conv`] for the layout). Input `(N, H·W·C)`, output
    /// `(N·OH·OW, k·k·C)`; the backward pass scatter-adds patch gradients
    /// back to their source pixels (col2im).
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match `shape`, the kernel does
    /// not fit, or the stride is zero.
    pub fn im2col(&mut self, a: Node, shape: ImageShape, kernel: usize, stride: usize) -> Node {
        let v = crate::conv::im2col_matrix(&self.nodes[a.0].value, shape, kernel, stride);
        let rg = self.rg(a);
        self.push(v, Op::Im2Col(a, shape, kernel, stride), rg, None)
    }

    /// Reinterprets a node's row-major data with a new `(rows, cols)` shape.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, a: Node, rows: usize, cols: usize) -> Node {
        let v = {
            let Graph { nodes, ws, .. } = self;
            let value = &nodes[a.0].value;
            assert_eq!(
                value.len(),
                rows * cols,
                "reshape cannot change element count: {} -> {rows}x{cols}",
                value.len()
            );
            let mut out = ws.alloc_uninit(rows, cols);
            out.as_mut_slice().copy_from_slice(value.as_slice());
            out
        };
        let rg = self.rg(a);
        self.push(v, Op::Reshape(a), rg, None)
    }

    /// Stop-gradient: forwards the value unchanged, blocks all gradient flow.
    pub fn detach(&mut self, a: Node) -> Node {
        let v = self.copy_value(a);
        self.push(v, Op::Detach(a), false, None)
    }

    /// Runs reverse-mode differentiation from the scalar node `out`.
    ///
    /// Gradients for all nodes on the path to differentiable leaves are
    /// accumulated and readable via [`Graph::grad`]. Calling `backward` again
    /// resets previous gradients.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a `(1, 1)` scalar node.
    pub fn backward(&mut self, out: Node) {
        let span = calibre_telemetry::span("backward");
        span.add_items(self.nodes.len() as u64);
        assert_eq!(
            self.nodes[out.0].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) output node"
        );
        let Graph { nodes, grads, ws } = self;
        for g in grads.iter_mut() {
            if let Some(m) = g.take() {
                ws.reclaim(m);
            }
        }
        grads[out.0] = Some(ws.alloc_full(1, 1, 1.0));

        for id in (0..=out.0).rev() {
            if grads[id].is_none() || !nodes[id].requires_grad {
                continue;
            }
            // analyze:allow(no-expect) -- is_none() was checked two lines
            // above; `take` cannot observe None here.
            let grad = grads[id].take().expect("checked above");
            apply_backward(nodes, grads, ws, id, &grad);
            grads[id] = Some(grad);
        }
    }
}

/// Pooled elementwise combination of two equally-shaped matrices.
fn pooled_zip<F: Fn(f32, f32) -> f32>(ws: &mut Workspace, a: &Matrix, b: &Matrix, f: F) -> Matrix {
    assert_eq!(
        a.shape(),
        b.shape(),
        "elementwise op shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = ws.alloc_uninit(a.rows(), a.cols());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = f(x, y);
    }
    out
}

/// Pooled elementwise map.
fn pooled_map<F: Fn(f32) -> f32>(ws: &mut Workspace, a: &Matrix, f: F) -> Matrix {
    let mut out = ws.alloc_uninit(a.rows(), a.cols());
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o = f(x);
    }
    out
}

/// Pooled transposed copy.
fn pooled_transpose(ws: &mut Workspace, a: &Matrix) -> Matrix {
    let mut out = ws.alloc_uninit(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(c, r, a.get(r, c));
        }
    }
    out
}

/// Pooled row-softmax with the standard max-subtraction stabilization —
/// value-identical to `Matrix::row_softmax`. It hands each row's max and
/// the log of its exp sum to `row_stats(row, max, log_sum)`, so the fused
/// cross-entropies build `log_softmax = v - max - log_sum` without a second
/// pass of `exp`: the sum folds the same values in the same order as
/// `Matrix::row_log_softmax`'s, so the loss keeps its bits.
fn pooled_row_softmax(
    ws: &mut Workspace,
    a: &Matrix,
    mut row_stats: impl FnMut(usize, f32, f32),
) -> Matrix {
    let mut out = ws.alloc_copy(a);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        row_stats(r, max, sum.ln());
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Adds the gradient that `delta` computes into the slot of `n` (moving it
/// in when the slot is empty).
///
/// This is backward's one dead-gradient rule: `delta` runs only when `n`
/// requires a gradient, so no op ever computes a delta for an input that
/// would throw it away (`constant · W` skips the `dA` product, `X ·
/// constant` the `dB` one).
fn accumulate(
    nodes: &[NodeData],
    grads: &mut [Option<Matrix>],
    ws: &mut Workspace,
    n: Node,
    delta: impl FnOnce(&mut Workspace) -> Matrix,
) {
    if !nodes[n.0].requires_grad {
        return;
    }
    let delta = delta(ws);
    match &mut grads[n.0] {
        Some(g) => {
            ws.backend().add_scaled(g, &delta, 1.0);
            ws.reclaim(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Propagates `grad` (the gradient at node `id`) one op backwards,
/// accumulating into the input nodes' gradient slots.
///
/// Free function over the graph's split-borrowed parts so the op can be
/// matched by reference (no per-node `Op` clone, which used to copy the
/// index payloads of gather/group ops on every backward step).
fn apply_backward(
    nodes: &[NodeData],
    grads: &mut [Option<Matrix>],
    ws: &mut Workspace,
    id: usize,
    grad: &Matrix,
) {
    let y = &nodes[id].value;
    match &nodes[id].op {
        Op::Leaf | Op::Detach(_) => {}
        Op::MatMul(a, b) => {
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut da = ws.alloc_uninit(grad.rows(), bv.rows());
                ws.backend().matmul_nt(grad, bv, &mut da);
                da
            });
            accumulate(nodes, grads, ws, *b, |ws| {
                let mut db = ws.alloc_zeros(av.cols(), grad.cols());
                ws.backend().matmul_tn(av, grad, &mut db);
                db
            });
        }
        Op::Add(a, b) => {
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_copy(grad));
            accumulate(nodes, grads, ws, *b, |ws| ws.alloc_copy(grad));
        }
        Op::Sub(a, b) => {
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_copy(grad));
            accumulate(nodes, grads, ws, *b, |ws| pooled_map(ws, grad, |v| -v));
        }
        Op::Mul(a, b) => {
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, bv, |g, x| g * x)
            });
            accumulate(nodes, grads, ws, *b, |ws| {
                pooled_zip(ws, grad, av, |g, x| g * x)
            });
        }
        Op::Div(a, b) => {
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, bv, |g, den| g / den)
            });
            accumulate(nodes, grads, ws, *b, |ws| {
                let mut out = ws.alloc_uninit(grad.rows(), grad.cols());
                for (((o, &g), &x), &den) in out
                    .iter_mut()
                    .zip(grad.iter())
                    .zip(av.iter())
                    .zip(bv.iter())
                {
                    let num = g * x;
                    *o = -num / (den * den);
                }
                out
            });
        }
        Op::AddRow(a, row) => {
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_copy(grad));
            accumulate(nodes, grads, ws, *row, |ws| {
                let mut drow = ws.alloc_zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    for (o, &v) in drow.row_mut(0).iter_mut().zip(grad.row(r)) {
                        *o += v;
                    }
                }
                drow
            });
        }
        Op::AddCol(a, col) => {
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_copy(grad));
            accumulate(nodes, grads, ws, *col, |ws| {
                let mut dcol = ws.alloc_uninit(grad.rows(), 1);
                for r in 0..grad.rows() {
                    let s: f32 = grad.row(r).iter().sum();
                    dcol.set(r, 0, s);
                }
                dcol
            });
        }
        Op::Scale(a, s) => {
            let s = *s;
            accumulate(nodes, grads, ws, *a, |ws| pooled_map(ws, grad, |v| v * s));
        }
        Op::AddScalar(a, _) => {
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_copy(grad));
        }
        Op::Relu(a) => {
            let x = &nodes[a.0].value;
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, x, |g, v| g * if v > 0.0 { 1.0 } else { 0.0 })
            });
        }
        Op::Tanh(a) => {
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, y, |g, t| g * (1.0 - t * t))
            });
        }
        Op::Exp(a) => {
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, y, |g, e| g * e)
            });
        }
        Op::Log(a) => {
            let x = &nodes[a.0].value;
            accumulate(nodes, grads, ws, *a, |ws| {
                pooled_zip(ws, grad, x, |g, v| g / v.max(1e-12))
            });
        }
        Op::Transpose(a) => {
            accumulate(nodes, grads, ws, *a, |ws| pooled_transpose(ws, grad));
        }
        Op::RowL2Normalize(a) => {
            let x = &nodes[a.0].value;
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_uninit(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let norm: f32 = x.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                    if norm <= 1e-12 {
                        // Forward passed the row through unchanged.
                        d.row_mut(r).copy_from_slice(grad.row(r));
                        continue;
                    }
                    let g_dot_y: f32 = grad
                        .row(r)
                        .iter()
                        .zip(y.row(r))
                        .map(|(&g, &yy)| g * yy)
                        .sum();
                    for c in 0..x.cols() {
                        let v = (grad.get(r, c) - y.get(r, c) * g_dot_y) / norm;
                        d.set(r, c, v);
                    }
                }
                d
            });
        }
        Op::LayerNorm(a) => {
            // With y = (x − μ)/σ: dx = (g − mean(g) − y·mean(g⊙y)) / σ.
            let x = &nodes[a.0].value;
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_uninit(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let n = x.cols() as f32;
                    let mean: f32 = x.row(r).iter().sum::<f32>() / n;
                    let var: f32 = x
                        .row(r)
                        .iter()
                        .map(|v| (v - mean) * (v - mean))
                        .sum::<f32>()
                        / n;
                    let inv_std = 1.0 / (var + 1e-5).sqrt();
                    let g_mean: f32 = grad.row(r).iter().sum::<f32>() / n;
                    let gy_mean: f32 = grad
                        .row(r)
                        .iter()
                        .zip(y.row(r))
                        .map(|(&g, &yy)| g * yy)
                        .sum::<f32>()
                        / n;
                    for c in 0..x.cols() {
                        let v = (grad.get(r, c) - g_mean - y.get(r, c) * gy_mean) * inv_std;
                        d.set(r, c, v);
                    }
                }
                d
            });
        }
        Op::RowSumSq(a) => {
            let x = &nodes[a.0].value;
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_uninit(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let g = grad.get(r, 0);
                    for c in 0..x.cols() {
                        d.set(r, c, 2.0 * x.get(r, c) * g);
                    }
                }
                d
            });
        }
        Op::GatherRows(a, indices) => {
            let rows = nodes[a.0].value.rows();
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_zeros(rows, grad.cols());
                for (i, &idx) in indices.iter().enumerate() {
                    for (o, &v) in d.row_mut(idx).iter_mut().zip(grad.row(i)) {
                        *o += v;
                    }
                }
                d
            });
        }
        Op::ConcatRows(a, b) => {
            let (ra, cols) = (nodes[a.0].value.rows(), grad.cols());
            let (head, tail) = grad.as_slice().split_at(ra * cols);
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut da = ws.alloc_uninit(ra, cols);
                da.as_mut_slice().copy_from_slice(head);
                da
            });
            accumulate(nodes, grads, ws, *b, |ws| {
                let mut db = ws.alloc_uninit(grad.rows() - ra, cols);
                db.as_mut_slice().copy_from_slice(tail);
                db
            });
        }
        Op::ConcatCols(a, b) => {
            let ca = nodes[a.0].value.cols();
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut da = ws.alloc_uninit(grad.rows(), ca);
                for r in 0..grad.rows() {
                    da.row_mut(r).copy_from_slice(&grad.row(r)[..ca]);
                }
                da
            });
            accumulate(nodes, grads, ws, *b, |ws| {
                let mut db = ws.alloc_uninit(grad.rows(), grad.cols() - ca);
                for r in 0..grad.rows() {
                    db.row_mut(r).copy_from_slice(&grad.row(r)[ca..]);
                }
                db
            });
        }
        Op::GroupMeanRows(a, assignments, k) => {
            let rows = nodes[a.0].value.rows();
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut counts = vec![0usize; *k];
                for &g in assignments {
                    counts[g] += 1;
                }
                let mut d = ws.alloc_zeros(rows, grad.cols());
                for (r, &g) in assignments.iter().enumerate() {
                    let inv = 1.0 / counts[g] as f32;
                    for (o, &v) in d.row_mut(r).iter_mut().zip(grad.row(g)) {
                        *o += v * inv;
                    }
                }
                d
            });
        }
        Op::RowwiseDot(a, b) => {
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            // d(a⊙b summed per row)/da = g·b, and symmetrically for b.
            let scaled_rows = |ws: &mut Workspace, other: &Matrix| {
                let mut d = ws.alloc_uninit(other.rows(), other.cols());
                for r in 0..other.rows() {
                    let g = grad.get(r, 0);
                    for c in 0..other.cols() {
                        d.set(r, c, g * other.get(r, c));
                    }
                }
                d
            };
            accumulate(nodes, grads, ws, *a, |ws| scaled_rows(ws, bv));
            accumulate(nodes, grads, ws, *b, |ws| scaled_rows(ws, av));
        }
        Op::SumAll(a) => {
            let (r, c) = nodes[a.0].value.shape();
            let s = grad.get(0, 0);
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_full(r, c, s));
        }
        Op::MeanAll(a) => {
            let (r, c) = nodes[a.0].value.shape();
            let s = grad.get(0, 0) / (r * c).max(1) as f32;
            accumulate(nodes, grads, ws, *a, |ws| ws.alloc_full(r, c, s));
        }
        Op::CrossEntropy(logits, targets) => {
            // analyze:allow(no-expect) -- forward always caches the
            // softmax in aux for CrossEntropy nodes.
            let soft = nodes[id].aux.as_ref().expect("softmax cached in forward");
            accumulate(nodes, grads, ws, *logits, |ws| {
                let mut d = ws.alloc_copy(soft);
                let g = grad.get(0, 0) / targets.len().max(1) as f32;
                for (r, &t) in targets.iter().enumerate() {
                    let v = d.get(r, t) - 1.0;
                    d.set(r, t, v);
                }
                for v in d.iter_mut() {
                    *v *= g;
                }
                d
            });
        }
        Op::CrossEntropySoft(logits, targets) => {
            // analyze:allow(no-expect) -- forward always caches the
            // softmax in aux for CrossEntropySoft nodes.
            let soft = nodes[id].aux.as_ref().expect("softmax cached in forward");
            accumulate(nodes, grads, ws, *logits, |ws| {
                let g = grad.get(0, 0) / targets.rows().max(1) as f32;
                // Per-row gradient: (sum_k t_k) * softmax - t. For probability
                // rows the row sum is 1 and this reduces to softmax - t.
                let mut d = ws.alloc_uninit(soft.rows(), soft.cols());
                for r in 0..soft.rows() {
                    let t_sum: f32 = targets.row(r).iter().sum();
                    for c in 0..soft.cols() {
                        d.set(r, c, t_sum * soft.get(r, c) - targets.get(r, c));
                    }
                }
                for v in d.iter_mut() {
                    *v *= g;
                }
                d
            });
        }
        Op::Im2Col(a, shape, kernel, stride) => {
            let rows = nodes[a.0].value.rows();
            accumulate(nodes, grads, ws, *a, |_| {
                crate::conv::col2im_matrix(grad, rows, *shape, *kernel, *stride)
            });
        }
        Op::Reshape(a) => {
            let (r, c) = nodes[a.0].value.shape();
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_uninit(r, c);
                d.as_mut_slice().copy_from_slice(grad.as_slice());
                d
            });
        }
        Op::MaskDiagonal(a, _) => {
            accumulate(nodes, grads, ws, *a, |ws| {
                let mut d = ws.alloc_copy(grad);
                for i in 0..d.rows() {
                    d.set(i, i, 0.0);
                }
                d
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(g: &Graph, n: Node) -> f32 {
        g.value(n).get(0, 0)
    }

    #[test]
    fn constant_nodes_do_not_track_gradients() {
        let mut g = Graph::new();
        let c = g.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let y = g.mean_all(c);
        g.backward(y);
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn matmul_backward_matches_analytic() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![5.0], vec![6.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // d(sum(A B))/dA = 1 Bᵀ broadcast over rows; /dB = Aᵀ 1.
        assert_eq!(g.grad(a).unwrap().row(0), &[5.0, 6.0]);
        assert_eq!(g.grad(a).unwrap().row(1), &[5.0, 6.0]);
        assert_eq!(g.grad(b).unwrap().col(0), vec![4.0, 6.0]);
    }

    #[test]
    fn add_sub_mul_div_backward() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let b = g.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let s = g.add(a, b);
        let d = g.sub(s, b); // = a
        let m = g.mul(d, b); // = a*b
        let q = g.div(m, b); // = a
        let loss = g.sum_all(q);
        g.backward(loss);
        assert!((g.grad(a).unwrap().get(0, 0) - 1.0).abs() < 1e-5);
        // b cancels out overall: gradient ≈ 0
        assert!(g.grad(b).unwrap().get(0, 0).abs() < 1e-5);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![-1.0, 2.0]]));
        let y = g.relu(x);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().row(0), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_backward_uses_output() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 1, vec![0.5]));
        let y = g.tanh(x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let t = 0.5f32.tanh();
        assert!((g.grad(x).unwrap().get(0, 0) - (1.0 - t * t)).abs() < 1e-6);
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let d = g.detach(x);
        let y = g.mul(d, d);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(x).is_none(), "gradient must not flow through detach");
    }

    #[test]
    fn mul_with_shared_input_doubles_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let y = g.mul(x, x); // x²
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!((g.grad(x).unwrap().get(0, 0) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_forward_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0]]));
        let loss = g.cross_entropy(logits, &[0, 1]);
        let expected = {
            let m = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0]]).row_log_softmax();
            -(m.get(0, 0) + m.get(1, 1)) / 2.0
        };
        assert!((scalar(&g, loss) - expected).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[vec![1.0, -1.0]]));
        let loss = g.cross_entropy(logits, &[0]);
        g.backward(loss);
        let soft = Matrix::from_rows(&[vec![1.0, -1.0]]).row_softmax();
        let grad = g.grad(logits).unwrap();
        assert!((grad.get(0, 0) - (soft.get(0, 0) - 1.0)).abs() < 1e-6);
        assert!((grad.get(0, 1) - soft.get(0, 1)).abs() < 1e-6);
    }

    #[test]
    fn soft_cross_entropy_matches_hard_when_targets_are_onehot() {
        let logits_m = Matrix::from_rows(&[vec![0.5, -0.2, 1.0], vec![0.1, 0.1, -2.0]]);
        let mut g1 = Graph::new();
        let l1 = g1.leaf(logits_m.clone());
        let hard = g1.cross_entropy(l1, &[2, 0]);
        g1.backward(hard);

        let mut g2 = Graph::new();
        let l2 = g2.leaf(logits_m);
        let onehot = Matrix::from_rows(&[vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 0.0]]);
        let soft = g2.cross_entropy_soft(l2, onehot);
        g2.backward(soft);

        assert!((scalar(&g1, hard) - scalar(&g2, soft)).abs() < 1e-6);
        let ga = g1.grad(l1).unwrap();
        let gb = g2.grad(l2).unwrap();
        for (a, b) in ga.iter().zip(gb.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mask_diagonal_sets_value_and_blocks_diag_grad() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let m = g.mask_diagonal(x, -99.0);
        assert_eq!(g.value(m).get(0, 0), -99.0);
        assert_eq!(g.value(m).get(1, 1), -99.0);
        assert_eq!(g.value(m).get(0, 1), 2.0);
        let loss = g.sum_all(m);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert_eq!(grad.get(0, 0), 0.0);
        assert_eq!(grad.get(1, 1), 0.0);
        assert_eq!(grad.get(0, 1), 1.0);
    }

    #[test]
    fn group_mean_rows_forward_and_backward() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![3.0, 0.0],
            vec![10.0, 2.0],
        ]));
        let centroids = g.group_mean_rows(x, &[0, 0, 1], 2);
        assert_eq!(g.value(centroids).row(0), &[2.0, 0.0]);
        assert_eq!(g.value(centroids).row(1), &[10.0, 2.0]);
        let loss = g.sum_all(centroids);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        // members of group 0 each get 1/2, member of group 1 gets 1
        assert_eq!(grad.row(0), &[0.5, 0.5]);
        assert_eq!(grad.row(1), &[0.5, 0.5]);
        assert_eq!(grad.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn group_mean_rows_with_empty_group_yields_zero_row() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        let c = g.group_mean_rows(x, &[0, 0], 3);
        assert_eq!(g.value(c).row(1), &[0.0]);
        assert_eq!(g.value(c).row(2), &[0.0]);
    }

    #[test]
    fn row_l2_normalize_output_grad_is_tangent() {
        // Gradient of a normalized vector must be orthogonal to the output
        // direction when upstream gradient is the output itself (norm is
        // constant along the ray).
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![3.0, 4.0]]));
        let y = g.row_l2_normalize(x);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq); // = ||y||² = 1 identically
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert!(
            grad.max_abs() < 1e-6,
            "norm of a normalized row is constant; grad {grad:?}"
        );
    }

    #[test]
    fn gather_concat_roundtrip_distributes_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let top = g.gather_rows(x, &[0, 1]);
        let bottom = g.gather_rows(x, &[2, 2]);
        let cat = g.concat_rows(top, bottom);
        let loss = g.sum_all(cat);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        assert_eq!(grad.col(0), vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![2.0, 3.0]]));
        let cat = g.concat_cols(a, b);
        let scaled = g.scale(cat, 2.0);
        let loss = g.sum_all(scaled);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().row(0), &[2.0]);
        assert_eq!(g.grad(b).unwrap().row(0), &[2.0, 2.0]);
    }

    #[test]
    fn rowwise_dot_backward() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![3.0, 4.0]]));
        let d = g.rowwise_dot(a, b);
        let loss = g.sum_all(d);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().row(0), &[3.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().row(0), &[1.0, 2.0]);
    }

    #[test]
    fn mean_all_scales_gradient_by_count() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let loss = g.mean_all(x);
        g.backward(loss);
        assert!(g.grad(x).unwrap().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn add_row_and_add_col_backward() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 3));
        let row = g.leaf(Matrix::row_vector(&[1.0, 2.0, 3.0]));
        let col = g.leaf(Matrix::col_vector(&[5.0, 6.0]));
        let a = g.add_row(x, row);
        let b = g.add_col(a, col);
        let loss = g.sum_all(b);
        g.backward(loss);
        assert_eq!(g.grad(row).unwrap().row(0), &[2.0, 2.0, 2.0]);
        assert_eq!(g.grad(col).unwrap().col(0), vec![3.0, 3.0]);
        assert!(g.grad(x).unwrap().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn layer_norm_rows_have_zero_mean_unit_variance() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[
            vec![1.0, 3.0, 5.0],
            vec![-2.0, 0.0, 2.0],
        ]));
        let y = g.layer_norm(x);
        for r in 0..2 {
            let row = g.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 3.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_gradient_is_orthogonal_to_constants() {
        // Adding a constant to a row does not change layer_norm output, so
        // the gradient must sum to ~0 per row.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![0.5, -1.0, 2.0, 0.3]]));
        let y = g.layer_norm(x);
        let w = g.constant(Matrix::from_rows(&[
            vec![1.0],
            vec![-2.0],
            vec![0.5],
            vec![3.0],
        ]));
        let out = g.matmul(y, w);
        let loss = g.sum_all(out);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        let row_sum: f32 = grad.row(0).iter().sum();
        assert!(row_sum.abs() < 1e-4, "row gradient sum {row_sum}");
    }

    #[test]
    fn backward_twice_resets_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(1, 1, vec![1.0]));
        let y = g.scale(x, 3.0);
        let loss = g.sum_all(y);
        g.backward(loss);
        g.backward(loss);
        assert!(
            (g.grad(x).unwrap().get(0, 0) - 3.0).abs() < 1e-6,
            "grad must not double-accumulate"
        );
    }

    #[test]
    fn reset_recycles_buffers_and_preserves_results() {
        let x_val = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]);
        let w_val = Matrix::from_rows(&[vec![0.3, 0.7], vec![-0.4, 0.1]]);
        let run = |g: &mut Graph| -> (f32, Matrix) {
            let x = g.constant_from(&x_val);
            let w = g.leaf_from(&w_val);
            let h = g.matmul(x, w);
            let act = g.relu(h);
            let loss = g.mean_all(act);
            g.backward(loss);
            (g.value(loss).get(0, 0), g.grad(w).unwrap().clone())
        };

        let mut fresh = Graph::new();
        let (loss_fresh, grad_fresh) = run(&mut fresh);

        let mut recycled = Graph::new();
        let mut loss_rec = 0.0;
        let mut grad_rec = Matrix::zeros(0, 0);
        for _ in 0..4 {
            recycled.reset();
            let (l, gr) = run(&mut recycled);
            loss_rec = l;
            grad_rec = gr;
        }
        assert_eq!(loss_fresh.to_bits(), loss_rec.to_bits());
        assert_eq!(grad_fresh, grad_rec, "recycled tape must be bit-identical");
        let stats = recycled.pool_stats();
        assert!(stats.hits > 0, "later steps must reuse pooled buffers");
    }

    #[test]
    fn leaf_from_matches_leaf() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let mut g = Graph::new();
        let a = g.leaf(m.clone());
        let b = g.leaf_from(&m);
        assert_eq!(g.value(a), g.value(b));
        let c = g.constant_from(&m);
        assert_eq!(g.value(c), &m);
    }
}
