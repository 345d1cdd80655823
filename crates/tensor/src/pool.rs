//! Buffer recycling for the training hot path.
//!
//! A fresh [`crate::Graph`] allocates a new `Vec<f32>` for every op output,
//! every cached softmax and every gradient — across a local update of E
//! epochs × B batches that is thousands of short-lived heap allocations per
//! client per round. The types here let one tape be recycled across steps:
//!
//! - [`BufferPool`] — size-keyed free lists of raw `f32` storage with
//!   checkout/hit/miss counters.
//! - [`Workspace`] — a pool plus the [`Backend`] the graph's kernels
//!   dispatch through; owned by each `Graph`.
//! - [`StepArena`] — the step-loop handle: `take()` a graph, build and
//!   differentiate the step on it, `put()` it back (which resets the tape
//!   and reclaims every buffer into the pool).
//!
//! After the first step of a loop has populated the free lists, subsequent
//! steps of the same shapes are served almost entirely from the pool — the
//! arena tests assert a ≥5× hit:miss ratio, and the local-update loops
//! report the counters through the `arena` telemetry span.

use crate::backend::{Backend, Scalar};
use crate::{Graph, Matrix};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters describing pool behaviour since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (hits + misses).
    pub checkouts: u64,
    /// Checkouts served from a free list (no heap allocation).
    pub hits: u64,
    /// Checkouts that had to allocate fresh storage.
    pub misses: u64,
    /// Total bytes served from recycled buffers.
    pub recycled_bytes: u64,
}

/// Size-keyed free lists of `f32` buffers.
///
/// Buffers are keyed by exact element count: training steps repeat the same
/// shapes every iteration, so exact-size reuse hits ~100% from the second
/// step on without any wasted slack.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Checks out a buffer of exactly `len` elements. Contents are
    /// unspecified (recycled buffers keep stale values); callers either
    /// overwrite fully or use [`BufferPool::checkout_zeroed`].
    pub fn checkout(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        self.stats.checkouts += 1;
        if let Some(buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.stats.hits += 1;
            self.stats.recycled_bytes += (len * std::mem::size_of::<f32>()) as u64;
            buf
        } else {
            self.stats.misses += 1;
            vec![0.0; len]
        }
    }

    /// Checks out a buffer of `len` zeros.
    pub fn checkout_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.checkout(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        if !buf.is_empty() {
            self.free.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Counters since creation.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Drops all pooled buffers (counters are kept).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

/// The execution context of one tape: the [`Backend`] its kernels dispatch
/// through plus the [`BufferPool`] its op outputs are drawn from.
///
/// Each `Graph` owns a workspace, so parallel client threads in the
/// federated runtime each work against private pools and never contend.
#[derive(Debug)]
pub struct Workspace {
    backend: Arc<dyn Backend>,
    pool: BufferPool,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// A workspace on the [`Scalar`] backend.
    pub fn new() -> Self {
        Workspace::with_backend(Arc::new(Scalar))
    }

    /// A workspace on an explicit backend.
    pub fn with_backend(backend: Arc<dyn Backend>) -> Self {
        Workspace {
            backend,
            pool: BufferPool::new(),
        }
    }

    /// The backend kernels dispatch through.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Pool counters since creation.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A pooled `(rows, cols)` matrix of zeros.
    pub fn alloc_zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.pool.checkout_zeroed(rows * cols))
    }

    /// A pooled `(rows, cols)` matrix with *unspecified* contents (recycled
    /// buffers keep stale values). Only for kernels that overwrite every
    /// element before reading.
    pub fn alloc_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.pool.checkout(rows * cols))
    }

    /// A pooled `(rows, cols)` matrix filled with `value`.
    pub fn alloc_full(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        let mut buf = self.pool.checkout(rows * cols);
        buf.fill(value);
        Matrix::from_vec(rows, cols, buf)
    }

    /// A pooled copy of `src`.
    pub fn alloc_copy(&mut self, src: &Matrix) -> Matrix {
        let mut buf = self.pool.checkout(src.len());
        buf.copy_from_slice(src.as_slice());
        Matrix::from_vec(src.rows(), src.cols(), buf)
    }

    /// Returns a matrix's storage to the pool.
    pub fn reclaim(&mut self, m: Matrix) {
        self.pool.give(m.into_vec());
    }
}

/// Recycles one [`Graph`] across the steps of a training loop.
///
/// # Examples
///
/// ```
/// use calibre_tensor::pool::StepArena;
/// use calibre_tensor::Matrix;
///
/// let mut arena = StepArena::new();
/// for step in 0..3 {
///     let mut g = arena.take();
///     let x = g.leaf(Matrix::full(2, 2, step as f32));
///     let loss = g.mean_all(x);
///     g.backward(loss);
///     arena.put(g);
/// }
/// let stats = arena.stats().unwrap();
/// assert!(stats.hits > 0, "later steps reuse the first step's buffers");
/// ```
#[derive(Debug, Default)]
pub struct StepArena {
    slot: Option<Graph>,
}

impl StepArena {
    /// An arena whose first [`StepArena::take`] builds a graph on a fresh
    /// [`Workspace`].
    pub fn new() -> Self {
        StepArena { slot: None }
    }

    /// An arena seeded with a graph on an explicit workspace.
    pub fn with_workspace(ws: Workspace) -> Self {
        StepArena {
            slot: Some(Graph::with_workspace(ws)),
        }
    }

    /// Takes the recycled graph out (or creates a fresh one on first use).
    pub fn take(&mut self) -> Graph {
        self.slot.take().unwrap_or_default()
    }

    /// Resets a graph (reclaiming every buffer into its pool) and stores it
    /// for the next [`StepArena::take`].
    pub fn put(&mut self, mut g: Graph) {
        g.reset();
        self.slot = Some(g);
    }

    /// Pool counters of the stored graph; `None` while a graph is checked
    /// out (or before first use).
    pub fn stats(&self) -> Option<PoolStats> {
        self.slot.as_ref().map(|g| g.pool_stats())
    }
}

/// Reports arena pool counters through the `arena` telemetry span so the
/// allocation behaviour of a local update shows up in profiles: `items` is
/// the number of checkouts, `bytes` the bytes served from recycled buffers.
pub fn report_arena_stats(arena: &StepArena) {
    if let Some(stats) = arena.stats() {
        let span = calibre_telemetry::span("arena");
        span.add_items(stats.checkouts);
        span.add_bytes(stats.recycled_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_miss_then_hit() {
        let mut pool = BufferPool::new();
        let a = pool.checkout_zeroed(16);
        assert_eq!(pool.stats().misses, 1);
        pool.give(a);
        let b = pool.checkout_zeroed(16);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&v| v == 0.0));
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.recycled_bytes, 64);
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let mut pool = BufferPool::new();
        pool.give(vec![1.0; 8]);
        let b = pool.checkout(4);
        assert_eq!(b.len(), 4);
        assert_eq!(pool.stats().misses, 1, "8-element buffer cannot serve 4");
    }

    #[test]
    fn zero_length_checkouts_bypass_counters() {
        let mut pool = BufferPool::new();
        let b = pool.checkout(0);
        assert!(b.is_empty());
        pool.give(b);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn workspace_alloc_shapes_and_reclaim() {
        let mut ws = Workspace::new();
        let z = ws.alloc_zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        let f = ws.alloc_full(1, 4, 2.5);
        assert!(f.iter().all(|&v| v == 2.5));
        let c = ws.alloc_copy(&f);
        assert_eq!(c, f);
        ws.reclaim(z);
        ws.reclaim(f);
        ws.reclaim(c);
        let again = ws.alloc_zeros(2, 3);
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffer re-zeroed");
        assert!(ws.pool_stats().hits >= 1);
    }

    #[test]
    fn arena_steps_hit_the_pool_after_warmup() {
        let mut arena = StepArena::new();
        for _ in 0..8 {
            let mut g = arena.take();
            let x = g.leaf(Matrix::full(4, 4, 1.0));
            let y = g.relu(x);
            let loss = g.mean_all(y);
            g.backward(loss);
            arena.put(g);
        }
        let stats = arena.stats().expect("graph stored");
        assert!(
            stats.hits >= 5 * stats.misses,
            "expected ≥5× hit:miss after 8 identical steps, got {stats:?}"
        );
    }
}
