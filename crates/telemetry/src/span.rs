//! RAII span guards with thread-local span stacks — the tracing substrate
//! underneath the profiler ([`crate::profile`]) and the Perfetto exporter
//! ([`crate::trace`]).
//!
//! A *span* is a named region of wall-clock time. Spans nest: entering a
//! span while another is open makes it a child, so an instrumented Calibre
//! round produces paths like `round > client > ssl_forward > matmul`. Every
//! span can carry two counters (items processed, bytes moved) that
//! consumers aggregate alongside the timings.
//!
//! # Cost model
//!
//! When no collector is installed ([`install_collector`] has not run, or
//! [`uninstall_collector`] ran), [`span`] is one relaxed atomic load and the
//! returned guard's drop is a branch — the instrumented hot paths of the
//! `tensor`/`ssl`/`cluster` crates pay effectively nothing. When a collector
//! is installed, entering pushes a frame onto a thread-local stack and
//! closing pops it, computes total/self time, and hands a [`ClosedSpan`] to
//! the installed [`SpanSink`].
//!
//! # Unwinding and out-of-order drops
//!
//! Guards are index-addressed, not pointer-addressed: a guard dropped while
//! deeper spans are still open closes those children first, and a guard
//! whose frame was already closed by an ancestor is a no-op. Combined with
//! RAII this means the thread-local stack is balanced under arbitrary drop
//! orders *and* under panics caught with `std::panic::catch_unwind` — the
//! proptest suite in `tests/span_invariants.rs` drives random interleavings
//! of both.
//!
//! ```
//! use calibre_telemetry::span;
//!
//! // No collector installed: spans are free and guards are inert.
//! let outer = span::span("round");
//! {
//!     let inner = span::span("client");
//!     inner.add_items(3);
//! } // inner closes first
//! drop(outer);
//! assert_eq!(span::current_depth(), 0);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A span that finished: name, position in the span tree, timings and
/// counters. Handed to the installed [`SpanSink`] when the span closes.
#[derive(Debug, Clone)]
pub struct ClosedSpan<'a> {
    /// Full path from the outermost open span to this one (inclusive); the
    /// last element is this span's name.
    pub path: &'a [&'static str],
    /// Start time in microseconds since the collector was installed.
    pub start_us: f64,
    /// Total wall-clock duration in microseconds.
    pub dur_us: f64,
    /// Self time: total minus time spent in child spans, in microseconds.
    pub self_us: f64,
    /// Stable id of the thread the span ran on (assigned per thread,
    /// starting at 1).
    pub tid: u64,
    /// Items-processed counter accumulated via [`SpanGuard::add_items`].
    pub items: u64,
    /// Bytes-moved counter accumulated via [`SpanGuard::add_bytes`].
    pub bytes: u64,
}

impl ClosedSpan<'_> {
    /// The span's own name (last path element).
    pub fn name(&self) -> &'static str {
        self.path.last().copied().unwrap_or("")
    }
}

/// A consumer of closed spans. Implementations must be `Send + Sync`:
/// spans close on whatever thread ran them, including the federated
/// runtime's worker threads.
pub trait SpanSink: Send + Sync {
    /// Called once per span, when it closes.
    fn span_closed(&self, span: &ClosedSpan<'_>);
}

/// Broadcasts every closed span to several sinks — used by the bench
/// harness to feed the profiler and the trace exporter from one run.
#[derive(Default)]
pub struct SpanFanout {
    sinks: Vec<Arc<dyn SpanSink>>,
}

impl SpanFanout {
    /// Creates an empty fanout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink to the broadcast set.
    pub fn with(mut self, sink: Arc<dyn SpanSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl SpanSink for SpanFanout {
    fn span_closed(&self, span: &ClosedSpan<'_>) {
        for sink in &self.sinks {
            sink.span_closed(span);
        }
    }
}

struct Collector {
    epoch: Instant,
    sink: Arc<dyn SpanSink>,
}

/// Fast path: instrumented code checks this before touching anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Collector>> = RwLock::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Installs `sink` as the process-wide span collector, replacing any
/// previous one. Spans entered from this point on are reported to it.
///
/// Spans that are already open when the collector is installed will report
/// with their start clamped to the install instant.
pub fn install_collector(sink: Arc<dyn SpanSink>) {
    let mut slot = COLLECTOR.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(Collector {
        epoch: Instant::now(),
        sink,
    });
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed collector; subsequent spans are free no-ops.
/// Spans still open keep their frames and close silently.
pub fn uninstall_collector() {
    let mut slot = COLLECTOR.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Release);
    *slot = None;
}

/// Whether a collector is currently installed.
pub fn collector_installed() -> bool {
    ENABLED.load(Ordering::Acquire)
}

struct Frame {
    name: &'static str,
    start: Instant,
    child: Duration,
    items: u64,
    bytes: u64,
}

struct SpanStack {
    frames: Vec<Frame>,
    tid: u64,
}

thread_local! {
    static STACK: RefCell<SpanStack> = RefCell::new(SpanStack {
        frames: Vec::with_capacity(16),
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
    });
}

/// Depth of the current thread's open-span stack. Test hook: instrumented
/// code should always return this to its previous value.
pub fn current_depth() -> usize {
    STACK.with(|s| s.borrow().frames.len())
}

/// RAII guard for one open span; closing (dropping) it reports the span to
/// the installed collector. Created by [`span`]. Not `Send`: a span
/// belongs to the thread that opened it.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    /// Index of this span's frame in the thread-local stack, or `usize::MAX`
    /// for an inert guard (no collector installed at entry).
    depth: usize,
    /// Keeps the guard `!Send + !Sync`.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a span named `name`, nested under the thread's innermost open
/// span. The span closes when the returned guard drops.
///
/// With no collector installed this is one atomic load and the guard is
/// inert.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            depth: usize::MAX,
            _not_send: std::marker::PhantomData,
        };
    }
    let depth = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.frames.push(Frame {
            name,
            start: Instant::now(),
            child: Duration::ZERO,
            items: 0,
            bytes: 0,
        });
        stack.frames.len() - 1
    });
    SpanGuard {
        depth,
        _not_send: std::marker::PhantomData,
    }
}

impl SpanGuard {
    /// Whether this guard refers to a live frame (a collector was installed
    /// when the span was entered).
    pub fn is_active(&self) -> bool {
        self.depth != usize::MAX
    }

    /// Adds to the span's items-processed counter.
    pub fn add_items(&self, n: u64) {
        if !self.is_active() {
            return;
        }
        STACK.with(|s| {
            if let Some(f) = s.borrow_mut().frames.get_mut(self.depth) {
                f.items = f.items.saturating_add(n);
            }
        });
    }

    /// Adds to the span's bytes-moved counter.
    pub fn add_bytes(&self, n: u64) {
        if !self.is_active() {
            return;
        }
        STACK.with(|s| {
            if let Some(f) = s.borrow_mut().frames.get_mut(self.depth) {
                f.bytes = f.bytes.saturating_add(n);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == usize::MAX {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Already closed by an ancestor guard that dropped before us.
            if stack.frames.len() <= self.depth {
                return;
            }
            let collector = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
            // Close stragglers above us first (out-of-order drops), then our
            // own frame, so the stack is balanced under any drop order.
            while stack.frames.len() > self.depth {
                close_top(&mut stack, collector.as_ref());
            }
        });
    }
}

/// Pops the top frame, folds its duration into its parent's child time, and
/// reports it to `collector` (if one is installed).
fn close_top(stack: &mut SpanStack, collector: Option<&Collector>) {
    let frame = stack
        .frames
        .pop()
        // analyze:allow(no-expect) -- callers check the stack is non-empty;
        // an unbalanced close is a bug worth a loud panic in the tracer.
        .expect("close_top requires an open frame");
    let dur = frame.start.elapsed();
    if let Some(parent) = stack.frames.last_mut() {
        parent.child += dur;
    }
    let Some(collector) = collector else { return };
    let self_time = dur.saturating_sub(frame.child);
    // `saturating_duration_since`: the span may predate the collector.
    let start = frame
        .start
        .saturating_duration_since(collector.epoch)
        .as_secs_f64()
        * 1e6;
    let mut path: Vec<&'static str> = Vec::with_capacity(stack.frames.len() + 1);
    path.extend(stack.frames.iter().map(|f| f.name));
    path.push(frame.name);
    collector.sink.span_closed(&ClosedSpan {
        path: &path,
        start_us: start,
        dur_us: dur.as_secs_f64() * 1e6,
        self_us: self_time.as_secs_f64() * 1e6,
        tid: stack.tid,
        items: frame.items,
        bytes: frame.bytes,
    });
}

#[cfg(test)]
pub(crate) mod test_support {
    /// Serializes tests that install the process-wide collector.
    pub static COLLECTOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}

#[cfg(test)]
mod tests {
    use super::test_support::COLLECTOR_LOCK;
    use super::*;
    use parking_lot::Mutex;

    /// (path, tid, items, bytes) of one closed span.
    type ClosedRecord = (Vec<&'static str>, u64, u64, u64);

    /// Records a [`ClosedRecord`] per closed span.
    #[derive(Default)]
    struct MemorySink {
        closed: Mutex<Vec<ClosedRecord>>,
    }

    impl SpanSink for MemorySink {
        fn span_closed(&self, span: &ClosedSpan<'_>) {
            assert!(span.dur_us >= span.self_us);
            self.closed
                .lock()
                .push((span.path.to_vec(), span.tid, span.items, span.bytes));
        }
    }

    #[test]
    fn spans_without_collector_are_inert() {
        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall_collector();
        let g = span("free");
        assert!(!g.is_active());
        g.add_items(5);
        drop(g);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn nested_spans_report_full_paths_in_close_order() {
        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::default());
        install_collector(sink.clone());
        {
            let outer = span("round");
            {
                let inner = span("client");
                inner.add_items(2);
                inner.add_bytes(64);
            }
            drop(outer);
        }
        uninstall_collector();
        let closed = sink.closed.lock();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, vec!["round", "client"]);
        assert_eq!(closed[1].0, vec!["round"]);
        assert_eq!(closed[0].2, 2);
        assert_eq!(closed[0].3, 64);
        assert_eq!(closed[0].1, closed[1].1, "same thread, same tid");
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn out_of_order_drop_closes_children_first() {
        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::default());
        install_collector(sink.clone());
        let a = span("a");
        let b = span("b");
        drop(a); // closes b then a
        drop(b); // frame already gone: no-op
        uninstall_collector();
        let closed = sink.closed.lock();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, vec!["a", "b"]);
        assert_eq!(closed[1].0, vec!["a"]);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn panics_unwind_spans_cleanly() {
        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::default());
        install_collector(sink.clone());
        let result = std::panic::catch_unwind(|| {
            let _outer = span("outer");
            let _inner = span("inner");
            panic!("boom");
        });
        assert!(result.is_err());
        uninstall_collector();
        assert_eq!(current_depth(), 0);
        assert_eq!(sink.closed.lock().len(), 2);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _lock = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::default());
        install_collector(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span("worker");
                });
            }
        });
        uninstall_collector();
        let closed = sink.closed.lock();
        let tids: std::collections::HashSet<u64> = closed.iter().map(|c| c.1).collect();
        assert_eq!(closed.len(), 4);
        assert_eq!(tids.len(), 4, "each thread has its own tid");
    }
}
