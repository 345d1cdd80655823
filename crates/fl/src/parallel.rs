//! Parallel execution of independent client updates and of the server's
//! per-coordinate aggregation work.
//!
//! Within a federated round the selected clients are independent, so their
//! local updates run on `std::thread` scoped threads. The helpers preserve
//! input order in their output, which the aggregation code relies on. The
//! robust aggregators' column kernel (`crate::aggregate`) fans coordinate
//! ranges out over the same workers through `parallel_ranges`; it runs at
//! seal and between rounds, when no client work is in flight.
//!
//! # Chunking and load imbalance
//!
//! Work is split into *contiguous chunks* of `ceil(items / threads)` items,
//! one chunk per thread. `threads` is `available_parallelism` (resolved
//! once per process), capped so that chunks average at least a grain of
//! items: one client, or enough coordinates to pay for a thread spawn. This
//! costs nothing in coordination — no work queue, no atomics on the hot
//! path — but it load-balances poorly when per-item cost is skewed: a
//! thread whose chunk holds the slowest clients (e.g. the ones with the
//! largest local datasets) finishes last while the others sit idle. That
//! tradeoff is acceptable here because a round's selected clients have
//! similar sample budgets by construction; if a future workload breaks
//! that assumption (say, clients with order-of-magnitude different data
//! sizes), switch to work stealing or size-sorted round-robin assignment
//! before tuning anything else. The training loops' `client_update` events
//! carry each client's wall-clock, measured inside the worker
//! ([`crate::pfl_ssl::run_training_round`]), which is exactly what is needed
//! to diagnose such skew.
//!
//! # Workspaces are per worker
//!
//! The local-update closures each create their own
//! [`calibre_tensor::StepArena`], so every worker thread owns a private
//! buffer pool — recycled tape storage never crosses threads and needs no
//! locking.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Maps `f` over `items` in parallel, preserving order.
///
/// The closure receives the item by reference and must be `Sync`; results
/// are collected in input order. Uses up to `available_parallelism` threads
/// (capped by the item count); falls back to sequential execution for a
/// single item.
///
/// # Examples
///
/// ```
/// use calibre_fl::parallel::parallel_map;
///
/// let squares = parallel_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_owned(items.iter().collect(), f)
}

/// Like [`parallel_map`], but consumes the items — used when each client's
/// persistent state (SSL networks, optimizers, queues) must move into its
/// update closure and back out through the result.
///
/// Items are cut into the module's contiguous chunks, one scoped thread per
/// chunk, with a `client` span around each item (opened inside the worker,
/// so parallel clients land on distinct tids), and results in input order.
/// Runs sequentially below two items or two threads. A panic in `f`
/// propagates to the caller with its original payload.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let ranges = worker_ranges(items.len(), 1);
    let mut rest = items.into_iter();
    let chunks: Vec<Vec<T>> = ranges
        .into_iter()
        .map(|range| rest.by_ref().take(range.len()).collect())
        .collect();
    let results = spawn_each(chunks, |chunk| {
        chunk
            .into_iter()
            .map(|item| {
                let _span = calibre_telemetry::span("client");
                f(item)
            })
            .collect::<Vec<R>>()
    });
    results.into_iter().flatten().collect()
}

/// Runs `f` on each contiguous chunk of `0..len`, in at most `len / grain`
/// chunks — each on its own scoped thread, inline when there is only one —
/// and returns the results in range order. Server-side work (the
/// aggregation column kernel) runs here while no client work is in flight,
/// so it opens no `client` span.
pub(crate) fn parallel_ranges<R, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    spawn_each(worker_ranges(len, grain), f)
}

/// The one chunking rule of every fan-out here: `0..len` cut into
/// contiguous ranges of `ceil(len / threads)`, where `threads` is the
/// worker count capped by `len / grain` (and at least one).
fn worker_ranges(len: usize, grain: usize) -> Vec<Range<usize>> {
    let threads = workers().min(len / grain.max(1)).max(1);
    let size = len.div_ceil(threads).max(1);
    (0..len)
        .step_by(size)
        .map(|start| start..len.min(start + size))
        .collect()
}

/// Calls `f` on every chunk, one scoped thread per chunk (inline for a
/// single chunk), and collects the results in chunk order. A worker's panic
/// resumes on the caller with its original payload.
fn spawn_each<C, R, F>(chunks: Vec<C>, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    if chunks.len() <= 1 {
        return chunks.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let workers: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Worker threads per fan-out: `available_parallelism`, resolved once per
/// process because on Linux every query re-reads the cgroup quota files.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn owned_variant_preserves_order_and_moves_items() {
        let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let out = parallel_map_owned(items, |s| format!("x{s}"));
        assert_eq!(out.len(), 50);
        assert_eq!(out[7], "x7");
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<usize> = parallel_map(&[] as &[usize], |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..37).collect();
        let _ = parallel_map(&items, |_| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(counter.load(Ordering::SeqCst), 37);
    }

    #[test]
    fn ranges_cover_every_index_once_in_order() {
        for len in [0usize, 1, 2, 3, 17, 1024] {
            for grain in [1usize, 2, 5, 2000] {
                let ranges = parallel_ranges(len, grain, |r| r);
                assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
                assert!(ranges.len() <= (len / grain).max(1), "{ranges:?}");
                let covered: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(covered, (0..len).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn single_item_runs_sequentially() {
        let out = parallel_map(&[41usize], |&i| i + 1);
        assert_eq!(out, vec![42]);
    }
}
