//! Parallel execution of independent client updates.
//!
//! Within a federated round the selected clients are independent, so their
//! local updates run on `std::thread` scoped threads. The helpers preserve
//! input order in their output, which the aggregation code relies on.
//!
//! # Chunking and load imbalance
//!
//! Work is split into *contiguous chunks* of `ceil(items / threads)` items,
//! one chunk per thread. This costs nothing in coordination — no work queue,
//! no atomics on the hot path — but it load-balances poorly when per-item
//! cost is skewed: a thread whose chunk holds the slowest clients (e.g. the
//! ones with the largest local datasets) finishes last while the others sit
//! idle. That tradeoff is acceptable here because a round's selected clients
//! have similar sample budgets by construction; if a future workload breaks
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
//! locking. The only shared execution state is the process-wide backend
//! selection (`calibre_tensor::backend::global_backend`), which workers read
//! through an `Arc` at workspace creation.

use std::num::NonZeroUsize;

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
/// This is the one fan-out behind every map here: contiguous chunks of
/// `ceil(items / threads)` items, one scoped thread per chunk, a `client`
/// span around each item (opened inside the worker, so parallel clients
/// land on distinct tids), and results in input order. Runs sequentially
/// below two items or two threads. A panic in `f` propagates to the caller
/// with its original payload.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let run = |item: T| {
        let _span = calibre_telemetry::span("client");
        f(item)
    };
    let len = items.len();
    let threads = worker_count(len);
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(run).collect();
    }
    let chunk_size = len.div_ceil(threads);
    let mut rest = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..len.div_ceil(chunk_size))
        .map(|_| rest.by_ref().take(chunk_size).collect())
        .collect();
    std::thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(run).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Number of worker threads for `len` items: `available_parallelism` capped
/// by the item count.
fn worker_count(len: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(len)
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
    fn single_item_runs_sequentially() {
        let out = parallel_map(&[41usize], |&i| i + 1);
        assert_eq!(out, vec![42]);
    }
}
