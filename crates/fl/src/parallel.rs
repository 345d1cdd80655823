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
//! before tuning anything else. The [`parallel_map_resilient`] variant
//! exposes exactly the per-item wall-clock needed to diagnose such skew.
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
// analyze:allow(wallclock) -- Duration/Instant feed per-client telemetry
// only; scheduling and aggregation stay clock-free.
use std::time::{Duration, Instant};

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

/// A panic caught from one client's worker closure.
///
/// Produced by [`parallel_map_resilient`]; the payload is stringified so it
/// can cross threads and land in telemetry without generic baggage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPanic {
    /// The panic payload, if it was a `&str` or `String` (the usual case);
    /// `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl std::fmt::Display for ClientPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client worker panicked: {}", self.message)
    }
}

impl std::error::Error for ClientPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Like [`parallel_map_owned`], but a panic in one item's closure is
/// caught (`catch_unwind` around the worker body) and surfaces as an `Err`
/// in that item's slot instead of aborting the whole round, and each
/// item's wall-clock execution time is reported next to its result.
///
/// This is the execution substrate of the resilient round executor: a
/// client crashing mid-update must cost exactly one cohort slot, never the
/// run. The clock runs *inside* the worker thread — a timing taken outside
/// the parallel section would measure the whole round, not the client —
/// and covers the failed attempt too (crash time is still time spent).
/// Results stay in input order.
///
/// The closure must be idempotent-safe to lose: when it panics, the moved
/// item is gone with it — retry logic has to rebuild state upstream.
///
/// # Examples
///
/// ```
/// use calibre_fl::parallel::parallel_map_resilient;
///
/// let out = parallel_map_resilient(vec![1, 2, 3], |x| {
///     if x == 2 { panic!("boom") }
///     x * 10
/// });
/// assert_eq!(out[0].0.as_ref().unwrap(), &10);
/// assert!(out[1].0.is_err());
/// assert_eq!(out[2].0.as_ref().unwrap(), &30);
/// ```
pub fn parallel_map_resilient<T, R, F>(
    items: Vec<T>,
    f: F,
) -> Vec<(Result<R, ClientPanic>, Duration)>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_owned(items, |item| {
        // AssertUnwindSafe below: the closure owns `item` (moved in, lost
        // on panic) and the shared captures are read-only (`Fn` + `Sync`),
        // so no observable state can be left torn by an unwind.
        let start = Instant::now(); // analyze:allow(wallclock) -- telemetry only
        let out =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(|payload| {
                ClientPanic {
                    message: panic_message(payload),
                }
            });
        (out, start.elapsed())
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

    #[test]
    fn timed_variant_measures_each_item() {
        let items: Vec<u64> = vec![1, 5, 1, 5];
        let out = parallel_map_resilient(items, |ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        assert_eq!(out.len(), 4);
        for (result, elapsed) in &out {
            let ms = *result.as_ref().unwrap();
            assert!(
                *elapsed >= Duration::from_millis(ms),
                "item slept {ms}ms but measured {elapsed:?}"
            );
        }
        assert_eq!(out[1].0, Ok(5));
    }

    #[test]
    fn resilient_map_isolates_panics_to_their_slot() {
        let items: Vec<usize> = (0..20).collect();
        let out = parallel_map_resilient(items, |i| {
            if i % 7 == 3 {
                panic!("injected failure on {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 20);
        for (i, (result, _)) in out.iter().enumerate() {
            if i % 7 == 3 {
                let err = result.as_ref().unwrap_err();
                assert!(err.message.contains("injected failure"), "{err}");
            } else {
                assert_eq!(result.as_ref().unwrap(), &(i * 2));
            }
        }
    }

    #[test]
    fn resilient_map_matches_timed_map_when_nothing_panics() {
        let items: Vec<usize> = (0..13).collect();
        let ok: Vec<usize> = parallel_map_resilient(items, |i| i + 1)
            .into_iter()
            .map(|(r, _)| r.unwrap())
            .collect();
        assert_eq!(ok, (1..14).collect::<Vec<_>>());
    }

    #[test]
    fn resilient_map_stringifies_string_panics() {
        let out = parallel_map_resilient(vec![0usize], |_| -> usize {
            panic!("{}", String::from("owned message"))
        });
        assert_eq!(out[0].0.as_ref().unwrap_err().message, "owned message");
    }

    #[test]
    fn resilient_empty_input_gives_empty_output() {
        let out: Vec<(Result<usize, ClientPanic>, Duration)> =
            parallel_map_resilient(Vec::new(), |i: usize| i);
        assert!(out.is_empty());
    }
}
