//! Parallel execution of independent client updates and of the server's
//! per-coordinate aggregation work.
//!
//! Within a federated round the selected clients are independent, so their
//! local updates run on `std::thread` scoped threads. The helpers preserve
//! input order in their output, which the aggregation code relies on. The
//! robust aggregators' column kernel (`crate::aggregate`) and detection's
//! row sums (`crate::adversary`) fan blocks of coordinates or rows out over
//! the same workers through `parallel_ranges`; they run at seal and between
//! rounds, when no client work is in flight.
//!
//! # Claiming and load imbalance
//!
//! Every fan-out runs on up to `available_parallelism` workers (resolved
//! once per process): the calling thread and one scoped thread for each
//! other worker. Each worker keeps claiming the next unclaimed item, under
//! one short lock, until none is left. A worker that drew cheap items
//! therefore takes more of them, and no worker idles while an item is
//! unclaimed. A round's clients differ in cost (local data sizes, a host
//! that deschedules one thread), so clients are claimed one at a time; a
//! lock per client is nothing beside a local update. Column and row blocks
//! cost about the same each (an O(n) select per column, rows of one
//! width), so that work is cut into one contiguous block per worker, none
//! below a grain worth a thread, and a block that allocates its own
//! scratch allocates it once per worker.
//!
//! The caller claims the first item before the other workers start, and
//! then works like any of them instead of waiting. With one worker (a
//! process pinned to one CPU) every fan-out runs on the calling thread
//! alone, in input order. Each item of [`parallel_map_owned`] runs inside a
//! `client` span opened by the worker that claimed it: a spawned worker's
//! land on its own tid, and the caller's nest under its open `round` span.
//! The training loops' `client_update` events carry each client's
//! wall-clock, measured inside the worker
//! ([`crate::pfl_ssl::run_training_round`]), which is what is needed to
//! diagnose skew.
//!
//! Results come back in input order. The first panic in a worker stops
//! further claims; items already running finish, and the panic resumes on
//! the caller with its original payload.
//!
//! # Workspaces are per worker
//!
//! The local-update closures each create their own
//! [`calibre_tensor::StepArena`], so every worker thread owns a private
//! buffer pool — recycled tape storage never crosses threads and needs no
//! locking.

use std::any::Any;
use std::iter::Enumerate;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

use parking_lot::Mutex;

/// Maps `f` over `items` in parallel, preserving order.
///
/// The closure receives the item by reference and must be `Sync`; results
/// are collected in input order. Uses up to `available_parallelism` workers
/// (capped by the item count), the calling thread among them; a single
/// item runs on the calling thread alone.
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
/// Workers claim one item at a time, as the module docs describe, and run
/// it inside a `client` span opened by the claiming worker. A panic in `f`
/// stops further claims and resumes on the caller with its original
/// payload.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    claim_each(items, |item| {
        let _span = calibre_telemetry::span("client");
        f(item)
    })
}

/// Cuts `0..len` into contiguous blocks, one per worker and at most
/// `len / grain` (at least one), and runs `f` on each, returning the
/// results in range order. Server-side work (the aggregation column kernel,
/// detection's row sums) runs here while no client work is in flight, so it
/// opens no `client` span.
pub(crate) fn parallel_ranges<R, F>(len: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let blocks = workers().min(len / grain.max(1)).max(1);
    let size = len.div_ceil(blocks).max(1);
    let ranges = (0..len)
        .step_by(size)
        .map(|start| start..len.min(start + size))
        .collect();
    claim_each(ranges, f)
}

/// The one fan-out of this module. The caller claims the first item, starts
/// `workers() - 1` scoped threads (fewer for fewer items), and then every
/// worker, the caller included, runs `f` on its claim and claims again
/// until no item is left. Results come back in input order; the first
/// panic stops further claims and resumes on the caller with its original
/// payload.
fn claim_each<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let spawned = workers().min(items.len()).saturating_sub(1);
    let queue = Mutex::new(Queue {
        items: items.into_iter().enumerate(),
        panic: None,
    });
    let claim = || queue.lock().claim();
    let work = |first: Option<(usize, T)>| {
        let mut done = Vec::new();
        // AssertUnwindSafe: an unwind leaves `done` short, but the payload
        // stops every claim and resumes on the caller, so no result of this
        // fan-out is returned.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut next = first;
            while let Some((index, item)) = next {
                done.push((index, f(item)));
                next = claim();
            }
        }));
        if let Err(payload) = ran {
            queue.lock().stop(payload);
        }
        done
    };
    let first = claim();
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..spawned)
            .map(|_| scope.spawn(|| work(claim())))
            .collect();
        let mut done = work(first);
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        done
    });
    if let Some(payload) = queue.into_inner().panic {
        panic::resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// What the workers of one fan-out share: the unclaimed items, numbered in
/// input order, and the first panic's payload, which ends all claiming.
struct Queue<T> {
    items: Enumerate<std::vec::IntoIter<T>>,
    panic: Option<Box<dyn Any + Send>>,
}

impl<T> Queue<T> {
    /// The next unclaimed item, or `None` once none is left or a worker
    /// has panicked.
    fn claim(&mut self) -> Option<(usize, T)> {
        if self.panic.is_some() {
            return None;
        }
        self.items.next()
    }

    /// Records a worker's panic; the first payload is the one kept.
    fn stop(&mut self, payload: Box<dyn Any + Send>) {
        if self.panic.is_none() {
            self.panic = Some(payload);
        }
    }
}

/// Workers per fan-out, the calling thread included: `available_parallelism`,
/// resolved once per process because on Linux every query re-reads the
/// cgroup quota files.
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    /// A panic payload only these tests raise, so a resumed panic can be
    /// told apart from any other.
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    /// Busy work in proportion to `units` that the optimizer cannot drop.
    fn spin(units: usize) -> usize {
        (0..units).fold(0, |acc, k| std::hint::black_box(acc ^ k))
    }

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
    fn skewed_items_come_back_in_order_and_each_runs_once() {
        for n in 0..=40usize {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let out = parallel_map_owned(items, |s| {
                let i: usize = s.parse().unwrap_or(usize::MAX);
                if let Some(count) = runs.get(i) {
                    count.fetch_add(1, Ordering::SeqCst);
                }
                // Item i costs in proportion to i², so the last items
                // dominate and a fixed split would leave a worker idle.
                spin(i * i * 100);
                format!("x{s}")
            });
            let want: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            assert_eq!(out, want, "{n} items");
            let counts: Vec<usize> = runs.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            assert_eq!(counts, vec![1; n], "{n} items");
        }
    }

    #[test]
    fn a_panic_in_the_callers_first_item_resumes_with_its_payload() {
        let caller = thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let payload = panic::catch_unwind(|| {
            parallel_map(&items, |&i| {
                if i == 0 {
                    assert_eq!(thread::current().id(), caller, "the caller claims first");
                    panic::panic_any(Boom(0));
                }
                spin(1000);
                i
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(0)));
    }

    #[test]
    fn a_panic_in_a_workers_last_item_resumes_with_its_payload() {
        let caller = thread::current().id();
        let last_started = AtomicBool::new(false);
        let items: Vec<usize> = (0..8).collect();
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |&i| {
                if i == 0 && workers() > 1 {
                    // Hold the caller on its first item, so another worker
                    // must claim the last one.
                    while !last_started.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                }
                if i == 7 {
                    last_started.store(true, Ordering::SeqCst);
                    if workers() > 1 {
                        assert_ne!(thread::current().id(), caller, "a worker claims last");
                    }
                    panic::panic_any(Boom(7));
                }
                i
            })
        }))
        .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(7)));
    }

    #[test]
    fn ranges_cover_every_index_once_in_order() {
        for len in [0usize, 1, 2, 3, 17, 1024] {
            for grain in [1usize, 2, 5, 2000] {
                let ranges = parallel_ranges(len, grain, |r| r);
                assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
                assert!(ranges.len() <= (len / grain).max(1), "{ranges:?}");
                // One block per worker at most: a block's own scratch is
                // then one scratch per worker.
                assert!(ranges.len() <= workers(), "{ranges:?}");
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
