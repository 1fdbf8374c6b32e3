//! A small scoped-thread parallelism helper for index construction.
//!
//! Index building is embarrassingly parallel — per-keyword posting
//! lists sort independently, equality groups split independently, and
//! the inverted index and fragment graph don't share state at all. The
//! container has no rayon, so this module provides the two primitives
//! the build path needs on plain `std::thread::scope`: a parallel
//! for-each over a work list and a two-way join.

use std::sync::{Mutex, OnceLock};

/// The machine's parallelism, probed once — `available_parallelism`
/// costs a syscall (and cgroup reads), too much to pay on every call
/// of a helper that may find its work list too small to split.
fn parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many worker threads a work list of `len` items warrants.
fn threads_for(len: usize) -> usize {
    parallelism().min(len)
}

/// Runs `f` over every item, work-stealing from a shared queue.
/// Sequential when the list is small or the machine has one core.
pub(crate) fn for_each<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    // Thread spawn overhead (~10µs each) only pays off with enough
    // items to amortize it.
    let threads = threads_for(items.len() / 8);
    if threads <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let queue = Mutex::new(items.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                match item {
                    Some(item) => f(item),
                    None => break,
                }
            });
        }
    });
}

/// Maps `f` over every item on worker threads, preserving input order.
/// Uses `min(parallelism, items)` workers like [`for_each`], but with
/// no small-list cutoff — intended for coarse work units (a shard's
/// whole index build) where even two items warrant two threads, not
/// per-posting slices.
pub(crate) fn map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = threads_for(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                match next {
                    Some((i, item)) => {
                        let produced = f(item);
                        *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(produced);
                    }
                    None => break,
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker produced a result")
        })
        .collect()
}

/// Evaluates both closures, on two threads when possible.
pub(crate) fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if parallelism() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(a);
        let rb = b();
        (handle.join().expect("parallel build worker panicked"), rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn for_each_visits_every_item() {
        let sum = AtomicU64::new(0);
        for_each((1u64..=1000).collect(), |x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500_500);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!((a, b), (42, "ok"));
    }

    #[test]
    fn map_preserves_order() {
        let out = map((0u64..100).collect(), |x| x * 2);
        assert_eq!(out, (0u64..100).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = map(Vec::new(), |x: u64| x);
        assert!(empty.is_empty());
    }
}
