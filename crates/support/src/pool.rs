//! Scoped data-parallelism over `std::thread` — the rayon subset the
//! measurement campaign needs. [`par_map`] takes no lock: items are
//! claimed through one atomic counter, and a worker's panic is
//! re-raised by joining the workers in order.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads parallel helpers use: the machine's
/// available parallelism, or 1 when that cannot be determined.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `threads` scoped worker threads, returning
/// the results **in item order** regardless of how the workers were
/// scheduled. Whichever worker is free claims the next item index from
/// a shared counter and keeps its results, tagged with their index, in
/// its own vector; the vectors are merged in item order once every
/// worker has joined, so the output is deterministic: for a pure `f`,
/// `par_map(items, t, f)` is bit-identical for every `t`.
///
/// `f` receives the item index and the item. With `threads == 1` (or a
/// single item) the map runs inline on the caller's thread.
///
/// # Panics
/// Panics if `threads == 0`. If `f` panics, every worker is joined and
/// the panic of the lowest-numbered panicking worker is re-raised with
/// its own payload.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker");
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item was mapped exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = par_map(&items, threads, |_, &v| v * v + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let none: Vec<u8> = par_map(&[] as &[u8], 4, |_, &v| v);
        assert!(none.is_empty());
        assert_eq!(par_map(&[9u8], 4, |i, &v| (i, v)), vec![(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "item 11 exploded")]
    fn par_map_propagates_panics() {
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, 4, |_, &v| {
            if v == 11 {
                panic!("item 11 exploded");
            }
            v
        });
    }
}
