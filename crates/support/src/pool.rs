//! Scoped data-parallelism over `std::thread` — the rayon subset the
//! linear-algebra kernels and the measurement campaign need.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sync::Mutex;

/// The number of worker threads parallel helpers use: the machine's
/// available parallelism, or 1 when that cannot be determined.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A worker's panic payload, kept until the scope has joined.
type PanicSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// Records `payload` unless an earlier panic already claimed the slot.
fn keep_first_panic(slot: &PanicSlot, payload: Box<dyn Any + Send>) {
    let mut slot = slot.lock();
    if slot.is_none() {
        *slot = Some(payload);
    }
}

/// Applies `f` to consecutive `chunk_len`-sized chunks of `data` (last
/// chunk may be shorter), fanning the chunks out over `threads` scoped
/// worker threads. `f` receives the chunk index and the chunk.
/// Equivalent to `data.chunks_mut(chunk_len).enumerate().for_each(...)`
/// but parallel. With `threads == 1` (or a single chunk) the chunks run
/// inline on the caller's thread.
///
/// # Panics
/// Panics if `chunk_len == 0` or `threads == 0`, and re-raises the first
/// panic from `f` with its own payload.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert!(threads > 0, "need at least one worker");
    let threads = threads.min(data.len().div_ceil(chunk_len));
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Whichever worker is free takes the next chunk off the shared
    // iterator.
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let first_panic = PanicSlot::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let Some((i, chunk)) = chunks.lock().next() else {
                    return;
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, chunk))) {
                    keep_first_panic(&first_panic, payload);
                    return;
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner() {
        resume_unwind(payload);
    }
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
/// Panics if `threads == 0`, and re-raises the first panic from `f`
/// with its own payload.
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
    let first_panic = PanicSlot::new(None);
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
                        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                            Ok(r) => done.push((i, r)),
                            Err(payload) => {
                                keep_first_panic(&first_panic, payload);
                                return done;
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    if let Some(payload) = first_panic.into_inner() {
        resume_unwind(payload);
    }
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
    fn par_chunks_matches_serial_at_any_width() {
        let mut ser: Vec<u64> = (0..1000).collect();
        for (i, c) in ser.chunks_mut(64).enumerate() {
            for v in c.iter_mut() {
                *v = *v * 3 + i as u64;
            }
        }
        for threads in [1, 2, 3, 8] {
            let mut par: Vec<u64> = (0..1000).collect();
            par_chunks_mut(&mut par, 64, threads, |i, c| {
                for v in c.iter_mut() {
                    *v = *v * 3 + i as u64;
                }
            });
            assert_eq!(par, ser, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_empty_and_tiny() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, 8, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![7u8];
        par_chunks_mut(&mut one, 8, 4, |i, c| {
            assert_eq!(i, 0);
            c[0] += 1;
        });
        assert_eq!(one, vec![8]);
    }

    #[test]
    #[should_panic(expected = "chunk blew up")]
    fn par_chunks_propagates_panics() {
        // Four workers on any core count: the worker's own message must
        // reach the caller, not the scope's generic one.
        let mut data = vec![0u8; 256];
        par_chunks_mut(&mut data, 16, 4, |i, _| {
            if i == 7 {
                panic!("chunk blew up");
            }
        });
    }

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
