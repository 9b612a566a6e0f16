//! Deterministic data parallelism on `std::thread::scope`.
//!
//! The offline pipeline (long-term DP, capacitor sizing, experiment
//! sweeps) fans out over independent work items. This crate provides
//! ordered `map` primitives: items are split into contiguous chunks,
//! one scoped worker per chunk, and results are reassembled in input
//! order — so parallel output is byte-for-byte identical to a serial
//! run no matter how the OS schedules the workers.
//!
//! Thread count comes from, in priority order:
//! 1. `HELIO_SERIAL=1` — force single-threaded execution;
//! 2. `HELIO_THREADS=<n>` — explicit worker count;
//! 3. `std::thread::available_parallelism()`.

use std::any::Any;
use std::env;
use std::num::NonZeroUsize;
use std::panic;

/// A worker panic captured by [`par_zip_chunks_mut_quarantine`]: the
/// payload `std::thread::JoinHandle::join` (or `catch_unwind`) hands
/// back.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Best-effort human-readable text of a captured panic payload
/// (`panic!` with a string literal or formatted message; anything else
/// collapses to `"panic"`).
#[must_use]
pub fn panic_message(payload: &PanicPayload) -> &str {
    if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else {
        "panic"
    }
}

/// Number of worker threads parallel maps will use.
#[must_use]
pub fn configured_threads() -> usize {
    if env::var("HELIO_SERIAL").map(|v| v == "1").unwrap_or(false) {
        return 1;
    }
    if let Ok(raw) = env::var("HELIO_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..n`, in parallel when workers are available,
/// returning results in index order.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = configured_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        }
    });
    parts.into_iter().flatten().collect()
}

/// Maps `f` over a slice, in parallel, returning results in input
/// order.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Splits `items` into `states.len()` contiguous chunks (the first
/// `items.len().div_ceil(states.len())` items per chunk, last chunk
/// short) and runs `f(chunk_index, items_chunk, state)` once per chunk
/// with exclusive access to that chunk's state, one scoped worker per
/// chunk. Results come back in chunk order.
///
/// This is the shard-dispatch shape of the sharded batch engine: each
/// worker owns a mutable slice of scenarios plus its own scratch
/// state, and because chunk boundaries depend only on the two lengths
/// — never on thread count or scheduling — a parallel run partitions
/// the work identically to the serial fallback.
///
/// Chunks beyond `items.len()` (more states than items) receive an
/// empty item slice.
///
/// Worker panics are *quarantined* instead of re-raised: each chunk's
/// result is `Ok(r)` or `Err(payload)`, so one poisoned chunk cannot
/// take down the siblings (or the caller). The service layer uses this
/// to turn a panicking scenario into a per-request error line instead
/// of a dead worker pool. The chunk whose worker panicked leaves its
/// `items`/`state` in whatever state the unwind found them — callers
/// must treat them as garbage.
pub fn par_zip_chunks_mut_quarantine<T, S, R, F>(
    items: &mut [T],
    states: &mut [S],
    f: F,
) -> Vec<Result<R, PanicPayload>>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut S) -> R + Sync,
{
    let chunks = states.len();
    if chunks == 0 {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(chunks).max(1);
    if configured_threads() <= 1 || chunks == 1 {
        let mut rest = items;
        return states
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                let take = chunk.min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                panic::catch_unwind(panic::AssertUnwindSafe(|| f(c, head, state)))
            })
            .collect();
    }
    let mut results: Vec<Result<R, PanicPayload>> = Vec::with_capacity(chunks);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(chunks);
        let mut rest_items = items;
        let mut rest_states = states;
        for c in 0..chunks {
            let take = chunk.min(rest_items.len());
            let (head, tail) = std::mem::take(&mut rest_items).split_at_mut(take);
            rest_items = tail;
            let (state, states_tail) = match std::mem::take(&mut rest_states).split_first_mut() {
                Some(pair) => pair,
                None => break,
            };
            rest_states = states_tail;
            let f = &f;
            handles.push(s.spawn(move || f(c, head, state)));
        }
        for handle in handles {
            results.push(handle.join());
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let squares = par_map_range(1000, |i| i * i);
        assert_eq!(squares.len(), 1000);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn handles_edge_sizes() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
        let items = [3.0f64, 1.5, -2.0];
        assert_eq!(par_map(&items, |x| x * 2.0), vec![6.0, 3.0, -4.0]);
    }

    #[test]
    fn matches_serial_map() {
        let parallel = par_map_range(257, |i| format!("{i}:{}", i % 7));
        let serial: Vec<String> = (0..257).map(|i| format!("{i}:{}", i % 7)).collect();
        assert_eq!(parallel, serial);
    }

    /// Unwraps every chunk's result; these tests panic in no worker.
    fn zip_chunks<T: Send, S: Send, R: Send>(
        items: &mut [T],
        states: &mut [S],
        f: impl Fn(usize, &mut [T], &mut S) -> R + Sync,
    ) -> Vec<R> {
        par_zip_chunks_mut_quarantine(items, states, f)
            .into_iter()
            .map(|r| r.expect("no worker panicked"))
            .collect()
    }

    #[test]
    fn zip_chunks_partitions_deterministically() {
        let mut items: Vec<usize> = (0..10).collect();
        let mut states = vec![0usize; 3];
        let seen = zip_chunks(&mut items, &mut states, |c, chunk, state| {
            *state = chunk.len();
            (c, chunk.to_vec())
        });
        // 10 items over 3 states: ceil(10/3) = 4 per chunk, last short.
        assert_eq!(
            seen,
            vec![
                (0, vec![0, 1, 2, 3]),
                (1, vec![4, 5, 6, 7]),
                (2, vec![8, 9]),
            ]
        );
        assert_eq!(states, vec![4, 4, 2]);
    }

    #[test]
    fn zip_chunks_mutates_items_and_states() {
        let mut items: Vec<i64> = (0..23).collect();
        let mut states: Vec<i64> = vec![0; 4];
        zip_chunks(&mut items, &mut states, |_, chunk, state| {
            for x in chunk.iter_mut() {
                *x *= 2;
                *state += *x;
            }
        });
        let expect: Vec<i64> = (0..23).map(|x| x * 2).collect();
        assert_eq!(items, expect);
        assert_eq!(states.iter().sum::<i64>(), expect.iter().sum::<i64>());
    }

    #[test]
    fn zip_chunks_handles_edge_shapes() {
        // More states than items: trailing chunks see empty slices.
        let mut items = vec![1, 2];
        let mut states = vec![0usize; 5];
        let lens = zip_chunks(&mut items, &mut states, |_, chunk, _| chunk.len());
        assert_eq!(lens.iter().sum::<usize>(), 2);
        assert_eq!(lens.len(), 5);
        // No states: nothing runs.
        let mut none: Vec<usize> = Vec::new();
        assert!(zip_chunks(&mut items, &mut none, |_, _, _: &mut usize| 1).is_empty());
        // No items: every state still gets a (empty) call.
        let mut empty: Vec<usize> = Vec::new();
        let calls = zip_chunks(&mut empty, &mut states, |c, chunk, _| (c, chunk.len()));
        assert_eq!(calls.len(), 5);
        assert!(calls.iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn zip_chunks_quarantine_isolates_panicked_chunk() {
        let mut items: Vec<usize> = (0..8).collect();
        let mut states = vec![(); 4];
        let results = par_zip_chunks_mut_quarantine(&mut items, &mut states, |c, chunk, _| {
            assert!(c != 2, "chunk blew up");
            chunk.to_vec()
        });
        assert_eq!(results.len(), 4);
        for (c, r) in results.iter().enumerate() {
            if c == 2 {
                let payload = r.as_ref().expect_err("chunk 2 panicked");
                assert!(panic_message(payload).contains("chunk blew up"));
            } else {
                let v = r.as_ref().expect("healthy chunk survives");
                assert_eq!(v, &vec![2 * c, 2 * c + 1]);
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = panic::catch_unwind(|| {
            par_map_range(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
