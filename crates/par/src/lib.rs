//! The one fan-out of the workspace: separate experiment runs share
//! nothing, so `tango::run_parallel` maps them over scoped threads. Each
//! run's event loop, and every kernel it calls, runs on one thread.
//!
//! **Determinism contract.** Items are split into *statically chunked*
//! contiguous ranges (`ceil(len / workers)` items each) and results are
//! merged in *input order*. Every closure must be a pure function of
//! `(index, item)`. Under that contract the output is bit-identical for
//! every thread count, including `threads == 1`, which runs inline on
//! the caller with zero synchronization overhead.
//!
//! There is deliberately **no work stealing**: static chunking keeps
//! which-worker-ran-what a pure function of `(len, threads)`, at the
//! cost of imbalance when item costs vary.
//!
//! Workers are scoped (`std::thread::scope`), so closures may borrow the
//! caller's stack freely and no pool state outlives a call.

use std::sync::OnceLock;

/// A parallelism budget: how many OS threads a fan-out may use.
///
/// `Pool` is a plain value (no worker handles); threads are spawned
/// scoped per call and joined before the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool using up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map every item through `f`, collecting results in input order.
    /// Chunk 0 runs on the calling thread.
    pub fn par_map_collect<I: Sync, R: Send>(
        &self,
        items: &[I],
        f: impl Fn(usize, &I) -> R + Sync,
    ) -> Vec<R> {
        let workers = self.threads.min(items.len().max(1));
        if workers == 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        let per = items.len().div_ceil(workers);
        let mut chunks = items.chunks(per);
        let first = chunks.next().expect("nonempty items have a first chunk");
        let run_chunk = |base: usize, chunk: &[I]| -> Vec<R> {
            chunk
                .iter()
                .enumerate()
                .map(|(j, it)| f(base + j, it))
                .collect()
        };
        let mut parts: Vec<Vec<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .enumerate()
                .map(|(i, chunk)| {
                    let run_chunk = &run_chunk;
                    scope.spawn(move || run_chunk((i + 1) * per, chunk))
                })
                .collect();
            let head = run_chunk(0, first);
            let mut parts = vec![head];
            for h in handles {
                parts.push(h.join().expect("tango-par worker panicked"));
            }
            parts
        });
        // fixed merge order: chunk 0, chunk 1, ... regardless of finish order
        let mut out = Vec::with_capacity(items.len());
        for part in parts.iter_mut() {
            out.append(part);
        }
        out
    }
}

/// The process-wide thread budget, resolved on first use and cached:
/// the `TANGO_THREADS` environment variable when it holds a count ≥ 1,
/// else [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("TANGO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The process-wide pool of [`threads`] workers, which
/// `tango::run_parallel`'s experiment runs share.
pub fn global() -> Pool {
    Pool::new(threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for t in [1, 2, 3, 4, 7, 64] {
            let got = Pool::new(t).par_map_collect(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads = {t}");
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        assert!(Pool::new(8)
            .par_map_collect(&Vec::<u8>::new(), |_, &x| x)
            .is_empty());
    }

    #[test]
    fn pool_clamps_to_at_least_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    /// The determinism contract, end to end: identical output at every
    /// thread count for a float reduction whose result would differ if
    /// chunking leaked into per-item evaluation.
    #[test]
    fn thread_count_never_changes_results() {
        let items: Vec<f64> = (0..513).map(|i| (i as f64) * 0.123 + 1.0).collect();
        let reference = Pool::new(1).par_map_collect(&items, |i, &x| {
            (0..64).fold(x, |acc, k| acc + (acc * 1e-3) + (i + k) as f64 * 1e-6)
        });
        for t in [2, 3, 4, 8, 32] {
            let got = Pool::new(t).par_map_collect(&items, |i, &x| {
                (0..64).fold(x, |acc, k| acc + (acc * 1e-3) + (i + k) as f64 * 1e-6)
            });
            // bitwise, not approximate
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {t}");
            }
        }
    }
}
