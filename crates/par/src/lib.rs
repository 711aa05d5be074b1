//! Deterministic data-parallel primitives over `std::thread::scope`.
//!
//! Some of Tango's loops are data-parallel by construction: the GNN
//! encoder's aggregation and linear maps are independent per row (§5.3),
//! the per-node tick phase touches each node in isolation, and separate
//! experiment runs share nothing. This crate gives those loops a shared
//! runtime with one hard guarantee:
//!
//! **Determinism contract.** Work is split into *statically chunked*
//! contiguous ranges (`ceil(len / workers)` items each) and results are
//! merged in *input order*. Every closure must be a pure function of
//! `(index, item)`. Under that contract the output is bit-identical for
//! every thread count, including `threads == 1`, which runs inline on
//! the caller with zero synchronization overhead.
//!
//! There is deliberately **no work stealing**: dynamic scheduling would
//! make which-worker-ran-what (and therefore any per-worker scratch
//! reuse pattern) timing-dependent. Static chunking keeps the mapping a
//! pure function of `(len, threads)`; the cost — imbalance when item
//! costs vary — is bounded by the fan-outs we run (many small, similar
//! items), and is the price of reproducible runs.
//!
//! Workers are scoped (`std::thread::scope`), so closures may borrow the
//! caller's stack freely and no pool state outlives a call.

use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// This pool, further limited so each worker gets at least
    /// `min_per_worker` of `units` of work. Keeps tiny inputs inline —
    /// spawning four threads for a 4×4 matmul costs more than the
    /// matmul. Thresholding never affects results (the contract makes
    /// every thread count bit-identical), only where time is spent.
    pub fn limit(&self, units: usize, min_per_worker: usize) -> Pool {
        let cap = units / min_per_worker.max(1);
        Pool {
            threads: self.threads.min(cap.max(1)),
        }
    }

    /// How many workers a fan-out over `len` items actually uses.
    fn workers_for(&self, len: usize) -> usize {
        self.threads.min(len.max(1))
    }

    /// Run `f` over statically chunked row ranges of `data`, in
    /// parallel. `data.len()` must be a multiple of `stride` (one row =
    /// `stride` elements; chunk boundaries always fall on row
    /// boundaries). `f(first_row, chunk)` receives the global index of
    /// its first row. Chunk 0 runs on the calling thread.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        stride: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        debug_assert!(
            stride > 0 && data.len().is_multiple_of(stride),
            "ragged rows"
        );
        let rows = data.len() / stride.max(1);
        let workers = self.workers_for(rows);
        if workers == 1 {
            f(0, data);
            return;
        }
        let rows_per = rows.div_ceil(workers);
        let mut chunks = data.chunks_mut(rows_per * stride);
        let first = chunks.next().expect("nonempty data has a first chunk");
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .enumerate()
                .map(|(i, chunk)| {
                    let f = &f;
                    scope.spawn(move || f((i + 1) * rows_per, chunk))
                })
                .collect();
            f(0, first);
            for h in handles {
                h.join().expect("tango-par worker panicked");
            }
        });
    }

    /// Run `f` over caller-chosen contiguous *parts* of three
    /// equal-length slices, in parallel: `f(first_index, a, b, c)` once
    /// per part. `bounds` lists the ascending end offset of each part;
    /// the last bound must equal the slice length. Part 0 runs on the
    /// calling thread.
    ///
    /// This is the shard primitive for structure-aligned fan-outs (one
    /// part per group of clusters, never splitting a cluster), where the
    /// even `ceil(len/workers)` chunking of [`Pool::par_chunks_mut`]
    /// would cut through a group. The determinism contract is the same —
    /// each part writes only its own elements, so the part layout can
    /// never affect results, only where time is spent.
    pub fn par_parts_zip3_mut<A: Send, B: Send, C: Send>(
        &self,
        bounds: &[usize],
        a: &mut [A],
        b: &mut [B],
        c: &mut [C],
        f: impl Fn(usize, &mut [A], &mut [B], &mut [C]) + Sync,
    ) {
        assert_eq!(a.len(), b.len(), "par_parts_zip3_mut length mismatch");
        assert_eq!(a.len(), c.len(), "par_parts_zip3_mut length mismatch");
        if a.is_empty() {
            assert!(
                bounds.is_empty() || bounds == [0],
                "nonempty bounds over empty slices"
            );
            return;
        }
        assert_eq!(
            bounds.last().copied(),
            Some(a.len()),
            "last bound must equal the slice length"
        );
        if self.threads == 1 || bounds.len() == 1 {
            let mut start = 0;
            for &end in bounds {
                assert!(end >= start, "bounds must be ascending");
                f(
                    start,
                    &mut a[start..end],
                    &mut b[start..end],
                    &mut c[start..end],
                );
                start = end;
            }
            return;
        }
        let mut parts = Vec::with_capacity(bounds.len());
        let (mut ra, mut rb, mut rc) = (a, b, c);
        let mut start = 0;
        for &end in bounds {
            assert!(end >= start, "bounds must be ascending");
            let (pa, ta) = ra.split_at_mut(end - start);
            let (pb, tb) = rb.split_at_mut(end - start);
            let (pc, tc) = rc.split_at_mut(end - start);
            parts.push((start, pa, pb, pc));
            (ra, rb, rc) = (ta, tb, tc);
            start = end;
        }
        std::thread::scope(|scope| {
            let mut parts = parts.into_iter();
            let head = parts.next().expect("nonempty bounds have a first part");
            let handles: Vec<_> = parts
                .map(|(first, pa, pb, pc)| {
                    let f = &f;
                    scope.spawn(move || f(first, pa, pb, pc))
                })
                .collect();
            f(head.0, head.1, head.2, head.3);
            for h in handles {
                h.join().expect("tango-par worker panicked");
            }
        });
    }

    /// Map every item through `f`, collecting results in input order.
    pub fn par_map_collect<I: Sync, R: Send>(
        &self,
        items: &[I],
        f: impl Fn(usize, &I) -> R + Sync,
    ) -> Vec<R> {
        let workers = self.workers_for(items.len());
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

/// Global thread budget: 0 = not yet resolved.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide thread budget: [`resolve`] with no config value,
/// cached on first use. [`set_threads`] overrides it at any time.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let t = resolve(None);
            THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Override the process-wide thread budget (clamped to ≥ 1). Intended
/// for benches sweeping thread counts and tests pinning both sides of a
/// determinism comparison; the simulation runtime carries its own
/// per-system [`Pool`] resolved from its config instead.
pub fn set_threads(threads: usize) {
    THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// The process-wide pool: the compute kernels (matmul, CSR aggregation)
/// and `tango::run_parallel`'s experiment runs share it.
pub fn global() -> Pool {
    Pool::new(threads())
}

/// Resolve a config-level thread request: `TANGO_THREADS` wins, then the
/// explicit config value, then [`std::thread::available_parallelism`].
pub fn resolve(config: Option<usize>) -> usize {
    if let Ok(v) = std::env::var("TANGO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    match config {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
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
    fn chunks_mut_covers_every_row_once() {
        for t in [1, 2, 5, 16] {
            let mut data = vec![0u32; 10 * 7]; // 10 rows of stride 7
            Pool::new(t).par_chunks_mut(&mut data, 7, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(7).enumerate() {
                    for v in row.iter_mut() {
                        *v += (first_row + r) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (0..10u32).flat_map(|r| [r + 1; 7]).collect();
            assert_eq!(data, want, "threads = {t}");
        }
    }

    #[test]
    fn parts_zip3_respects_caller_bounds() {
        for t in [1, 2, 4, 16] {
            let mut a: Vec<u64> = (0..20).collect();
            let mut b = vec![0u64; 20];
            let mut c = vec![0u64; 20];
            // ragged parts: [0..3), [3..10), [10..11), [11..20)
            let bounds = [3usize, 10, 11, 20];
            Pool::new(t).par_parts_zip3_mut(
                &bounds,
                &mut a,
                &mut b,
                &mut c,
                |first, xa, xb, xc| {
                    for (j, ((x, y), z)) in
                        xa.iter().zip(xb.iter_mut()).zip(xc.iter_mut()).enumerate()
                    {
                        assert_eq!(*x as usize, first + j);
                        *y = *x * 3;
                        *z = first as u64;
                    }
                },
            );
            assert_eq!(b, (0..20).map(|x| x * 3).collect::<Vec<u64>>(), "t = {t}");
            let want_c: Vec<u64> = (0..20u64)
                .map(|i| match i {
                    0..=2 => 0,
                    3..=9 => 3,
                    10 => 10,
                    _ => 11,
                })
                .collect();
            assert_eq!(c, want_c, "t = {t}");
        }
    }

    #[test]
    #[should_panic(expected = "last bound must equal")]
    fn parts_zip3_rejects_short_bounds() {
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let mut c = [0u8; 4];
        Pool::new(2).par_parts_zip3_mut(&[2], &mut a, &mut b, &mut c, |_, _, _, _| {});
    }

    #[test]
    fn empty_inputs_are_noops() {
        let p = Pool::new(8);
        assert!(p.par_map_collect(&Vec::<u8>::new(), |_, &x| x).is_empty());
        p.par_chunks_mut(&mut Vec::<u8>::new(), 1, |_, _| panic!("no chunks"));
        p.par_parts_zip3_mut(
            &[],
            &mut [0u8; 0],
            &mut [0u8; 0],
            &mut [0u8; 0],
            |_, _, _, _| panic!("no parts"),
        );
    }

    #[test]
    fn limit_keeps_small_work_inline() {
        let p = Pool::new(8);
        assert_eq!(p.limit(10, 100).threads(), 1);
        assert_eq!(p.limit(1000, 100).threads(), 8);
        assert_eq!(p.limit(250, 100).threads(), 2);
        assert_eq!(p.limit(0, 0).threads(), 1);
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
