//! Deterministic morsel-driven parallel runtime.
//!
//! Every parallel loop in the reproduction — corpus labelling across 20
//! databases, cross-validation folds, per-operator row processing in the
//! execution engine — goes through the [`Pool`] in this crate. The design
//! goal is the one the experiments cannot live without: **output is
//! bit-identical for any thread count**. The paper's 142-hour labelling run
//! is embarrassingly parallel, but a reproduction that changed its labels
//! when `GRACEFUL_THREADS` changed would be unverifiable.
//!
//! # How determinism is preserved
//!
//! Work is split into *morsels* — fixed index ranges whose boundaries depend
//! only on the input size and the configured morsel size, never on the
//! thread count (the morsel-driven scheme of Leis et al., adapted to a
//! deterministic merge). Workers pull morsel indices from a shared atomic
//! cursor (the chunked work queue), so scheduling is dynamic and
//! load-balanced, but every result is placed into its morsel's slot and
//! merged **in morsel-index order** on the caller. Floating-point
//! accumulations, row concatenations and RNG-derived labels therefore see
//! the exact same grouping and order whether the pool runs on one thread or
//! sixty-four.
//!
//! Two rules make this work for callers:
//!
//! 1. per-morsel computation must depend only on the morsel index and the
//!    shared inputs (per-worker scratch state is fine; per-*worker* results
//!    are not), and
//! 2. cross-morsel combination happens exclusively in the ordered merge.
//!
//! # Fork/join and nesting
//!
//! Regions fork with [`std::thread::scope`], so closures may borrow from the
//! caller and panics propagate on join. A region nested inside a pool worker
//! (e.g. the executor parallelising a scan while corpus building already
//! runs one dataset per worker) runs inline on that worker — nesting never
//! oversubscribes the machine, and because inline and forked execution share
//! the same morsel structure, it never changes results either.
//!
//! # Observability
//!
//! The pool records dispatch counters (`pool.regions`, `pool.inline_regions`,
//! `pool.morsels`, `pool.worker_launches`) and per-region histograms
//! (`pool.morsels_per_worker`, `pool.worker_start_wait_ns` — how long each
//! scoped worker took to start pulling morsels after the region forked) into
//! the [`graceful_obs::registry`]; the legacy
//! [`graceful_common::metrics::par`] snapshot API reads the same atomics.
//! When span tracing is on ([`graceful_obs::trace`]), each region and each
//! worker emit spans with their morsel counts as arguments. All of it is
//! write-only: nothing here reads a metric to make a decision, so results
//! stay bit-identical whether observability is on or off.

use graceful_common::{config, GracefulError, Result};
use graceful_obs::registry::{counter, histogram, Counter, Histogram};
use graceful_obs::trace;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Registry handles resolved once; the pool's hot path only touches relaxed
/// atomics after that.
struct PoolMetrics {
    regions: Counter,
    inline_regions: Counter,
    morsels: Counter,
    worker_launches: Counter,
    morsels_per_worker: Histogram,
    worker_start_wait_ns: Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        regions: counter("pool.regions"),
        inline_regions: counter("pool.inline_regions"),
        morsels: counter("pool.morsels"),
        worker_launches: counter("pool.worker_launches"),
        morsels_per_worker: histogram("pool.morsels_per_worker"),
        worker_start_wait_ns: histogram("pool.worker_start_wait_ns"),
    })
}

thread_local! {
    static IN_POOL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// True while the current thread is executing morsels for some [`Pool`]
/// region; nested regions run inline instead of forking again.
pub fn in_parallel_region() -> bool {
    IN_POOL_REGION.with(Cell::get)
}

/// Marks the current thread as inside a pool region for the guard's
/// lifetime, restoring the previous state on drop (also on panic).
struct RegionGuard {
    was: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        RegionGuard { was: IN_POOL_REGION.with(|c| c.replace(true)) }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_POOL_REGION.with(|c| c.set(was));
    }
}

/// A morsel-driven worker pool.
///
/// The handle is cheap (a thread budget); each parallel region forks scoped
/// workers, drains the morsel queue, and joins. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit thread budget (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// A pool sized from `GRACEFUL_THREADS` (default: all cores). An invalid
    /// value is a typed [`GracefulError::Config`].
    pub fn from_env() -> Result<Self> {
        config::try_threads_from_env().map(Pool::new).map_err(GracefulError::Config)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of morsels needed to cover `n_items` at `morsel_rows` each.
    pub fn morsel_count(n_items: usize, morsel_rows: usize) -> usize {
        n_items.div_ceil(morsel_rows.max(1))
    }

    /// Index range of morsel `m` over `n_items` at `morsel_rows` each.
    pub fn morsel_range(m: usize, n_items: usize, morsel_rows: usize) -> Range<usize> {
        let morsel_rows = morsel_rows.max(1);
        let start = m * morsel_rows;
        start..((start + morsel_rows).min(n_items))
    }

    /// The core primitive: run `f` over every morsel index in `0..n_morsels`
    /// and return the results **in morsel order**.
    ///
    /// `init` builds one scratch state per worker (an interpreter, a batch
    /// VM with its preallocated register file, a reusable buffer); each
    /// worker reuses its state across all morsels it pulls. `f` must derive
    /// its output from the morsel index and shared inputs only, so the
    /// returned vector is independent of scheduling.
    pub fn map_init<S, R, I, F>(&self, n_morsels: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let metrics = pool_metrics();
        let workers = self.threads.min(n_morsels);
        if workers <= 1 || in_parallel_region() {
            metrics.inline_regions.incr();
            metrics.morsels.add(n_morsels as u64);
            let _span = trace::span("pool", "region_inline").arg("morsels", n_morsels);
            // The inline path is still a pool region: nested pools (e.g. an
            // executor inside a 1-worker corpus build) must also run inline,
            // so a pinned single-thread pool really is single-threaded.
            let _guard = RegionGuard::enter();
            let mut state = init();
            return (0..n_morsels).map(|m| f(&mut state, m)).collect();
        }
        metrics.regions.incr();
        metrics.morsels.add(n_morsels as u64);
        metrics.worker_launches.add(workers as u64);
        let _span = trace::span("pool", "region").arg("morsels", n_morsels).arg("workers", workers);
        let forked_at = Instant::now();
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = (0..n_morsels).map(|_| None).collect();
        std::thread::scope(|s| {
            // Shared state reaches the `move` closures as copied references,
            // so each worker borrows rather than consumes it.
            let (init, f, cursor, forked_at) = (&init, &f, &cursor, &forked_at);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        metrics.worker_start_wait_ns.record(forked_at.elapsed().as_nanos() as f64);
                        IN_POOL_REGION.with(|c| c.set(true));
                        let worker_span = trace::span("pool", "worker").arg("worker", w);
                        let mut state = init();
                        let mut produced = Vec::new();
                        loop {
                            let m = cursor.fetch_add(1, Ordering::Relaxed);
                            if m >= n_morsels {
                                break;
                            }
                            let _morsel_span = trace::span("pool", "morsel").arg("morsel", m);
                            produced.push((m, f(&mut state, m)));
                        }
                        metrics.morsels_per_worker.record(produced.len() as f64);
                        drop(worker_span.arg("morsels_pulled", produced.len()));
                        produced
                    })
                })
                .collect();
            for h in handles {
                for (m, r) in h.join().expect("pool worker panicked") {
                    out[m] = Some(r);
                }
            }
        });
        out.into_iter().map(|r| r.expect("every morsel executed")).collect()
    }

    /// Map each item of a slice (one morsel per item), results in item
    /// order. The fork/join replacement for ad-hoc `thread::scope` blocks.
    pub fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items.len(), || (), |_, m| f(m, &items[m]))
    }

    /// Ordered reduce: map every morsel in parallel (with per-worker state),
    /// then fold the per-morsel results **in morsel-index order** on the
    /// calling thread. This is how float totals (`CostCounter` work sums),
    /// kept-row concatenations and labels merge deterministically.
    pub fn ordered_reduce<S, R, A, I, F, G>(
        &self,
        n_morsels: usize,
        init: I,
        map: F,
        acc: A,
        fold: G,
    ) -> A
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.map_init(n_morsels, init, map).into_iter().fold(acc, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.ordered_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn morsel_geometry_covers_everything_exactly_once() {
        for (n, morsel) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (1000, 7)] {
            let count = Pool::morsel_count(n, morsel);
            let mut covered = 0;
            for m in 0..count {
                let r = Pool::morsel_range(m, n, morsel);
                assert_eq!(r.start, covered);
                assert!(r.end > r.start && r.end - r.start <= morsel);
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // Awkward summands so that regrouping would actually change bits.
        let xs: Vec<f64> =
            (0..10_000).map(|i| ((i * 2654435761u64 as usize) as f64).sqrt()).collect();
        let sum_with = |threads: usize| {
            Pool::new(threads).ordered_reduce(
                Pool::morsel_count(xs.len(), 64),
                || (),
                |_, m| Pool::morsel_range(m, xs.len(), 64).map(|i| xs[i]).sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let reference = sum_with(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(sum_with(threads).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts the morsels it executed in its own state; the
        // total over all workers must cover every morsel exactly once, which
        // the ordered output already proves — here we additionally check the
        // init count never exceeds the thread budget.
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let pool = Pool::new(4);
        let out = pool.map_init(
            100,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, m| {
                *seen += 1;
                m
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let pool = Pool::new(4);
        let out = pool.ordered_map(&[10usize, 20, 30], |_, &x| {
            assert!(in_parallel_region());
            // A nested region must complete inline on this worker.
            let inner: Vec<usize> = Pool::new(4).map_init(x, || (), |_, m| m);
            inner.len()
        });
        assert_eq!(out, vec![10, 20, 30]);
        assert!(!in_parallel_region());
    }

    #[test]
    fn inline_regions_also_mark_the_thread() {
        // A pinned 1-worker pool must keep nested pools inline too, so the
        // inline path marks the thread exactly like a forked worker.
        let pool = Pool::new(1);
        let seen = pool.map_init(2, || (), |_, _| in_parallel_region());
        assert_eq!(seen, vec![true, true]);
        assert!(!in_parallel_region());
    }

    #[test]
    fn zero_and_single_morsel_regions() {
        let pool = Pool::new(8);
        let empty: Vec<usize> = pool.map_init(0, || (), |_, m| m);
        assert!(empty.is_empty());
        let one = pool.map_init(1, || (), |_, m| m + 41);
        assert_eq!(one, vec![41]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panics_propagate() {
        Pool::new(2).map_init(
            8,
            || (),
            |_, m| {
                if m == 5 {
                    panic!("boom");
                }
                m
            },
        );
    }
}
