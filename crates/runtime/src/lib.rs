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
//! # Workers, regions and nesting
//!
//! Workers outlive regions, as in Leis et al.: the process keeps one set of
//! parked helper threads, grown lazily to the largest `threads - 1` any
//! [`Pool`] has asked for. A region posts one job — its morsel cursor and the
//! caller's borrowed closure — with `workers - 1` helper slots, and the
//! **caller runs as worker 0**. When its cursor runs dry it withdraws the
//! unclaimed slots and waits (short spin, then park) only for helpers that
//! claimed one: a region never waits for a thread that has not started on
//! it, concurrent callers cannot deadlock, and a `Pool::new(2)` region runs
//! on at most two threads. Module `handoff` is the workspace's only `unsafe`.
//!
//! A region nested inside a pool worker (the executor parallelising a scan
//! while corpus building runs one dataset per worker) or opened by a
//! one-thread pool runs inline on the calling thread: nesting never
//! oversubscribes the machine and, morsels being the same, never changes
//! results. A panicking morsel closure is caught where it ran; the other
//! workers stop at their next pull, the region joins and the pool stays
//! usable. [`Pool::try_map_init`] returns the panic of the lowest morsel seen
//! as a [`GracefulError::WorkerPanic`], [`Pool::map_init`] re-raises it.
//!
//! # Observability
//!
//! The pool records counters (`pool.regions`, `pool.inline_regions`,
//! `pool.morsels`, `pool.worker_launches` — helper claims) and per-region
//! histograms (`pool.morsels_per_worker`; `pool.worker_start_wait_ns` — a
//! region's publication to each helper's first pull, the queue wait) into the
//! [`graceful_obs::registry`], and with [`graceful_obs::trace`] on, a span
//! per region, worker and morsel. All of it is write-only: no metric feeds a
//! decision, so results are bit-identical with observability on or off.

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

use graceful_common::{config, GracefulError, OrderedMap, Result};
use graceful_obs::registry::{counter, histogram, Counter, Histogram};
use graceful_obs::trace;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
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
/// region; nested regions run inline instead of being shared again.
pub fn in_parallel_region() -> bool {
    IN_POOL_REGION.with(Cell::get)
}

/// The job hand-off between a region's caller and the process-wide helper
/// threads. Helpers outlive the closure a caller lends them, so its lifetime
/// is erased at publication and this protocol stands in for the borrow check:
/// **a helper dereferences the closure only between claiming a slot and
/// counting itself done; the caller returns only after withdrawing the
/// unclaimed slots and seeing every claim counted.**
#[allow(unsafe_code)]
mod handoff {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::thread::{self, Thread};

    /// A region's work: called with a worker index, it pulls morsels until
    /// the region's cursor runs dry. It catches its own panics.
    type Work<'a> = dyn Fn(usize) + Sync + 'a;

    struct Job {
        /// The caller's closure, its lifetime erased.
        work: *const Work<'static>,
        /// Helpers that claimed a slot and have finished with `work`.
        done: AtomicUsize,
        caller: Thread,
    }

    // SAFETY (both impls): `work` is only used as a shared `&Work` and `Work`
    // is `Sync`, so sending and sharing the pointer is what `&Work: Send +
    // Sync` allows (that the pointee is alive is argued at the dereference);
    // `done` and `caller` are `Send + Sync`.
    unsafe impl Send for Job {}
    unsafe impl Sync for Job {}

    struct Board {
        /// One entry per unclaimed helper slot: its job and worker index.
        open: VecDeque<(Arc<Job>, usize)>,
        helpers: usize,
    }

    static BOARD: Mutex<Board> = Mutex::new(Board { open: VecDeque::new(), helpers: 0 });
    static POSTED: Condvar = Condvar::new();

    /// Every update under this lock is one push, pop or retain, so the board
    /// is valid even after a holder panicked: recover instead of poisoning.
    fn lock_board() -> MutexGuard<'static, Board> {
        BOARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `body(0)` on the calling thread while up to `helpers` helper
    /// threads run `body(1..=helpers)`. When this returns — or unwinds — no
    /// helper is inside `body` and none can enter it any more.
    pub(super) fn share(helpers: usize, body: &Work<'_>) {
        // SAFETY: the transmute only erases the borrow's lifetime from the
        // pointer's type. The pointer is dereferenced in `help` alone, by a
        // helper that claimed a slot of this job, before it counts itself
        // `done`. Nothing between the posting below and the end of the wait
        // unwinds (`body(0)` is caught, the lock recovers from poison), so
        // before this function returns, hence while `body` is still borrowed,
        // the unclaimed slots are removed under the board lock (no later
        // claim) and `done` has counted every claim (no helper still inside).
        let work: *const Work<'static> = unsafe { std::mem::transmute(body as *const Work<'_>) };
        let job = Arc::new(Job { work, done: AtomicUsize::new(0), caller: thread::current() });
        {
            let mut board = lock_board();
            // Helpers are detached on purpose: they live as long as the
            // process and own only their stack. A refused spawn means fewer
            // helpers; the caller completes any region alone.
            while board.helpers < helpers && thread::Builder::new().spawn(help).is_ok() {
                board.helpers += 1;
            }
            board.open.extend((1..=helpers).map(|w| (Arc::clone(&job), w)));
        }
        POSTED.notify_all();
        let caught = catch_unwind(AssertUnwindSafe(|| body(0)));
        let claimed = {
            let mut board = lock_board();
            let posted = board.open.len();
            board.open.retain(|(open, _)| !Arc::ptr_eq(open, &job));
            helpers - (posted - board.open.len())
        };
        // Acquire pairs with the Release increment in `help`: a helper's last
        // use of `work`, and all it wrote, happen-before this load sees its
        // count. A short spin, then park until a finishing helper unparks.
        let mut spins = 0;
        while job.done.load(Ordering::Acquire) < claimed {
            spins += 1;
            if spins < 256 {
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
        if let Err(payload) = caught {
            resume_unwind(payload);
        }
    }

    /// A helper thread: claim the oldest open slot, run it, repeat; sleep
    /// while the board is empty.
    fn help() {
        let mut board = lock_board();
        loop {
            let Some((job, worker)) = board.open.pop_front() else {
                board = POSTED.wait(board).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(board);
            // SAFETY: the slot was popped under the board lock, so the caller
            // counts this claim and cannot leave `share` before the increment
            // below: the closure behind `work` is still borrowed. The catch
            // keeps a panic out of it from skipping that increment.
            let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.work)(worker) }));
            job.done.fetch_add(1, Ordering::Release);
            job.caller.unpark();
            board = lock_board();
        }
    }
}

/// A morsel-driven worker pool.
///
/// The handle is cheap (a thread budget): each parallel region is posted to
/// the process-wide helpers, drained with the caller as worker 0, and joined.
/// See the module docs for the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

/// A panic caught in a region: the morsel in flight and the payload.
type Caught = (usize, Box<dyn Any + Send>);

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
    /// returned vector is independent of scheduling. A panic in `init` or `f`
    /// is re-raised here, on the caller, once the region has joined.
    pub fn map_init<S, R, I, F>(&self, n_morsels: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        self.region(n_morsels, init, f).unwrap_or_else(|(_, payload)| resume_unwind(payload))
    }

    /// [`Pool::map_init`] with a panic in `init` or `f` returned as a typed
    /// [`GracefulError::WorkerPanic`] instead of unwinding through the caller.
    pub fn try_map_init<S, R, I, F>(&self, n_morsels: usize, init: I, f: F) -> Result<Vec<R>>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        self.region(n_morsels, init, f).map_err(|(morsel, payload)| {
            let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
            let text = text.or_else(|| payload.downcast_ref::<String>().cloned());
            GracefulError::WorkerPanic { morsel, message: text.unwrap_or_default() }
        })
    }

    fn region<S, R, I, F>(&self, n: usize, init: I, f: F) -> std::result::Result<Vec<R>, Caught>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let metrics = pool_metrics();
        // A nested region (an executor inside a corpus-build worker) and a
        // one-thread pool's run inline: the caller is the only worker.
        let workers = if in_parallel_region() { 1 } else { self.threads.min(n).max(1) };
        let shared = workers > 1;
        metrics.morsels.add(n as u64);
        let name = if shared { "region" } else { "region_inline" };
        let _span = trace::span("pool", name).arg("morsels", n).arg("workers", workers);
        let published = Instant::now();
        let cursor = AtomicUsize::new(0);
        // All workers' `(morsel, result)` pairs and the lowest morsel's panic.
        let sink = Mutex::new((Vec::<(usize, R)>::new(), None::<Caught>));
        let work = |w: usize| {
            if w > 0 {
                metrics.worker_launches.incr();
                metrics.worker_start_wait_ns.record(published.elapsed().as_nanos() as f64);
            }
            let worker_span = shared.then(|| trace::span("pool", "worker").arg("worker", w));
            let (mut at, mut produced) = (0, Vec::new());
            // The thread counts as inside a region (so that anything nested
            // runs inline) exactly while it pulls; the catch restores that.
            let was_in_region = IN_POOL_REGION.with(|c| c.replace(true));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut state = init();
                loop {
                    at = cursor.fetch_add(1, Ordering::Relaxed);
                    if at >= n {
                        break;
                    }
                    let _span = shared.then(|| trace::span("pool", "morsel").arg("morsel", at));
                    produced.push((at, f(&mut state, at)));
                }
            }));
            IN_POOL_REGION.with(|c| c.set(was_in_region));
            if shared {
                metrics.morsels_per_worker.record(produced.len() as f64);
            }
            drop(worker_span.map(|span| span.arg("morsels_pulled", produced.len())));
            // A panicking worker held no lock, so the pairs are whole.
            let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
            sink.0.append(&mut produced);
            if let Err(payload) = caught {
                cursor.store(n, Ordering::Relaxed); // the others stop at their next pull
                if sink.1.as_ref().is_none_or(|(lowest, _)| at < *lowest) {
                    sink.1 = Some((at, payload));
                }
            }
        };
        if shared {
            metrics.regions.incr();
            handoff::share(workers - 1, &work);
        } else {
            metrics.inline_regions.incr();
            work(0);
        }
        let (mut pairs, caught) = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(caught) = caught {
            return Err(caught);
        }
        debug_assert_eq!(pairs.len(), n, "every morsel executed exactly once");
        pairs.sort_unstable_by_key(|&(m, _)| m);
        Ok(pairs.into_iter().map(|(_, r)| r).collect())
    }

    /// Map each item of a slice (one morsel per item), results in item order.
    pub fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items.len(), || (), |_, m| f(m, &items[m]))
    }
}

impl OrderedMap for Pool {
    fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        Pool::ordered_map(self, items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
            let partials = Pool::new(threads).map_init(
                Pool::morsel_count(xs.len(), 64),
                || (),
                |_, m| Pool::morsel_range(m, xs.len(), 64).map(|i| xs[i]).sum::<f64>(),
            );
            partials.into_iter().fold(0.0f64, |a, b| a + b)
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

    /// `(0..n).collect()`, what every `|_, m| m` region must return.
    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    /// Spin until `flag` is set; ten seconds mean the interleaving the test
    /// forces never happened.
    fn wait_for(flag: &AtomicBool) {
        let started = Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(started.elapsed().as_secs() < 10, "the other thread never arrived");
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_panicking_morsel_is_typed_or_re_raised_and_the_pool_survives() {
        let boom = |_: &mut (), m: usize| {
            if m == 5 {
                panic!("boom {m}");
            }
            m
        };
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let err = pool.try_map_init(8, || (), boom).unwrap_err();
            assert_eq!(err, GracefulError::WorkerPanic { morsel: 5, message: "boom 5".into() });
            assert_eq!(pool.map_init(8, || (), |_, m| m), identity(8));
            let payload =
                catch_unwind(AssertUnwindSafe(|| pool.map_init(8, || (), boom))).unwrap_err();
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom 5"));
            assert_eq!(pool.try_map_init(8, || (), |_, m| m), Ok(identity(8)));
            assert!(!in_parallel_region());
        }
        // A panic in `init` and a payload that is no string are typed too.
        let err = Pool::new(2).try_map_init(4, || panic!("no state"), |_: &mut (), m| m);
        assert_eq!(err, Err(GracefulError::WorkerPanic { morsel: 0, message: "no state".into() }));
        let err = Pool::new(1).try_map_init(2, || (), |_, _| std::panic::panic_any(7u8));
        assert_eq!(err, Err(GracefulError::WorkerPanic { morsel: 0, message: String::new() }));
    }

    #[test]
    fn a_panic_on_either_side_of_the_hand_off_drains_the_region() {
        // `on_caller`: the caller's first morsel panics while the helper's
        // waits for it; otherwise the helper's first morsel panics while the
        // caller's waits. Either way the region joins with the typed error.
        for on_caller in [true, false] {
            let caller = std::thread::current().id();
            let panicked = AtomicBool::new(false);
            let err = Pool::new(2).try_map_init(
                64,
                || (),
                |_, m| {
                    if (std::thread::current().id() == caller) == on_caller {
                        panicked.store(true, Ordering::Release);
                        panic!("side {on_caller}");
                    }
                    wait_for(&panicked);
                    m
                },
            );
            match err {
                Err(GracefulError::WorkerPanic { message, .. }) => {
                    assert_eq!(message, format!("side {on_caller}"))
                }
                other => panic!("expected a worker panic, got {other:?}"),
            }
            assert_eq!(Pool::new(2).map_init(64, || (), |_, m| m), identity(64));
        }
    }

    #[test]
    fn concurrent_callers_share_the_helpers() {
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for i in 0..2000usize {
                        let n = 1 + i % 13;
                        let out = Pool::new(1 + (t + i) % 4).map_init(
                            n,
                            || (),
                            |_, m| {
                                // Nested regions stay on the worker's thread.
                                let here = std::thread::current().id();
                                let inner = Pool::new(4).map_init(
                                    3,
                                    || (),
                                    |_, k| (std::thread::current().id(), k),
                                );
                                assert!(inner.iter().all(|&(id, _)| id == here));
                                m * 31 + t + inner.len()
                            },
                        );
                        assert_eq!(out, (0..n).map(|m| m * 31 + t + 3).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn a_region_borrows_stack_data_that_dies_right_after_it() {
        for round in 0..300u64 {
            let data: Vec<u64> = (0..1000).map(|i| i ^ round).collect();
            let seen = Mutex::new(Vec::new());
            let n = Pool::morsel_count(data.len(), 16);
            let sums = Pool::new(4).map_init(
                n,
                || (),
                |_, m| {
                    seen.lock().unwrap().push(m);
                    data[Pool::morsel_range(m, data.len(), 16)].iter().sum::<u64>()
                },
            );
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, identity(n));
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
    }

    #[test]
    fn a_two_thread_region_uses_two_threads_however_many_helpers_exist() {
        // Make sure four helpers exist, then watch who runs a budget-2 region.
        assert_eq!(Pool::new(5).map_init(64, || (), |_, m| m), identity(64));
        let ids = Mutex::new(std::collections::HashSet::new());
        let second_arrived = AtomicBool::new(false);
        Pool::new(2).map_init(
            256,
            || (),
            |_, m| {
                let mut ids = ids.lock().unwrap();
                ids.insert(std::thread::current().id());
                if ids.len() > 1 {
                    second_arrived.store(true, Ordering::Release);
                }
                drop(ids);
                // Hold the region open until its one helper has joined in, so
                // that a third thread would have every chance to.
                if m < 2 {
                    wait_for(&second_arrived);
                }
            },
        );
        assert_eq!(ids.into_inner().unwrap().len(), 2);
    }
}
