//! `ln-par`: a std-only, zero-dependency data-parallel runtime for the
//! LightNobel reproduction.
//!
//! LightNobel's hardware keeps 32 RMPUs and 128 VVPUs busy on the O(L²·Hz)
//! Pair-Representation dataflow; this crate is the CPU-software analogue — a
//! persistent worker pool that fans row-parallel kernel work out across
//! cores without pulling in any external crates.
//!
//! # Determinism by ownership
//!
//! Every helper in this crate partitions the index space `0..n` into
//! *disjoint, contiguous chunks*, and each chunk (hence each output row) is
//! executed by exactly one thread with the per-row arithmetic unchanged from
//! the serial kernel. Floating-point reduction order within a row is
//! therefore identical to serial execution, so parallel results are
//! **bit-for-bit identical** to serial results regardless of pool size,
//! chunk boundaries, or scheduling order. The determinism tests in the
//! workspace umbrella (`tests/par_determinism.rs`) pin this down for
//! matmul, AAQ encode/decode, and a full Evoformer block.
//!
//! # Pool lifecycle
//!
//! [`global()`] lazily builds one process-wide pool sized from
//! `std::thread::available_parallelism`, overridable with the `LN_THREADS`
//! environment variable. [`with_pool`] installs a thread-local override for
//! the duration of a closure (used by benches and determinism tests to pit
//! pool sizes against each other). Nested parallel calls — a parallel kernel
//! invoked from inside a pool worker — degrade to serial execution on the
//! calling worker, so composition can never deadlock the fixed-size pool.
//!
//! # Grain-size policy
//!
//! Each call site passes a *grain*: the minimum number of items that
//! justifies crossing a thread boundary. Work with `n <= grain` (or a pool
//! of one thread) runs inline on the caller with zero synchronisation.
//! Above the grain, chunks hold `max(grain, ceil(n / (threads × 2)))`
//! items — about two chunks per executor, enough slack to absorb uneven
//! per-row cost without shrinking chunks below the grain.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod metrics;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Target number of chunks handed to each executor, so stragglers can be
/// absorbed by the rest of the pool instead of serialising the tail.
/// Halved from 4 with the register-tiled kernel rework: the kernels are
/// fast enough that per-chunk handoff (claim + futex wake) dominated fine
/// chunks, and row-block work is uniform enough that 2× oversubscription
/// still absorbs stragglers.
const OVERSUBSCRIPTION: usize = 2;

/// Upper bound on configured pool size; guards against a typo'd
/// `LN_THREADS=10000` exhausting the process.
const MAX_THREADS: usize = 256;

thread_local! {
    /// True while this thread is executing chunks of some job (worker or
    /// participating caller). Parallel calls made in that state run serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Stack of thread-local pool overrides installed by [`with_pool`].
    static OVERRIDE: RefCell<Vec<Arc<Pool>>> = const { RefCell::new(Vec::new()) };
}

/// A lifetime-erased pointer to the job closure.
///
/// The pointee is only ever dereferenced between `Pool::run` pushing the job
/// and `Pool::run` returning, and `run` blocks until every chunk has
/// finished executing, so the erased borrow is always live at dereference
/// time (see `Job::execute_available`).
struct RawTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer itself is only dereferenced while the originating
// `Pool::run` frame — which owns the borrow — is still blocked on the
// completion latch.
unsafe impl Send for RawTask {}
// SAFETY: as above; `&RawTask` only exposes the pointer to `Job`, which
// dereferences it under the same liveness argument.
unsafe impl Sync for RawTask {}

impl RawTask {
    fn erase(f: &(dyn Fn(usize) + Sync)) -> RawTask {
        let short: *const (dyn Fn(usize) + Sync + '_) = f;
        // SAFETY: fat-pointer layout is identical; only the (unchecked)
        // trait-object lifetime is erased. `Pool::run` keeps the borrow
        // alive until the last chunk completes, so no dereference can
        // outlive `f`.
        RawTask(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(short)
        })
    }
}

/// One submitted parallel job: a closure plus chunk-claiming and
/// completion-latch state.
struct Job {
    task: RawTask,
    chunks: usize,
    /// Next unclaimed chunk index; claimed with `fetch_add`, so each chunk
    /// is executed exactly once by exactly one thread.
    next: AtomicUsize,
    /// Chunks not yet finished; the caller blocks until this hits zero.
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs chunks until none are left, then returns. Called by
    /// both pool workers and the submitting caller.
    fn execute_available(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            let started = std::time::Instant::now();
            // SAFETY: `remaining > 0` for this chunk until we decrement it
            // below, so the submitting `Pool::run` frame is still blocked
            // and the closure borrow is live.
            let f = unsafe { &*self.task.0 };
            // Caught so a panicking chunk still releases the latch below;
            // `Pool::run` re-raises once every chunk has finished.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(chunk)));
            metrics::note_chunk(started.elapsed());
            if outcome.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let mut remaining = self.remaining.lock().expect("ln-par: job latch poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every chunk has finished executing.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("ln-par: job latch poisoned");
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .expect("ln-par: job latch poisoned");
        }
    }
}

struct PoolQueue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_available: Condvar,
}

/// A persistent worker pool. `Pool::new(n)` provides `n` executors: `n - 1`
/// spawned worker threads plus the submitting caller, which participates in
/// every job it submits.
pub struct Pool {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool with `threads` executors, clamped to the host's
    /// available parallelism (and `1..=256`). The kernels dispatched here
    /// are compute-bound and never block, so executors beyond the
    /// physical core count can only add context-switch overhead — the
    /// root of the old evoformer "0.598× at L=1024" regression on small
    /// hosts. A one-thread pool never spawns and always runs inline.
    ///
    /// Tests that need genuinely concurrent executors regardless of host
    /// size (deadlock, panic containment, cross-pool bit identity) use
    /// [`Pool::new_exact`].
    pub fn new(threads: usize) -> Arc<Pool> {
        Self::new_exact(threads.min(host_parallelism()))
    }

    /// Builds a pool with exactly `threads` executors (clamped only to
    /// `1..=256`), even when that oversubscribes the host. For
    /// correctness tests and deterministic simulations whose behavior is
    /// pinned to a thread count; perf-sensitive callers want
    /// [`Pool::new`].
    pub fn new_exact(threads: usize) -> Arc<Pool> {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ln-par-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("ln-par: failed to spawn worker thread")
            })
            .collect();
        Arc::new(Pool {
            shared,
            threads,
            workers,
        })
    }

    /// Number of executors (workers + submitting caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(chunks - 1)`, each exactly once, distributed
    /// across the pool. Blocks until all chunks complete; re-raises a panic
    /// if any chunk panicked — after every chunk has run, so the pool is
    /// healthy again. Falls back to an inline serial loop when the pool has
    /// one thread, there is at most one chunk, or the caller is itself a
    /// pool executor (nested call).
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let panicked = if self.threads <= 1 || chunks == 1 || in_pool() {
            metrics::note_serial();
            let mut panicked = false;
            for chunk in 0..chunks {
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(chunk))).is_err() {
                    panicked = true;
                }
            }
            panicked
        } else {
            self.run_parallel(chunks, f)
        };
        if panicked {
            panic!("ln-par: a parallel task panicked");
        }
    }

    /// Queues `f` as a job, executes chunks alongside the workers, and
    /// returns once every chunk has finished: whether any chunk panicked.
    fn run_parallel(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        let job = Arc::new(Job {
            task: RawTask::erase(f),
            chunks,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(chunks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        {
            let mut queue = self.shared.queue.lock().expect("ln-par: queue poisoned");
            queue.jobs.push_back(job.clone());
        }
        self.shared.work_available.notify_all();
        metrics::note_parallel();
        // The caller participates, then blocks until workers drain the rest.
        IN_POOL.with(|flag| flag.set(true));
        job.execute_available();
        IN_POOL.with(|flag| flag.set(false));
        job.wait();
        job.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("ln-par: queue poisoned");
            queue.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("ln-par: queue poisoned");
            loop {
                if queue.shutdown {
                    return;
                }
                // Drop fully-claimed jobs from the front; their completion
                // is tracked by the per-job latch, not the queue.
                while queue
                    .jobs
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.chunks)
                {
                    queue.jobs.pop_front();
                }
                if let Some(job) = queue.jobs.front() {
                    break job.clone();
                }
                queue = shared
                    .work_available
                    .wait(queue)
                    .expect("ln-par: queue poisoned");
            }
        };
        job.execute_available();
    }
}

/// True when the current thread is executing inside a pool job (worker or
/// participating caller); parallel calls in that state run serially.
fn in_pool() -> bool {
    IN_POOL.with(|flag| flag.get())
}

fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
}

fn default_threads() -> usize {
    if let Some(n) = parse_threads(std::env::var("LN_THREADS").ok().as_deref()) {
        return n;
    }
    host_parallelism()
}

/// The host's available parallelism (1 when it cannot be determined).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_THREADS))
        .unwrap_or(1)
}

/// The process-wide pool, built on first use from
/// `std::thread::available_parallelism`, overridable with `LN_THREADS=n`
/// (an explicit override is honored exactly, even past the host's core
/// count).
pub fn global() -> &'static Arc<Pool> {
    static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new_exact(default_threads()))
}

/// The pool the current thread's parallel helpers dispatch to: the innermost
/// [`with_pool`] override if one is installed, otherwise [`global()`].
pub fn active() -> Arc<Pool> {
    OVERRIDE
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Runs `f` with `pool` installed as this thread's active pool. Overrides
/// nest; the previous pool is restored on exit (including panics).
pub fn with_pool<R>(pool: &Arc<Pool>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|stack| stack.borrow_mut().push(pool.clone()));
    let _guard = Guard;
    f()
}

fn chunk_len_for(n: usize, grain: usize, threads: usize) -> usize {
    let grain = grain.max(1);
    if n <= grain {
        return n.max(1);
    }
    grain.max(n.div_ceil(threads * OVERSUBSCRIPTION))
}

/// The chunk length (in items) the helpers would use for `n` items with the
/// given `grain` on the active pool: `max(grain, ceil(n / (threads × 2)))`,
/// or all `n` items when `n <= grain`.
pub fn chunk_len(n: usize, grain: usize) -> usize {
    chunk_len_for(n, grain, active().threads())
}

/// Splits `data` into consecutive `chunk_len`-item chunks (last may be
/// short) and runs `f(chunk_index, chunk)` for each, in parallel. Each chunk
/// is owned by exactly one executor — this is the mutable-output workhorse
/// behind the row-parallel kernels.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let chunks = data.len().div_ceil(chunk_len);
    let pool = active();
    if pool.threads() <= 1 || chunks <= 1 || in_pool() {
        metrics::note_serial();
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
        return;
    }
    // Hand each `&mut` chunk to exactly one executor through a take-once
    // slot, keeping the crate's only unsafe confined to `RawTask`.
    let slots: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk_len)
        .map(|chunk| Mutex::new(Some(chunk)))
        .collect();
    let task = |c: usize| {
        let chunk = slots[c]
            .lock()
            .expect("ln-par: chunk slot poisoned")
            .take()
            .expect("ln-par: each chunk is claimed exactly once");
        f(c, chunk);
    };
    pool.run(slots.len(), &task);
}

/// Computes `f(0), …, f(n - 1)` in parallel and returns the results in
/// index order (identical to `(0..n).map(f).collect()`).
pub fn par_map_collect<R: Send>(n: usize, grain: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let pool = active();
    let chunk = chunk_len_for(n, grain, pool.threads());
    let chunks = n.div_ceil(chunk);
    if pool.threads() <= 1 || chunks <= 1 || in_pool() {
        metrics::note_serial();
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Vec<R>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
    let task = |c: usize| {
        let start = c * chunk;
        let end = (start + chunk).min(n);
        let mut local = Vec::with_capacity(end - start);
        for i in start..end {
            local.push(f(i));
        }
        *slots[c].lock().expect("ln-par: result slot poisoned") = local;
    };
    pool.run(chunks, &task);
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.append(&mut slot.into_inner().expect("ln-par: result slot poisoned"));
    }
    out
}

/// Serializes unit tests that touch the global metrics counters; survives
/// poisoning from the panic-propagation test.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_every_chunk_exactly_once() {
        let _guard = test_lock();
        for threads in [1, 2, 5] {
            let pool = Pool::new_exact(threads);
            let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            pool.run(counts.len(), &|c| {
                counts[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_chunks_mut_partitions_exactly() {
        let _guard = test_lock();
        let pool = Pool::new_exact(3);
        with_pool(&pool, || {
            let mut data = vec![0u32; 103];
            par_chunks_mut(&mut data, 10, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (c * 10 + i) as u32;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u32);
            }
        });
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let _guard = test_lock();
        let pool = Pool::new_exact(4);
        let out = with_pool(&pool, || par_map_collect(250, 3, |i| i * i));
        assert_eq!(out, (0..250).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_edges() {
        let _guard = test_lock();
        let pool = Pool::new_exact(4);
        with_pool(&pool, || {
            pool.run(0, &|_| panic!("must not run"));
            let hits = AtomicUsize::new(0);
            pool.run(1, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1);
            let empty: Vec<usize> = par_map_collect(0, 1, |i| i);
            assert!(empty.is_empty());
            par_chunks_mut(&mut [] as &mut [u8], 4, |_, _| panic!("must not run"));
        });
    }

    #[test]
    fn nested_parallel_calls_run_serially_without_deadlock() {
        let _guard = test_lock();
        let pool = Pool::new_exact(2);
        with_pool(&pool, || {
            let mut rows = vec![0usize; 8];
            par_chunks_mut(&mut rows, 1, |_, row| {
                // Nested call from inside a pool job: must degrade to serial.
                row[0] = par_map_collect(8, 1, |i| i).len();
            });
            assert_eq!(rows, [8; 8]);
        });
    }

    #[test]
    fn panics_propagate_to_the_caller_after_every_chunk_ran() {
        let _guard = test_lock();
        for threads in [1, 3] {
            let pool = Pool::new_exact(threads);
            let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(16, &|c| {
                    hits[c].fetch_add(1, Ordering::Relaxed);
                    if c == 7 {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err(), "threads={threads}");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            // The pool survives a panicked job and keeps executing.
            let again = AtomicUsize::new(0);
            pool.run(16, &|_| {
                again.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(again.load(Ordering::Relaxed), 16, "threads={threads}");
        }
    }

    #[test]
    fn with_pool_overrides_nest_and_restore() {
        let _guard = test_lock();
        let two = Pool::new_exact(2);
        let three = Pool::new_exact(3);
        with_pool(&two, || {
            assert_eq!(active().threads(), 2);
            with_pool(&three, || assert_eq!(active().threads(), 3));
            assert_eq!(active().threads(), 2);
        });
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn chunk_len_respects_grain_and_oversubscription() {
        assert_eq!(chunk_len_for(10, 16, 4), 10);
        assert_eq!(chunk_len_for(1000, 1, 4), 125);
        assert_eq!(chunk_len_for(1000, 200, 4), 200);
        assert_eq!(chunk_len_for(0, 1, 4), 1);
    }
}
