//! Runtime observability: pool occupancy counters and per-kernel wall-time
//! aggregation, surfaced by `lightnobel::report` and the ln-serve stats.
//!
//! Since the ln-obs migration all counts live in the process-wide
//! [`ln_obs::registry()`] under `par_*` names — one `Counter` each for
//! parallel dispatches, serial fallbacks, chunks and busy nanoseconds, and a
//! labeled family (`par_kernel_*_total{kernel="…"}`) plus a log-bucketed
//! duration histogram per kernel. The pre-existing [`snapshot`],
//! [`kernel_stats`] and [`time_kernel`] API is kept as a thin adapter over
//! those handles, so callers and report tables are unchanged.
//!
//! At `LN_OBS=trace`, [`time_kernel`] additionally records a completed span
//! on the global wall-clock tracer, giving per-kernel lanes in the Chrome
//! trace.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use ln_obs::{labeled, registry, Counter, Histogram};

struct PoolHandles {
    parallel: Counter,
    serial: Counter,
    chunks: Counter,
    busy_nanos: Counter,
}

fn pool_handles() -> &'static PoolHandles {
    static HANDLES: OnceLock<PoolHandles> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = registry();
        PoolHandles {
            parallel: reg.counter("par_parallel_dispatches_total"),
            serial: reg.counter("par_serial_fallbacks_total"),
            chunks: reg.counter("par_chunks_executed_total"),
            busy_nanos: reg.counter("par_busy_nanos_total"),
        }
    })
}

fn epoch() -> &'static Mutex<Instant> {
    static EPOCH: OnceLock<Mutex<Instant>> = OnceLock::new();
    EPOCH.get_or_init(|| Mutex::new(Instant::now()))
}

struct KernelHandles {
    calls: Counter,
    nanos: Counter,
    items: Counter,
    durations: Histogram,
}

impl KernelHandles {
    fn for_kernel(name: &str) -> Self {
        let reg = registry();
        let label = [("kernel", name)];
        Self {
            calls: reg.counter(&labeled("par_kernel_calls_total", &label)),
            nanos: reg.counter(&labeled("par_kernel_nanos_total", &label)),
            items: reg.counter(&labeled("par_kernel_items_total", &label)),
            durations: reg.histogram(&labeled("par_kernel_duration_nanos", &label)),
        }
    }
}

fn kernels() -> &'static Mutex<BTreeMap<&'static str, KernelHandles>> {
    static KERNELS: OnceLock<Mutex<BTreeMap<&'static str, KernelHandles>>> = OnceLock::new();
    KERNELS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_kernels() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, KernelHandles>> {
    kernels().lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn note_parallel() {
    pool_handles().parallel.inc();
}

pub(crate) fn note_serial() {
    pool_handles().serial.inc();
}

pub(crate) fn note_chunk(elapsed: Duration) {
    let handles = pool_handles();
    handles.chunks.inc();
    handles.busy_nanos.add(elapsed.as_nanos() as u64);
}

/// A point-in-time view of the pool counters since process start (or the
/// last [`reset`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Executors in the active pool.
    pub threads: usize,
    /// Jobs dispatched across the pool (more than one chunk).
    pub parallel_dispatches: u64,
    /// Calls that ran inline (below grain, one thread, or nested).
    pub serial_fallbacks: u64,
    /// Chunks executed by pool jobs.
    pub chunks_executed: u64,
    /// Wall time spent inside pool chunks, summed over executors, seconds.
    pub busy_seconds: f64,
    /// Wall time elapsed since the counters started, seconds.
    pub elapsed_seconds: f64,
}

impl Snapshot {
    /// Fraction of total pool capacity (threads × elapsed) spent busy in
    /// chunks. Only parallel-dispatched work counts; inline serial work does
    /// not occupy the pool.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.threads as f64 * self.elapsed_seconds;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }
}

/// Reads the current pool counters (a thin adapter over the `par_*`
/// counters in [`ln_obs::registry()`]).
pub fn snapshot() -> Snapshot {
    let elapsed = epoch()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .elapsed();
    let handles = pool_handles();
    Snapshot {
        threads: crate::active().threads(),
        parallel_dispatches: handles.parallel.get(),
        serial_fallbacks: handles.serial.get(),
        chunks_executed: handles.chunks.get(),
        busy_seconds: handles.busy_nanos.get() as f64 / 1e9,
        elapsed_seconds: elapsed.as_secs_f64(),
    }
}

/// Zeroes all counters (pool and kernel timers) and restarts the occupancy
/// clock. Benches call this between serial and parallel phases. Kernel
/// metric series are also unregistered so stale kernels don't linger in
/// registry snapshots.
pub fn reset() {
    let handles = pool_handles();
    handles.parallel.reset();
    handles.serial.reset();
    handles.chunks.reset();
    handles.busy_nanos.reset();
    *epoch().lock().unwrap_or_else(PoisonError::into_inner) = Instant::now();
    lock_kernels().clear();
    registry().remove_prefix("par_kernel_");
}

/// Accumulated wall time for one named kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStat {
    /// Times the kernel was entered.
    pub calls: u64,
    /// Total wall time inside the kernel, nanoseconds.
    pub nanos: u64,
    /// Caller-defined work items processed (rows, tokens, lengths …).
    pub items: u64,
}

impl KernelStat {
    /// Total wall time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Mean wall time per call in seconds (0 when never called).
    pub fn mean_seconds(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_seconds() / self.calls as f64
        }
    }
}

/// Times `f()` under the given kernel name, attributing `items` work items
/// to the call, and returns `f`'s result. Nested timers each record their
/// own wall time (inner time is included in the outer kernel too).
///
/// At `LN_OBS=trace` each call also lands as a completed span (category
/// `"kernel"`) on the global wall-clock [`ln_obs::tracer()`].
pub fn time_kernel<R>(name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
    let tracer = ln_obs::tracer();
    let trace_begin = tracer.enabled().then(|| tracer.now_nanos());
    let started = Instant::now();
    let out = f();
    let nanos = started.elapsed().as_nanos() as u64;
    {
        let mut map = lock_kernels();
        let handles = map
            .entry(name)
            .or_insert_with(|| KernelHandles::for_kernel(name));
        handles.calls.inc();
        handles.nanos.add(nanos);
        handles.items.add(items);
        handles.durations.record(nanos);
    }
    if let Some(begin) = trace_begin {
        tracer.complete(
            name,
            "kernel",
            0,
            begin,
            nanos,
            vec![("items", ln_obs::ArgValue::U64(items))],
        );
    }
    out
}

/// All kernel timers in name order (reconstructed from the registry
/// handles).
pub fn kernel_stats() -> Vec<(&'static str, KernelStat)> {
    lock_kernels()
        .iter()
        .map(|(name, handles)| {
            (
                *name,
                KernelStat {
                    calls: handles.calls.get(),
                    nanos: handles.nanos.get(),
                    items: handles.items.get(),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_timer_accumulates() {
        let _guard = crate::test_lock();
        reset();
        let out = time_kernel("test.alpha", 10, || 41 + 1);
        assert_eq!(out, 42);
        time_kernel("test.alpha", 5, || ());
        let stats = kernel_stats();
        let (_, stat) = stats
            .iter()
            .find(|(name, _)| *name == "test.alpha")
            .expect("kernel recorded");
        assert_eq!(stat.calls, 2);
        assert_eq!(stat.items, 15);
        assert!(stat.total_seconds() >= 0.0);
        assert!(stat.mean_seconds() <= stat.total_seconds());
    }

    #[test]
    fn pool_counters_track_dispatch_modes() {
        let _guard = crate::test_lock();
        reset();
        let pool = crate::Pool::new_exact(2);
        crate::with_pool(&pool, || crate::par_map_collect(64, 1, |i| i));
        let snap = snapshot();
        assert_eq!(snap.parallel_dispatches, 1);
        assert!(snap.chunks_executed >= 2);
        crate::with_pool(&crate::Pool::new(1), || {
            crate::par_map_collect(64, 1, |i| i)
        });
        assert_eq!(snapshot().serial_fallbacks, 1);
        assert!(snapshot().occupancy() >= 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = crate::test_lock();
        time_kernel("test.reset", 1, || ());
        reset();
        assert!(kernel_stats().iter().all(|(n, _)| *n != "test.reset"));
        let snap = snapshot();
        assert_eq!(snap.parallel_dispatches, 0);
        assert_eq!(snap.chunks_executed, 0);
    }

    #[test]
    fn counters_land_in_obs_registry() {
        let _guard = crate::test_lock();
        reset();
        time_kernel("test.registry", 4, || ());
        let snap = ln_obs::registry().snapshot();
        match snap.get("par_kernel_calls_total{kernel=\"test.registry\"}") {
            Some(ln_obs::MetricValue::Counter(n)) => assert_eq!(*n, 1),
            other => panic!("kernel counter missing from registry: {other:?}"),
        }
        match snap.get("par_kernel_items_total{kernel=\"test.registry\"}") {
            Some(ln_obs::MetricValue::Counter(n)) => assert_eq!(*n, 4),
            other => panic!("kernel items missing from registry: {other:?}"),
        }
        match snap.get("par_kernel_duration_nanos{kernel=\"test.registry\"}") {
            Some(ln_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("kernel histogram missing from registry: {other:?}"),
        }
        reset();
        let snap = ln_obs::registry().snapshot();
        assert!(
            !snap.keys().any(|k| k.contains("kernel=\"test.registry\"")),
            "reset must unregister kernel series"
        );
        match snap.get("par_parallel_dispatches_total") {
            Some(ln_obs::MetricValue::Counter(0)) => {}
            other => panic!("pool counter should be zero after reset: {other:?}"),
        }
    }
}
