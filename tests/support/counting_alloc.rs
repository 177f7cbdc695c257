//! A counting global allocator, shared by the allocation tests through
//! `#[path]` (`crates/quant/tests/no_alloc.rs`,
//! `crates/ppm/tests/large_allocs.rs`, `tests/aaq_large_allocs.rs`): a
//! test binary that declares this module runs on it.
//!
//! Counts are per thread, so the harness's other test threads do not
//! disturb them; under a one-thread `ln-par` pool every kernel runs inline
//! on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Smallest request, in bytes, that counts on this thread.
    static MIN_SIZE: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has been handed less bytes it has handed back
    /// (wrapping: a block may be freed on another thread than it came from).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    /// `LIVE_BYTES` when `peak_live_bytes_in` started, and the most it has
    /// risen above that since (negative while frees of older blocks keep
    /// it below).
    static BASE_BYTES: Cell<usize> = const { Cell::new(0) };
    static PEAK_ABOVE_BASE: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note(size: usize) {
    if size >= MIN_SIZE.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
    let live = LIVE_BYTES.with(|b| {
        b.set(b.get().wrapping_add(size));
        b.get()
    });
    let above = live.wrapping_sub(BASE_BYTES.with(Cell::get)) as isize;
    PEAK_ABOVE_BASE.with(|p| p.set(p.get().max(above)));
}

fn note_freed(size: usize) {
    LIVE_BYTES.with(|b| b.set(b.get().wrapping_sub(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is reads and wrapping
// bumps of const-initialised, destructor-free thread-local cells, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_freed(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_freed(layout.size());
        // SAFETY: the caller's obligations for `realloc` are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) of at least `min_size` bytes this
/// thread makes while `f` runs. Calls do not nest.
pub fn allocations_in<R>(min_size: usize, f: impl FnOnce() -> R) -> (u64, R) {
    MIN_SIZE.with(|m| m.set(min_size));
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes this thread allocated while `f` ran and had not freed when it
/// returned: what `f`'s result (and anything it leaked) keeps resident.
/// Only the allocation tests of `QuantizedTensor` ask.
#[allow(dead_code)]
pub fn bytes_kept_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (LIVE_BYTES.with(Cell::get).wrapping_sub(before), out)
}

/// The most bytes this thread had live while `f` ran, above what it had
/// live when `f` started: `f`'s high-water mark on the heap, whatever it
/// freed before returning. Calls do not nest.
#[allow(dead_code)]
pub fn peak_live_bytes_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    BASE_BYTES.with(|b| b.set(LIVE_BYTES.with(Cell::get)));
    PEAK_ABOVE_BASE.with(|p| p.set(0));
    let out = f();
    (PEAK_ABOVE_BASE.with(Cell::get) as usize, out)
}
