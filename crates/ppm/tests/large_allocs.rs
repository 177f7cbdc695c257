//! A warm fold asks the allocator for almost no large blocks.
//!
//! The pair stages take their pair-sized temporaries from the fold
//! workspace, which keeps them between stages and between folds. This
//! binary installs a counting global allocator (counts are per thread;
//! under a one-thread pool every kernel runs inline on the calling
//! thread) and pins how many allocations of at least 64 KiB the second
//! fold makes — a guard that depends on neither timing nor the system
//! allocator's trimming policy.

use ln_par::{with_pool, Pool};
use ln_ppm::taps::NoopHook;
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What counts as large: well under one pair tensor at L = 32
/// (`32² · 128 · 4` = 512 KiB), well over every per-head buffer.
const LARGE: usize = 64 << 10;

thread_local! {
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local counter, which neither
// allocates nor unwinds.
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
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Large allocations this thread makes while `f` runs.
fn large_allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = LARGE_ALLOCATIONS.with(Cell::get);
    let out = f();
    (LARGE_ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn the_counter_sees_a_large_allocation_and_no_small_one() {
    let (n, v) = large_allocations_in(|| (vec![1u8; LARGE], vec![1u8; LARGE - 1]));
    assert_eq!(n, 1);
    drop(v);
}

#[test]
fn a_warm_fold_makes_few_large_allocations() {
    // What is left at L = 32: the embedding's pair representation, the
    // copy of it the fold starts from, and in each of the two blocks the
    // sequence track's `(ns, 4·hm)` hidden activation and its ReLU. The
    // pair stages make none; before the fold workspace this count was 116.
    const WARM_FOLD_LARGE_ALLOCATIONS: u64 = 6;
    let ns = 32;
    let model = FoldingModel::new(PpmConfig::standard());
    let seq = Sequence::random("large_allocs", ns);
    let native = StructureGenerator::new("large_allocs").generate(ns);
    with_pool(&Pool::new_exact(1), || {
        let fold = || model.predict_with_hook(&seq, &native, &mut NoopHook);
        let (cold, first) = large_allocations_in(fold);
        let (warm, second) = large_allocations_in(fold);
        assert_eq!(first.expect("folds"), second.expect("folds"));
        assert!(cold > warm, "the first fold fills the workspace");
        assert_eq!(warm, WARM_FOLD_LARGE_ALLOCATIONS);
    });
}
