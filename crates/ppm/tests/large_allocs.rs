//! A warm fold asks the allocator for almost no large blocks.
//!
//! The pair stages take their pair-sized temporaries from the fold
//! workspace, which keeps them between stages and between folds. This
//! binary runs on the shared counting global allocator (counts are per
//! thread; under a one-thread pool every kernel runs inline on the calling
//! thread) and pins how many allocations of at least 64 KiB the second
//! fold makes — a guard that depends on neither timing nor the system
//! allocator's trimming policy — and what it leaves in the GEMM scratch
//! arena, the fold's other standing memory (a process-wide high-water
//! mark, so one test function owns it).

use ln_par::{with_pool, Pool};
use ln_ppm::taps::{ActivationHook, ActivationSite, NoopHook, Tap};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;
use ln_tensor::{microkernel, Tensor2};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// What counts as large: well under one pair tensor at L = 32
/// (`32² · 128 · 4` = 512 KiB), well over every per-head buffer.
const LARGE: usize = 64 << 10;

/// Large allocations a warm `NoopHook` fold makes at L = 32 and at L = 48
/// alike: the embedding's pair representation — which a one-recycle fold
/// starts from as it is, not from a copy — and in each of the two blocks
/// the sequence track's `(ns, 4·hm)` hidden activation and its ReLU. The
/// pair stages make none, however many row blocks the transition's hidden
/// activation takes (one at L = 32, three at L = 48); before the fold
/// workspace this count was 116. `tests/aaq_large_allocs.rs` pins the same
/// folds under `AaqHook` — 5 — and in the quantized domain — 15.
const WARM_FOLD_LARGE_ALLOCATIONS: u64 = 5;

/// Large allocations this thread makes while `f` runs.
fn large_allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counting_alloc::allocations_in(LARGE, f)
}

#[test]
fn the_counter_sees_a_large_allocation_and_no_small_one() {
    let (n, v) = large_allocations_in(|| (vec![1u8; LARGE], vec![1u8; LARGE - 1]));
    assert_eq!(n, 1);
    drop(v);
}

#[test]
fn a_warm_fold_makes_few_large_allocations() {
    // What the GEMM scratch arena holds after the L = 32 fold: the packing
    // buffers of the deepest product — the pair transition's contraction
    // of one row block, `(1024, 512) × (512, 128)`, 256-deep k-panels —
    // one 128-row block of A and one 256-column panel of B, whatever the
    // rows in an `ln-par` chunk, and nothing else: no kernel parks a
    // product there, which would be scratch no workspace test sees.
    const A_BLOCK: u64 = 128 * 256 * 4;
    const B_PANEL: u64 = 256 * 256 * 4;
    let model = FoldingModel::new(PpmConfig::standard());
    with_pool(&Pool::new_exact(1), || {
        for ns in [32, 48] {
            let seq = Sequence::random("large_allocs", ns);
            let native = StructureGenerator::new("large_allocs").generate(ns);
            let fold = || model.predict_with_hook(&seq, &native, &mut NoopHook);
            let (cold, first) = large_allocations_in(fold);
            microkernel::reset_scratch_hwm();
            let (warm, second) = large_allocations_in(fold);
            assert_eq!(first.expect("folds"), second.expect("folds"));
            assert!(cold > warm, "the first fold fills the workspace");
            assert_eq!(warm, WARM_FOLD_LARGE_ALLOCATIONS, "L = {ns}");
            if ns == 32 {
                assert_eq!(microkernel::scratch_hwm_bytes(), A_BLOCK + B_PANEL);
            }
        }
    });
}

/// Unwinds out of the first block's triangular attention, with the stage's
/// workspace tensors taken and not yet given back.
struct PanicMidFold;

impl ActivationHook for PanicMidFold {
    fn on_activation(&mut self, tap: Tap, _activation: &mut Tensor2) {
        if tap.block == 0 && tap.site == ActivationSite::TriAttnPostLn {
            panic!("injected panic at {tap}");
        }
    }

    fn observes(&self, _site: ActivationSite) -> bool {
        false
    }
}

#[test]
fn a_panic_mid_fold_leaves_the_workspace_usable() {
    // Where a serving worker's `catch_unwind` will sit once a backend
    // really folds: the thread survives, and so must its fold workspace.
    let ns = 32;
    let model = FoldingModel::new(PpmConfig::standard());
    let seq = Sequence::random("large_allocs", ns);
    let native = StructureGenerator::new("large_allocs").generate(ns);
    with_pool(&Pool::new_exact(1), || {
        let fold = || {
            model
                .predict_with_hook(&seq, &native, &mut NoopHook)
                .expect("folds")
        };
        let reference = fold();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = model.predict_with_hook(&seq, &native, &mut PanicMidFold);
        }));
        assert!(unwound.is_err(), "the hook panics inside the fold");
        assert_eq!(fold(), reference, "the next fold is the reference fold");
        let (warm, again) = large_allocations_in(fold);
        assert_eq!(again, reference);
        assert_eq!(warm, WARM_FOLD_LARGE_ALLOCATIONS);
    });
}
