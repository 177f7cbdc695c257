//! A warm fold asks the allocator for almost no large blocks, and holds
//! little beside the pair stream.
//!
//! The pair stages take their pair-sized temporaries from the fold
//! workspace, which keeps them between stages and between folds. This
//! binary runs on the shared counting global allocator (counts are per
//! thread; under a one-thread pool every kernel runs inline on the calling
//! thread) and pins how many allocations of at least 64 KiB the second
//! fold makes, the most bytes a warm fold has live at once — guards that
//! depend on neither timing nor the system allocator's trimming policy —
//! and what it leaves in the GEMM scratch arena, the fold's other standing
//! memory (a process-wide high-water mark, so one test function owns it).

use ln_par::{with_pool, Pool};
use ln_ppm::blocks::release_fold_workspace;
use ln_ppm::taps::{ActivationHook, ActivationSite, NoopHook, Tap};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;
use ln_quant::scheme::{AaqConfig, QuantScheme};
use ln_quant::tensor::QuantizedTensor;
use ln_quant::token::fake_quantize_tokens;
use ln_tensor::{microkernel, Tensor2};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

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

/// Held by a test that reads the GEMM scratch arena's high-water mark —
/// process-wide — and by one that folds at another length, which would move it.
static SCRATCH_HWM: Mutex<()> = Mutex::new(());

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
    // What the GEMM scratch arena holds after the L = 32 fold: the packed
    // B panel of the widest product — 256 deep and 256 wide at the `Large`
    // class — whatever the rows in an `ln-par` chunk, and nothing else: the
    // tiles read A in place, and no kernel parks a product there, which
    // would be scratch no workspace test sees.
    const B_PANEL: u64 = 256 * 256 * 4;
    let _hwm = SCRATCH_HWM.lock().unwrap_or_else(|e| e.into_inner());
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
                assert_eq!(microkernel::scratch_hwm_bytes(), B_PANEL);
            }
        }
    });
}

/// Unwinds out of the first block's triangular attention with the stage's
/// post-LN activation on loan: it observes that site alone, so the stage
/// holds the activation whole, in a workspace tensor, when it is shown.
struct PanicMidFold;

impl ActivationHook for PanicMidFold {
    fn on_activation(&mut self, tap: Tap, _activation: &mut Tensor2) {
        if tap.block == 0 && tap.site == ActivationSite::TriAttnPostLn {
            panic!("injected panic at {tap}");
        }
    }

    fn observes(&self, site: ActivationSite) -> bool {
        site == ActivationSite::TriAttnPostLn
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
        // The unwound stage's loans went back: the next fold is as warm as
        // any.
        let (first, after) = large_allocations_in(fold);
        assert_eq!(after, reference, "the next fold is the reference fold");
        assert_eq!(
            first, WARM_FOLD_LARGE_ALLOCATIONS,
            "the first fold after the panic"
        );
        let (warm, again) = large_allocations_in(fold);
        assert_eq!(again, reference);
        assert_eq!(warm, WARM_FOLD_LARGE_ALLOCATIONS);
    });
}

/// Sends every post-LN projection through the integer GEMMs, and observes
/// every site.
struct QuantizedDomain;

impl ActivationHook for QuantizedDomain {
    fn on_activation(&mut self, _tap: Tap, _activation: &mut Tensor2) {}

    fn quantized_matmul(&self, _tap: Tap) -> Option<QuantScheme> {
        Some(QuantScheme::int8_with_outliers(4))
    }
}

/// Rewrites every activation it is shown token by token, the way
/// `AaqHook` does, at its group's paper scheme, and observes every site.
struct FakeQuant;

impl ActivationHook for FakeQuant {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        let channels = activation.cols();
        if channels >= 2 {
            let mut scheme = AaqConfig::paper().scheme_for(tap.group());
            scheme.outliers = scheme.outliers.min(channels - 1);
            fake_quantize_tokens(activation, scheme);
        }
    }
}

#[test]
fn a_warm_fold_holds_the_stream_one_pair_tensor_and_row_blocks() {
    // Standard widths at L = 96. What a warm fold has live at its peak,
    // above what its thread held before its first fold: the workspace's
    // retained buffers plus the warm fold's own high-water mark. Allowed:
    // the stream, one pair tensor (triangular multiplication's packed
    // operand), three blocks of whole rows (the stages' largest set on
    // loan at once) and one hidden block of the transition — which here
    // shares the free pair-sized buffer, so it stands for the bias
    // matrices, the lane scratch and the sequence track's `(Ns, Hm)`
    // activations (0.29 P together) — and, under a hook that observes
    // every site, the whole post-LN activation it may rewrite, or, in the
    // quantized domain, the encoded one, whose f32 copy is dropped once
    // the hook has seen it. It reads 2.63 P, 3.52 P (tri-mul's packed
    // operand beside `x`) and 2.99 P; before post-LN rows were recomputed
    // on demand, noop and quantized domain read 3.52 P and 3.89 P — a
    // second pair tensor on loan breaks the bound.
    let cfg = PpmConfig::standard();
    let ns = 96;
    let scheme = QuantScheme::int8_with_outliers(4);
    let pair = ns * ns * cfg.hz * 4;
    let rows_block = 1024usize.div_ceil(ns) * ns * cfg.hz * 4;
    let hidden_block = 1024 * cfg.hz * cfg.transition_factor * 4;
    let x = Tensor2::from_fn(ns * ns, cfg.hz, |t, c| ((t * 7 + c * 3) % 11) as f32 - 5.0);
    let (encoded, _) = counting_alloc::bytes_kept_by(|| QuantizedTensor::encode(&x, scheme).0);
    drop(x);
    let _hwm = SCRATCH_HWM.lock().unwrap_or_else(|e| e.into_inner());
    let model = FoldingModel::new(cfg);
    let seq = Sequence::random("large_allocs", ns);
    let native = StructureGenerator::new("large_allocs").generate(ns);
    with_pool(&Pool::new_exact(1), || {
        let fold = |hook: &mut dyn ActivationHook| {
            drop(model.predict_with_hook(&seq, &native, hook).expect("folds"));
        };
        // The kernels' per-thread packing buffers come and stay first.
        fold(&mut NoopHook);
        let hooks: [(&str, Box<dyn ActivationHook>, usize); 3] = [
            ("noop", Box::new(NoopHook), 0),
            ("fake-quant", Box::new(FakeQuant), pair),
            ("quantized-domain", Box::new(QuantizedDomain), encoded),
        ];
        for (name, mut hook, extra) in hooks {
            release_fold_workspace();
            let (retained, ()) = counting_alloc::bytes_kept_by(|| fold(hook.as_mut()));
            let (peak, ()) = counting_alloc::peak_live_bytes_in(|| fold(hook.as_mut()));
            let bound = 2 * pair + 3 * rows_block + hidden_block + extra;
            let p = |bytes: usize| bytes as f64 / pair as f64;
            assert!(
                retained + peak <= bound,
                "{name}: {:.2} P live ({:.2} P retained), at most {:.2} P allowed",
                p(retained + peak),
                p(retained),
                p(bound),
            );
        }
    });
}
