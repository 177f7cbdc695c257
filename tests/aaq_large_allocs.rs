//! A warm AAQ fold asks the allocator for no more large blocks than it
//! needs: the quantizing hook holds no copy of what it quantizes.
//!
//! The AAQ twin of `crates/ppm/tests/large_allocs.rs` (which cannot see
//! `lightnobel`), on the same shared counting global allocator: the
//! allocations of at least 64 KiB the second fold makes under a one-thread
//! pool are pinned, at L = 32 and at L = 48 (where the pair transition's
//! hidden activation takes three row blocks) alike. When `AaqHook` kept a
//! clone of every activation to measure the error afterwards, each tap of
//! 16 K values or more added one: 70 a fold at L = 32, on top of what is
//! pinned here.

use lightnobel::hook::AaqHook;
use ln_par::{with_pool, Pool};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// As in `large_allocs.rs`: well under one pair tensor at L = 32
/// (512 KiB), well over every per-head buffer.
const LARGE: usize = 64 << 10;

/// ≥ 64 KiB allocations in the second fold at `ns` under `hook`.
fn warm_fold_large_allocations(hook: AaqHook, ns: usize) -> u64 {
    let model = FoldingModel::new(PpmConfig::standard());
    let seq = Sequence::random("aaq_large_allocs", ns);
    let native = StructureGenerator::new("aaq_large_allocs").generate(ns);
    with_pool(&Pool::new_exact(1), || {
        let fold = || model.predict_with_hook(&seq, &native, &mut hook.clone());
        let first = fold().expect("folds");
        let (warm, second) = counting_alloc::allocations_in(LARGE, fold);
        assert_eq!(first, second.expect("folds"));
        warm
    })
}

#[test]
fn a_warm_fake_quant_fold_makes_few_large_allocations() {
    // The 5 a `NoopHook` fold makes (`WARM_FOLD_LARGE_ALLOCATIONS` in
    // `large_allocs.rs`, itemised there): the hook adds none.
    const WARM_AAQ_FOLD_LARGE_ALLOCATIONS: u64 = 5;
    for ns in [32, 48] {
        assert_eq!(
            warm_fold_large_allocations(AaqHook::paper(), ns),
            WARM_AAQ_FOLD_LARGE_ALLOCATIONS,
            "L = {ns}"
        );
    }
}

#[test]
fn a_warm_quantized_domain_fold_makes_few_large_allocations() {
    // The same 5, and at each of the ten post-LayerNorm taps of two
    // blocks the `QuantizedTensor` the integer GEMMs read: its level panel
    // (256 KiB at L = 32), encoded once however many row blocks read it.
    // Its scales and outliers (8 and 12 KiB at L = 32) stay under the
    // threshold, and there is no per-token vector beside them.
    const WARM_QDOMAIN_FOLD_LARGE_ALLOCATIONS: u64 = 5 + 10;
    for ns in [32, 48] {
        assert_eq!(
            warm_fold_large_allocations(AaqHook::paper().with_quantized_domain(), ns),
            WARM_QDOMAIN_FOLD_LARGE_ALLOCATIONS,
            "L = {ns}"
        );
    }
}
