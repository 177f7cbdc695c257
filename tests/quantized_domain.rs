//! End-to-end guarantees for the quantized-domain execution path: the
//! PPM trunk running its post-LayerNorm matmuls on AAQ-encoded integer
//! blocks (the software edition of the paper's RMPU dataflow) must match
//! the dequantize-then-FP32 reference in accuracy and stay bitwise
//! pool-invariant like every other kernel.

use lightnobel::hook::AaqHook;
use ln_datasets::{Dataset, Registry};
use ln_par::{with_pool, Pool};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::{metrics, Sequence, Structure};

/// Golden-fold inputs shared by both tests: a real dataset record
/// truncated to an integration-test-sized prefix, with its deterministic
/// native structure.
fn golden_fold() -> (Sequence, Structure) {
    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    record.inputs(32)
}

fn coord_bits(s: &Structure) -> Vec<u64> {
    s.coords()
        .iter()
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

#[test]
fn quantized_domain_tm_delta_is_under_a_thousandth() {
    // The paper's accuracy claim for the integer dataflow: running the
    // trunk's matmuls in the quantized domain (INT8 direct, INT4
    // bit-chunked) instead of dequantizing first moves the fold by less
    // than 0.001 TM-Score on the golden fold.
    let (seq, native) = golden_fold();
    let model = FoldingModel::new(PpmConfig::tiny());

    let mut fp_hook = AaqHook::paper();
    let fp = model
        .predict_with_hook(&seq, &native, &mut fp_hook)
        .expect("reference AAQ fold runs");

    let mut q_hook = AaqHook::paper().with_quantized_domain();
    let q = model
        .predict_with_hook(&seq, &native, &mut q_hook)
        .expect("quantized-domain fold runs");

    // Structural agreement between the two paths.
    let tm_between = metrics::tm_score(&q.structure, &fp.structure)
        .expect("same length")
        .score;
    assert!(
        tm_between > 0.999,
        "quantized-domain fold drifted from the FP path: TM {tm_between}"
    );

    // And the delta in accuracy-vs-native each path reports.
    let tm_fp = metrics::tm_score(&fp.structure, &native)
        .expect("same length")
        .score;
    let tm_q = metrics::tm_score(&q.structure, &native)
        .expect("same length")
        .score;
    assert!(
        (tm_fp - tm_q).abs() < 0.001,
        "TM-vs-native delta too large: fp {tm_fp} vs quantized-domain {tm_q}"
    );

    // Sanity: the quantized-domain hook actually observed and encoded
    // activations (the path under test really ran).
    assert!(q_hook.encoded_bytes() > 0);
}

#[test]
fn quantized_domain_fold_is_bitwise_pool_invariant() {
    // The integer matmuls chunk by output rows with a fixed k-ascending
    // summation order, so the whole quantized-domain fold must be
    // byte-identical across pool sizes — same contract as the FP kernels
    // in tests/par_determinism.rs.
    let (seq, native) = golden_fold();
    let model = FoldingModel::new(PpmConfig::tiny());
    let fold = || {
        let mut hook = AaqHook::paper().with_quantized_domain();
        let out = model
            .predict_with_hook(&seq, &native, &mut hook)
            .expect("quantized-domain fold runs");
        coord_bits(&out.structure)
    };
    let serial = with_pool(&Pool::new(1), fold);
    for threads in [2, 4] {
        let parallel = with_pool(&Pool::new_exact(threads), fold);
        assert_eq!(serial, parallel, "diverged at pool size {threads}");
    }
}
