//! Cross-crate integration tests: the full pipeline from dataset record to
//! TM-Score, with and without quantization.

use lightnobel::accuracy::{AccuracyEvaluator, SchemeUnderTest};
use lightnobel::hook::AaqHook;
use ln_datasets::{Dataset, Registry};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::metrics;
use ln_quant::baselines::BaselineScheme;
use ln_scope::{Scope, ScopeHook, SensitivityModel};

fn workload(max_len: usize) -> (ln_protein::Sequence, ln_protein::Structure) {
    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    record.inputs(max_len)
}

#[test]
fn dataset_to_structure_full_pipeline() {
    let (seq, native) = workload(64);
    let model = FoldingModel::new(PpmConfig::standard());
    let out = model.predict(&seq, &native).expect("pipeline runs");
    assert_eq!(out.structure.len(), seq.len());
    let tm = metrics::tm_score(&out.structure, &native)
        .expect("same length")
        .score;
    assert!(tm > 0.6, "end-to-end baseline TM {tm}");
}

#[test]
fn aaq_pipeline_tracks_baseline_closely() {
    let (seq, native) = workload(64);
    let model = FoldingModel::new(PpmConfig::standard());
    let reference = model.predict(&seq, &native).expect("baseline runs");
    let mut hook = AaqHook::paper();
    let quantized = model
        .predict_with_hook(&seq, &native, &mut hook)
        .expect("AAQ runs");
    let tm = metrics::tm_score(&quantized.structure, &reference.structure)
        .expect("same length")
        .score;
    assert!(tm > 0.9, "AAQ vs baseline TM {tm}");
    // The hook really quantized: byte accounting is live and compressive.
    assert!(hook.encoded_bytes() > 0);
    assert!((hook.encoded_bytes() as f64) < 0.8 * hook.fp16_bytes() as f64);
}

#[test]
fn scheme_quality_ordering_is_stable() {
    // AAQ must track the FP32 reference at least as well as the aggressive
    // channel-wise INT4 baseline (Tender), which the paper shows degrading.
    let eval = AccuracyEvaluator::fast();
    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    let aaq = eval
        .evaluate(&SchemeUnderTest::aaq_paper(), record)
        .expect("AAQ runs");
    let tender = eval
        .evaluate(&SchemeUnderTest::Baseline(BaselineScheme::Tender), record)
        .expect("Tender runs");
    assert!(
        aaq.pair_rmse <= tender.pair_rmse,
        "AAQ rmse {} vs Tender rmse {}",
        aaq.pair_rmse,
        tender.pair_rmse
    );
}

#[test]
fn determinism_across_full_stack() {
    let (seq, native) = workload(48);
    let model = FoldingModel::new(PpmConfig::tiny());
    let a = model.predict(&seq, &native).expect("runs");
    let b = model.predict(&seq, &native).expect("runs");
    assert_eq!(a.pair_rep, b.pair_rep);
    assert_eq!(a.structure, b.structure);
    // And with quantization hooks.
    let mut h1 = AaqHook::paper();
    let mut h2 = AaqHook::paper();
    let qa = model
        .predict_with_hook(&seq, &native, &mut h1)
        .expect("runs");
    let qb = model
        .predict_with_hook(&seq, &native, &mut h2)
        .expect("runs");
    assert_eq!(qa.structure, qb.structure);
    assert_eq!(h1.encoded_bytes(), h2.encoded_bytes());
}

#[test]
fn a_fold_observed_without_probes_recommends_fp32_everywhere() {
    let _guard = ln_obs::pin_level(ln_obs::ObsLevel::Counters);
    let (seq, native) = workload(24);
    let model = FoldingModel::new(PpmConfig::tiny());
    let fold = |mut hook: ScopeHook<AaqHook>| {
        model
            .predict_with_hook(&seq, &native, &mut hook)
            .expect("runs");
        ln_insight::precision_rows(&Scope::from_hook(hook))
    };
    // A budget every measured probe fits: only a missing probe says fp32.
    let (budget, sensitivity) = (1.0, SensitivityModel::default());
    let probed = fold(ScopeHook::new(AaqHook::paper(), seq.len()));
    assert!(probed
        .iter()
        .any(|row| row.recommend(budget, &sensitivity) != "fp32"));

    let unprobed = fold(ScopeHook::new(AaqHook::paper(), seq.len()).without_probes());
    assert_eq!(unprobed.len(), probed.len(), "one row per ledger cell");
    for row in &unprobed {
        assert_eq!(row.probe_rmse(0), None, "{} {}", row.layer(), row.stage);
        assert_eq!(row.recommend(budget, &sensitivity), "fp32");
    }
}
