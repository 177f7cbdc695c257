//! Cross-crate accuracy integration: scheme ordering over real dataset
//! records, multimer folding through the quantized pipeline, and PDB
//! export of a prediction.

use lightnobel::accuracy::{AccuracyEvaluator, SchemeUnderTest};
use lightnobel::hook::AaqHook;
use ln_datasets::{Dataset, Registry};
use ln_ppm::multimer::Multimer;
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::{metrics, pdb, Sequence};
use ln_quant::baselines::BaselineScheme;

#[test]
fn scheme_accuracy_ordering_reproduces_fig13() {
    // The Fig. 13 ordering, asserted end to end on a dataset record:
    // INT8-class schemes and AAQ are lossless; MEFold and Tender lose TM.
    let eval = AccuracyEvaluator::fast();
    let reg = Registry::standard();
    let record = reg
        .dataset(Dataset::Cameo)
        .records()
        .first()
        .expect("non-empty");

    let aaq = eval
        .evaluate(&SchemeUnderTest::aaq_paper(), record)
        .expect("runs");
    let smooth = eval
        .evaluate(
            &SchemeUnderTest::Baseline(BaselineScheme::SmoothQuant),
            record,
        )
        .expect("runs");
    let tender = eval
        .evaluate(&SchemeUnderTest::Baseline(BaselineScheme::Tender), record)
        .expect("runs");
    let mefold = eval
        .evaluate(&SchemeUnderTest::Baseline(BaselineScheme::MeFold), record)
        .expect("runs");

    assert!(aaq.tm_vs_baseline > 0.99, "AAQ {}", aaq.tm_vs_baseline);
    assert!(
        smooth.tm_vs_baseline > 0.99,
        "SmoothQuant {}",
        smooth.tm_vs_baseline
    );
    assert!(
        tender.tm_vs_baseline < aaq.tm_vs_baseline - 0.01,
        "Tender must degrade: {} vs {}",
        tender.tm_vs_baseline,
        aaq.tm_vs_baseline
    );
    assert!(
        mefold.tm_vs_native < mefold.baseline_tm_vs_native - 0.005,
        "MEFold must lose TM vs native: {} vs {}",
        mefold.tm_vs_native,
        mefold.baseline_tm_vs_native
    );
}

#[test]
fn quantized_multimer_folding_works_end_to_end() {
    // Fold a complex through the AAQ-quantized trunk and export it.
    let dimer = Multimer::new(vec![
        Sequence::random("int-dimer/a", 20),
        Sequence::random("int-dimer/b", 16),
    ]);
    let model = FoldingModel::new(PpmConfig::tiny());
    let seq = dimer.combined_sequence();
    let native = dimer.native_structure("int-dimer");

    let reference = model.predict(&seq, &native).expect("folds");
    let mut hook = AaqHook::paper();
    let quantized = model
        .predict_with_hook(&seq, &native, &mut hook)
        .expect("folds");
    let tm = metrics::tm_score(&quantized.structure, &reference.structure)
        .expect("same length")
        .score;
    assert!(tm > 0.9, "quantized complex tracks reference: {tm}");

    // Chain extraction + PDB export of the quantized prediction.
    let chains = dimer
        .split_chains(&quantized.structure)
        .expect("lengths match");
    let text = pdb::to_pdb(&chains[1], &dimer.chains()[1], 'B');
    let parsed = pdb::from_pdb(&text).expect("own output parses");
    assert_eq!(parsed.len(), 16);
}

#[test]
fn quantization_byte_accounting_matches_scheme_formulas() {
    // The hook's encoded-byte counter must agree with the layout formulas:
    // every Hz-wide tap contributes token_bytes(scheme) per token.
    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    let (seq, native) = record.inputs(32);
    let model = FoldingModel::new(PpmConfig::tiny());
    let mut hook = AaqHook::paper();
    model
        .predict_with_hook(&seq, &native, &mut hook)
        .expect("folds");
    assert!(hook.encoded_bytes() > 0);
    // Compression against FP16 must sit between the best single-scheme
    // compression (INT4+0 ≈ 3.8x) and none.
    let ratio = hook.fp16_bytes() as f64 / hook.encoded_bytes() as f64;
    assert!((1.0..4.0).contains(&ratio), "compression {ratio}");
}
