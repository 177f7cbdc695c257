//! Fig. 13 — TM-Score across datasets when each quantization scheme is
//! applied to the PPM.

use lightnobel::accuracy::{AccuracyEvaluator, SchemeUnderTest};
use lightnobel::report::{fmt_tm, fmt_tm_delta, Table};
use ln_bench::{banner, paper_note, show};
use ln_datasets::{Dataset, Registry};

fn main() {
    banner("Fig. 13: accuracy (TM-Score) across datasets x quantization schemes");
    paper_note(
        "Tender and MEFold degrade TM significantly; SmoothQuant/LLM.int8()/PTQ4Protein \
         lose < 0.002; AAQ loses < 0.001 at the smallest footprint",
    );

    let reg = Registry::standard();
    let eval = AccuracyEvaluator::standard();
    // Ground-truth datasets only (the paper excludes CASP16 here).
    let datasets = [Dataset::Cameo, Dataset::Casp14, Dataset::Casp15];

    let mut table = Table::new([
        "scheme",
        "dataset",
        "TM (quantized)",
        "TM (FP32 ref)",
        "TM delta",
        "TM vs ref",
        "pair RMSE",
    ]);
    // Each record's FP32 reference is folded once and every scheme is
    // scored against it.
    let schemes = SchemeUnderTest::all_fig13();
    let per_dataset: Vec<_> = datasets
        .iter()
        .map(|&ds| {
            let records: Vec<&ln_datasets::ProteinRecord> =
                reg.dataset(ds).records().iter().take(2).collect();
            eval.evaluate_mean(&schemes, &records)
                .expect("evaluation runs")
        })
        .collect();
    for (s, scheme) in schemes.iter().enumerate() {
        for (&ds, results) in datasets.iter().zip(&per_dataset) {
            let r = results[s];
            table.add_row([
                scheme.name(),
                ds.name().to_owned(),
                fmt_tm(r.tm_vs_native),
                fmt_tm(r.baseline_tm_vs_native),
                fmt_tm_delta(r.tm_delta()),
                fmt_tm(r.tm_vs_baseline),
                format!("{:.5}", r.pair_rmse),
            ]);
        }
    }
    show(&table);
    println!(
        "shape check: AAQ stays closest to the FP32 reference among sub-INT8 schemes; \
         Tender (channel-wise INT4) and MEFold degrade most."
    );
}
