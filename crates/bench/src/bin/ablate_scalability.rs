//! §9.1 — scalability comparison against MEFold and PTQ4Protein: peak
//! memory at their published operating points.

use lightnobel::footprint::FootprintModel;
use lightnobel::perf::PerfComparison;
use lightnobel::report::{fmt_gb, fmt_ratio, Table};
use ln_bench::{banner, paper_note, show};
use ln_quant::baselines::BaselineScheme;

fn main() {
    banner("§9.1: peak-memory scalability vs MEFold and PTQ4Protein");
    paper_note(
        "MEFold: 78.7 GB at 2,828 aa — LightNobel does the same in 12.1 GB (6.05x); \
         PTQ4Protein: 11.6 GB at 700 aa — LightNobel needs 7.1 GB (1.63x)",
    );

    let perf = PerfComparison::paper();
    let mut table = Table::new([
        "operating point",
        "prior work peak",
        "LightNobel peak",
        "scalability gain",
    ]);

    // MEFold @2828: weight-only quantization, chunked activations. Its
    // INT4 weights are priced as Table 1 prices them.
    let mefold_peak = {
        let (_, chunk, _) = perf.peak_memory(2828);
        chunk - perf.accel().cost().total_weight_bytes_fp16()
            + FootprintModel::paper().baseline_weight_bytes(BaselineScheme::MeFold)
    };
    let ln_2828 = perf.peak_memory(2828).2;
    table.add_row([
        "MEFold @2828".to_owned(),
        fmt_gb(mefold_peak),
        fmt_gb(ln_2828),
        fmt_ratio(mefold_peak / ln_2828),
    ]);

    // PTQ4Protein @700: INT8 activations+weights, vanilla dataflow.
    let ptq_peak = {
        let (vanilla, _, _) = perf.peak_memory(700);
        vanilla * 0.5
    };
    let ln_700 = perf.peak_memory(700).2;
    table.add_row([
        "PTQ4Protein @700".to_owned(),
        fmt_gb(ptq_peak),
        fmt_gb(ln_700),
        fmt_ratio(ptq_peak / ln_700),
    ]);
    show(&table);
    println!("shape check: LightNobel holds the smaller peak at both operating points, with the gap widening at longer sequences.");
}
