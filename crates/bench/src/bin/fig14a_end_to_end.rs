//! Fig. 14(a) — end-to-end performance across recent PPM systems on
//! CASP16 proteins shorter than 1 410 residues (the single-GPU limit),
//! plus the LightNobel row.

use lightnobel::perf::PerfComparison;
use lightnobel::report::{fmt_ratio, fmt_seconds, Table};
use ln_bench::{banner, paper_note, show};
use ln_datasets::{Dataset, Registry};
use ln_gpu::esmfold::EsmFoldGpuModel;
use ln_gpu::systems::system_comparison;
use ln_gpu::H100;

fn main() {
    banner("Fig. 14(a): end-to-end PPM system comparison (CASP16 <= 1410, H100)");
    paper_note(
        "LightNobel outperforms MEFold 8.22x and ESMFold 1.11x on the folding block, \
         AlphaFold2 141.37x and ESMFold 1.74x end-to-end",
    );

    let reg = Registry::standard();
    let lengths: Vec<usize> = reg
        .dataset(Dataset::Casp16)
        .with_max_length(1410)
        .iter()
        .map(|r| r.length())
        .collect();
    let baseline = EsmFoldGpuModel::new(H100);
    let perf = PerfComparison::paper();

    // LightNobel: folding on the accelerator; embedding (the language
    // model) and structure module run host-side with equalised transfer
    // latency, as in the paper.
    let mut ln_fold = 0.0;
    let mut ln_e2e = 0.0;
    for &ns in &lengths {
        let fold = perf.lightnobel_folding_seconds(ns);
        ln_fold += fold;
        ln_e2e += baseline.embedding_seconds(ns) + fold + baseline.structure_seconds(ns);
    }
    let n = lengths.len() as f64;
    ln_fold /= n;
    ln_e2e /= n;

    let mut table = Table::new([
        "system",
        "end-to-end",
        "folding block",
        "LN e2e speedup",
        "LN folding speedup",
    ]);
    for (sys, e2e, fold) in system_comparison(H100, &lengths) {
        table.add_row([
            sys.name().to_owned(),
            fmt_seconds(e2e),
            fmt_seconds(fold),
            fmt_ratio(e2e / ln_e2e),
            fmt_ratio(fold / ln_fold),
        ]);
    }
    table.add_row([
        "LightNobel".to_owned(),
        fmt_seconds(ln_e2e),
        fmt_seconds(ln_fold),
        fmt_ratio(1.0),
        fmt_ratio(1.0),
    ]);
    show(&table);
    println!(
        "shape check: LightNobel has the fastest folding block; among LM-embedding \
         systems it is fastest end-to-end; the AlphaFold family trails by orders of \
         magnitude due to database search."
    );
}
