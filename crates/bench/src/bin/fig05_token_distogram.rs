//! Fig. 5 — activation value distributions: similar across channels,
//! wildly different across tokens (the token-wise distogram pattern that
//! motivates token-wise quantization, §3.3).

use lightnobel::report::Table;
use ln_bench::{banner, paper_note, show};
use ln_datasets::{Dataset, Registry};
use ln_ppm::taps::{ActivationGroup, RecordingHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_tensor::stats;

fn main() {
    banner("Fig. 5: channel-wise vs token-wise activation distributions");
    paper_note(
        "channels share similar ranges; tokens differ strongly, with 3-sigma outliers \
         concentrated at specific (close-pair) positions",
    );

    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    let (seq, native) = record.inputs(96);

    let model = FoldingModel::new(PpmConfig::standard());
    let mut hook = RecordingHook::new();
    model
        .predict_with_hook(&seq, &native, &mut hook)
        .expect("workload is valid");

    // First Group-A tap: the residual stream the paper plots.
    let rec = hook
        .records()
        .iter()
        .find(|r| r.tap.group() == ActivationGroup::A)
        .expect("Group A taps fire");

    // Token-axis statistics.
    let t = stats::Summary::of(&rec.token_mean_abs);
    let mut table = Table::new(["axis", "min mean|x|", "max mean|x|", "dispersion (cv)"]);
    let token_cv = if t.mean > 0.0 { t.std / t.mean } else { 0.0 };
    table.add_row([
        "tokens".to_owned(),
        format!("{:.3}", t.min),
        format!("{:.3}", t.max),
        format!("{token_cv:.3}"),
    ]);
    println!(
        "activation: {} tokens x {} channels, mean|x|={:.2}, max|x|={:.2}, \
         mean outliers/token={:.2}",
        rec.tokens, rec.channels, rec.mean_abs, rec.max_abs, rec.mean_outliers_per_token
    );
    show(&table);
    println!(
        "shape check: token dispersion {token_cv:.2} with a {:.0}x spread between the \
         smallest and largest token — the distogram pattern.",
        t.max / t.min.max(1e-6)
    );
}
