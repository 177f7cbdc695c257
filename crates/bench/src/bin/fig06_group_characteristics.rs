//! Fig. 6(c) — per-group activation characteristics: Group A carries large
//! values (paper mean ≈ 82.14) with ≈ 2.31 outliers/token; Group B is
//! LayerNorm-compressed (≈ 4.05, ≈ 1.69 outliers); Group C is small with
//! < 1 outlier/token.

use lightnobel::report::Table;
use ln_bench::{banner, paper_note, show};
use ln_datasets::{Dataset, Registry};
use ln_ppm::taps::{ActivationGroup, ActivationSite, RecordingHook, TapRecord};
use ln_ppm::{FoldingModel, PpmConfig};

fn main() {
    banner("Fig. 6(c): activation group characteristics");
    paper_note("A: avg 82.14, 2.31 outliers/token; B: 4.05, 1.69; C: 3.85, 0.64");

    let reg = Registry::standard();
    let model = FoldingModel::new(PpmConfig::standard());
    let mut hook = RecordingHook::new();
    for record in reg.dataset(Dataset::Cameo).records().iter().take(3) {
        let (seq, native) = record.inputs(80);
        model
            .predict_with_hook(&seq, &native, &mut hook)
            .expect("workload is valid");
    }

    let mut table = Table::new([
        "group",
        "taps",
        "mean |x|",
        "max |x|",
        "mean outliers/token",
    ]);
    // One entry per tap of a unit: blocked sites are recorded a row block
    // or a lane at a time, interleaved with other sites, and a tap's
    // blocks merge token-weighted. Each unit opens on its residual stream
    // (Group A, always whole), and a tap fires in one unit only once.
    let mut taps: Vec<TapRecord> = Vec::new();
    let mut unit = 0;
    for r in hook.into_records() {
        if r.tap.group() == ActivationGroup::A {
            unit = taps.len();
        }
        match taps[unit..].iter_mut().find(|t| t.tap == r.tap) {
            Some(t) => {
                let (a, b) = (t.tokens as f32, r.tokens as f32);
                t.mean_abs = (t.mean_abs * a + r.mean_abs * b) / (a + b);
                t.mean_outliers_per_token =
                    (t.mean_outliers_per_token * a + r.mean_outliers_per_token * b) / (a + b);
                t.max_abs = t.max_abs.max(r.max_abs);
                t.tokens += r.tokens;
                t.token_mean_abs.extend(r.token_mean_abs);
            }
            _ => taps.push(r),
        }
    }
    for group in [ActivationGroup::A, ActivationGroup::B, ActivationGroup::C] {
        let recs: Vec<_> = taps
            .iter()
            .filter(|r| r.tap.group() == group && r.tap.site != ActivationSite::TriAttnScores)
            .collect();
        let n = recs.len() as f32;
        let mean_abs = recs.iter().map(|r| r.mean_abs).sum::<f32>() / n;
        let max_abs = recs.iter().map(|r| r.max_abs).fold(0.0f32, f32::max);
        let outliers = recs.iter().map(|r| r.mean_outliers_per_token).sum::<f32>() / n;
        table.add_row([
            group.to_string(),
            recs.len().to_string(),
            format!("{mean_abs:.2}"),
            format!("{max_abs:.2}"),
            format!("{outliers:.2}"),
        ]);
    }
    show(&table);
    println!(
        "shape check: A >> B ≈ C in magnitude; outlier density A > B > C with C < 1 — \
         the classification AAQ's per-group schemes rely on."
    );
}
