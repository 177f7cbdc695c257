//! §3.3 ablation — quantization granularity: token-wise vs channel-wise vs
//! tensor-wise on real trunk activations.
//!
//! The paper's core statistical observation is that PPM activations vary by
//! *token*, not by channel, so the scaling factor should be per token. This
//! ablation quantizes the same Group-A activation three ways (with the same
//! outlier budget) and reports the error.

use lightnobel::report::Table;
use ln_bench::{banner, paper_note, show};
use ln_datasets::{Dataset, Registry};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_quant::scheme::QuantScheme;
use ln_quant::token::quantization_rmse;
use ln_tensor::{stats, Tensor2};

/// Channel-wise symmetric quantization (runtime max, no calibration clip —
/// the *best case* for channel-wise).
fn channel_wise_rmse(x: &Tensor2, levels: f32) -> f64 {
    let cols = x.cols();
    let mut channel_max = vec![0.0f32; cols];
    for i in 0..x.rows() {
        for (j, &v) in x.row(i).iter().enumerate() {
            channel_max[j] = channel_max[j].max(v.abs());
        }
    }
    let mut err = 0.0f64;
    for i in 0..x.rows() {
        for (j, &v) in x.row(i).iter().enumerate() {
            let s = if channel_max[j] > 0.0 {
                channel_max[j] / levels
            } else {
                1.0
            };
            let q = (v / s).round().clamp(-levels, levels) * s;
            err += ((v - q) as f64).powi(2);
        }
    }
    (err / x.len() as f64).sqrt()
}

fn tensor_wise_rmse(x: &Tensor2, levels: f32) -> f64 {
    let max = x.max_abs();
    let s = if max > 0.0 { max / levels } else { 1.0 };
    let mut err = 0.0f64;
    for &v in x.as_slice() {
        let q = (v / s).round().clamp(-levels, levels) * s;
        err += ((v - q) as f64).powi(2);
    }
    (err / x.len() as f64).sqrt()
}

fn main() {
    banner("§3.3 ablation: quantization granularity on a Group-A activation");
    paper_note(
        "tokens differ strongly while channels are similar, so token-wise scaling \
         minimises error — the basis for AAQ's grouping choice",
    );

    let reg = Registry::standard();
    let record = reg.dataset(Dataset::Cameo).shortest();
    let (seq, native) = record.inputs(96);
    let model = FoldingModel::new(PpmConfig::standard());
    let out = model.predict(&seq, &native).expect("workload folds");
    let tokens = out.pair_rep.to_token_matrix();

    // The token-wise distogram pattern, quantified.
    let token_means: Vec<f32> = (0..tokens.rows())
        .map(|i| stats::Summary::of(tokens.row(i)).mean_abs)
        .collect();
    let spread = stats::Summary::of(&token_means);
    println!(
        "token mean|x| spread: {:.2} .. {:.2} ({}x) over {} tokens\n",
        spread.min,
        spread.max,
        (spread.max / spread.min.max(1e-6)) as u32,
        tokens.rows()
    );

    let mut table = Table::new(["granularity", "INT8 RMSE", "INT8+4o RMSE"]);
    table.add_row([
        "token-wise (AAQ)".to_owned(),
        format!(
            "{:.5}",
            quantization_rmse(&tokens, QuantScheme::int8_with_outliers(0))
        ),
        format!(
            "{:.5}",
            quantization_rmse(&tokens, QuantScheme::int8_with_outliers(4))
        ),
    ]);
    table.add_row([
        "channel-wise".to_owned(),
        format!("{:.5}", channel_wise_rmse(&tokens, 127.0)),
        "n/a (static scales cannot track token outliers)".to_owned(),
    ]);
    table.add_row([
        "tensor-wise".to_owned(),
        format!("{:.5}", tensor_wise_rmse(&tokens, 127.0)),
        "n/a".to_owned(),
    ]);
    show(&table);
    println!(
        "shape check: plain token-wise and best-case (runtime-max) channel-wise are \
         comparable, but only token-wise scales can be set dynamically at runtime — \
         enabling the outlier handling that wins decisively (and real channel-wise \
         schemes must use calibrated scales, which clip the PPM's unpredictable token \
         outliers; see the Tender row of fig13_accuracy)."
    );
}
