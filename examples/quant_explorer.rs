//! Quantization explorer: dissects the token-wise distogram pattern in the
//! PPM's activations and shows what each quantization scheme does to them —
//! the reasoning behind AAQ (§3.3, §4).
//!
//! ```bash
//! cargo run --release --example quant_explorer
//! ```

use lightnobel::report::Table;
use ln_datasets::{Dataset, Registry};
use ln_ppm::taps::{ActivationGroup, RecordingHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_quant::scheme::QuantScheme;
use ln_quant::token::{quantization_rmse, quantize_token};
use ln_tensor::stats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = Registry::standard();
    let record = registry.dataset(Dataset::Cameo).shortest();
    let (sequence, native) = record.inputs(80);

    // Capture all activations of a full forward pass.
    let model = FoldingModel::new(PpmConfig::standard());
    let mut hook = RecordingHook::new();
    let out = model.predict_with_hook(&sequence, &native, &mut hook)?;

    println!("1. The token-wise distogram pattern (Group A residual stream):\n");
    let rec = hook
        .records()
        .iter()
        .find(|r| r.tap.group() == ActivationGroup::A)
        .expect("Group A fires");
    let s = stats::Summary::of(&rec.token_mean_abs);
    println!(
        "   {} tokens: per-token mean|x| spans {:.3} .. {:.3} ({}x), \
         {:.2} outliers/token on average\n",
        rec.tokens,
        s.min,
        s.max,
        (s.max / s.min.max(1e-6)) as u32,
        rec.mean_outliers_per_token
    );

    println!("2. One spiky token under different schemes:\n");
    let tokens = out.pair_rep.to_token_matrix();
    // Find the token with the largest max|x| — a close pair.
    let spiky = (0..tokens.rows())
        .max_by(|&a, &b| {
            let ma = tokens.row(a).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let mb = tokens.row(b).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            ma.partial_cmp(&mb).expect("finite")
        })
        .expect("non-empty");
    let row = tokens.row(spiky);
    let mut table = Table::new(["scheme", "bytes/token", "compression", "max |error|"]);
    for scheme in [
        QuantScheme::int8_with_outliers(4),
        QuantScheme::int8_with_outliers(0),
        QuantScheme::int4_with_outliers(4),
        QuantScheme::int4_with_outliers(0),
    ] {
        let q = quantize_token(row, scheme);
        let back = q.dequantize();
        let max_err = row
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        table.add_row([
            scheme.to_string(),
            scheme.token_bytes(row.len()).to_string(),
            format!("{:.2}x", scheme.compression_vs_fp16(row.len())),
            format!("{max_err:.4}"),
        ]);
    }
    print!("{}", table.render());

    println!("\n3. Whole-tensor RMSE per scheme (why AAQ assigns INT8 to Group A):\n");
    let mut table = Table::new(["scheme", "pair-rep RMSE"]);
    for scheme in [
        QuantScheme::int8_with_outliers(4),
        QuantScheme::int4_with_outliers(4),
        QuantScheme::int4_with_outliers(0),
        QuantScheme::int8_with_outliers(0),
    ] {
        table.add_row([
            scheme.to_string(),
            format!("{:.5}", quantization_rmse(&tokens, scheme)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nOutlier handling rescues the spiky tokens; INT8 inliers protect the wide \
         residual stream — exactly the Fig. 11 design points."
    );
    Ok(())
}
