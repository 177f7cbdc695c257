//! Seeded property tests for the PPM substrate: each property runs over
//! `CASES` inputs drawn from `ln_tensor::rng` streams keyed by the
//! property's name and the case index, so a failure names a case that
//! replays. Three end-to-end checks on the tiny model follow them.

use ln_ppm::blocks::chunked_attention;
use ln_ppm::cost::{CostModel, ExecMode, ALL_STAGES};
use ln_ppm::structure_module::{complete_distances, decode_structure, mds_embed};
use ln_ppm::taps::{NoopHook, RecordingHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::{metrics, Sequence};
use ln_tensor::rng::{self, Rng, StdRng};
use ln_tensor::{nn, Tensor2};

const CASES: u64 = 24;

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("ppm/properties/{name}"), case);
        property(case, &mut rng);
    }
}

#[test]
fn chunked_attention_equals_full_for_any_chunk() {
    for_each_case("chunked_attention", |case, rng| {
        let n = rng.gen_range(2..16usize);
        let dim = rng.gen_range(1..8usize);
        let chunk = rng.gen_range(1..20usize);
        let seed = rng.gen_range(0..50usize);
        let f = |i: usize, j: usize| ((i * 31 + j * 17 + seed) % 23) as f32 * 0.17 - 1.9;
        let q = Tensor2::from_fn(n, dim, f);
        let k = Tensor2::from_fn(n, dim, |i, j| f(i + 3, j));
        let v = Tensor2::from_fn(n, dim, |i, j| f(i, j + 5));
        // The (n, n) row-major bias matrix, as `tri_attn` holds it per head.
        let bias: Vec<f32> = (0..n * n)
            .map(|i| ((i / n + 2 * (i % n) + seed) % 5) as f32 * 0.2 - 0.4)
            .collect();
        let inv = 1.0 / (dim as f32).sqrt();
        let mut scores = q.matmul_transposed(&k).expect("shapes");
        for (s, b) in scores.as_mut_slice().iter_mut().zip(&bias) {
            *s = *s * inv + b;
        }
        let reference = nn::softmax_rows(&scores).matmul(&v).expect("shapes");
        let out = chunked_attention(&q, &k, &v, &bias, inv, chunk);
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (a - b).abs() < 1e-4,
                "case {case} (n {n}, dim {dim}, chunk {chunk}): {a} vs {b}"
            );
        }
    });
}

#[test]
fn cost_model_monotone_in_sequence_length() {
    for_each_case("cost_monotone", |case, rng| {
        let a = rng.gen_range(32..512usize);
        let b = a + rng.gen_range(1..512usize);
        let m = CostModel::paper();
        assert!(m.total_macs(b) > m.total_macs(a), "case {case}");
        assert!(
            m.total_traffic_bytes(b) > m.total_traffic_bytes(a),
            "case {case}"
        );
        for mode in [ExecMode::Vanilla, ExecMode::Chunked { rows: 4 }] {
            assert!(
                m.peak_activation_bytes(b, mode) > m.peak_activation_bytes(a, mode),
                "case {case}: {a} vs {b}, {mode:?}"
            );
        }
    });
}

#[test]
fn stage_costs_are_positive_and_finite() {
    for_each_case("stage_costs", |case, rng| {
        // The lower bound always runs: proptest once shrank a failure to it.
        let ns = if case == 0 {
            8
        } else {
            rng.gen_range(8..2048usize)
        };
        let m = CostModel::paper();
        for s in ALL_STAGES {
            let macs = m.stage_macs(s, ns);
            let bytes = m.stage_traffic_bytes(s, ns);
            assert!(macs > 0.0 && macs.is_finite(), "case {case}: {s:?}");
            assert!(bytes > 0.0 && bytes.is_finite(), "case {case}: {s:?}");
        }
        // Chunked peak never exceeds vanilla once the score tensors
        // dominate (below ~100 residues the chunk loop's extra resident
        // buffers outweigh the tiny scores — chunking real proteins always
        // starts far above that).
        if ns >= 128 {
            let chunked = m.peak_activation_bytes(ns, ExecMode::Chunked { rows: 4 });
            let vanilla = m.peak_activation_bytes(ns, ExecMode::Vanilla);
            assert!(
                chunked <= vanilla,
                "case {case}: ns={ns}: {chunked} vs {vanilla}"
            );
        }
    });
}

#[test]
fn geodesic_completion_preserves_confident_distances() {
    for_each_case("geodesic_completion", |case, rng| {
        let seed = rng.gen_range(0..30u64);
        let n = rng.gen_range(8..32usize);
        let s = StructureGenerator::new(&format!("geo{seed}")).generate(n);
        let d = ln_protein::distance_matrix(&s);
        let completed = complete_distances(&d, 40.0);
        for i in 0..n {
            for j in 0..n {
                if d.at(i, j) < 38.0 {
                    // Shortest path can only shorten if the metric were
                    // violated; for true Euclidean input it must match.
                    assert!(
                        completed.at(i, j) <= d.at(i, j) + 1e-3,
                        "case {case} ({i},{j}): {} vs {}",
                        completed.at(i, j),
                        d.at(i, j)
                    );
                }
            }
        }
    });
}

#[test]
fn mds_is_rigid_invariant() {
    for_each_case("mds_rigid", |case, rng| {
        // MDS of a distance matrix depends only on the distances, so the
        // recovered internal geometry must match the original.
        let seed = rng.gen_range(0..20u64);
        let n = rng.gen_range(6..24usize);
        let s = StructureGenerator::new(&format!("mdsp{seed}")).generate(n);
        let d = ln_protein::distance_matrix(&s);
        let rec = mds_embed(&d).expect("valid distance matrix");
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (rec.distance(i, j) - s.distance(i, j)).abs() < 0.2,
                    "case {case} (seed {seed}, n {n}): ({i},{j})"
                );
            }
        }
    });
}

#[test]
fn low_memory_full_model_matches_vanilla() {
    // End-to-end: a model with attention_chunk folds to (nearly) the same
    // structure as the vanilla model.
    let seq = Sequence::random("lmm", 32);
    let native = StructureGenerator::new("lmm").generate(32);
    let vanilla = FoldingModel::new(PpmConfig::tiny());
    let mut cfg = PpmConfig::tiny();
    cfg.attention_chunk = Some(8);
    let low_mem = FoldingModel::new(cfg);
    let a = vanilla.predict(&seq, &native).expect("folds");
    let b = low_mem.predict(&seq, &native).expect("folds");
    let tm = metrics::tm_score(&a.structure, &b.structure)
        .expect("same length")
        .score;
    assert!(tm > 0.999, "tm {tm}");
}

#[test]
fn recording_and_noop_hooks_see_identical_dataflow() {
    // A recording hook must not change the computation.
    let seq = Sequence::random("hookeq", 16);
    let native = StructureGenerator::new("hookeq").generate(16);
    let model = FoldingModel::new(PpmConfig::tiny());
    let a = model
        .predict_with_hook(&seq, &native, &mut NoopHook)
        .expect("folds");
    let mut rec = RecordingHook::new();
    let b = model
        .predict_with_hook(&seq, &native, &mut rec)
        .expect("folds");
    assert_eq!(a.pair_rep, b.pair_rep);
    assert!(!rec.records().is_empty());
}

#[test]
fn structure_decode_is_deterministic() {
    let seq = Sequence::random("det", 24);
    let native = StructureGenerator::new("det").generate(24);
    let model = FoldingModel::new(PpmConfig::tiny());
    let out = model.predict(&seq, &native).expect("folds");
    let again = decode_structure(&out.pair_rep).expect("decodes");
    assert_eq!(out.structure, again);
}
