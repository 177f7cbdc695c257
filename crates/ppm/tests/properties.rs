//! Seeded property tests for the PPM substrate: each property runs over
//! `CASES` inputs drawn from `ln_tensor::rng` streams keyed by the
//! property's name and the case index, so a failure names a case that
//! replays. Three end-to-end checks on the tiny model follow them.

use ln_ppm::blocks::{AttentionNode, TriangularAttention};
use ln_ppm::cost::{CostModel, ExecMode, ALL_STAGES};
use ln_ppm::structure_module::{complete_distances, decode_structure, mds_embed};
use ln_ppm::taps::{NoopHook, RecordingHook};
use ln_ppm::{FoldingModel, PpmConfig};
use ln_protein::generator::StructureGenerator;
use ln_protein::Sequence;
use ln_tensor::rng::{self, Rng, StdRng};
use ln_tensor::Tensor3;

const CASES: u64 = 24;

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("ppm/properties/{name}"), case);
        property(case, &mut rng);
    }
}

#[test]
fn row_blocked_attention_equals_whole_lane_attention_to_the_bit() {
    for_each_case("row_blocked_attention", |case, rng| {
        let ns = rng.gen_range(1..25usize);
        let rows = rng.gen_range(1..ns + 6);
        let seed = rng.gen_range(0..50usize);
        let hz = PpmConfig::tiny().hz;
        let pair = Tensor3::from_fn(ns, ns, hz, |i, j, k| {
            ((i * 31 + j * 17 + k * 7 + seed) % 23) as f32 * 0.17 - 1.9
        });
        for node in [AttentionNode::Starting, AttentionNode::Ending] {
            let forward = |attention_chunk| {
                let cfg = PpmConfig {
                    attention_chunk,
                    ..PpmConfig::tiny()
                };
                let mut z = pair.clone();
                TriangularAttention::new(&cfg, "rb", node)
                    .forward(&mut z, &mut NoopHook, 0, 0)
                    .expect("forward");
                z
            };
            let (whole, blocked) = (forward(None), forward(Some(rows)));
            assert!(
                whole
                    .as_slice()
                    .iter()
                    .zip(blocked.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "case {case} (ns {ns}, rows {rows}, {node:?})"
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
    // End-to-end: a model with attention_chunk folds to the vanilla
    // model's prediction, bit for bit.
    let seq = Sequence::random("lmm", 32);
    let native = StructureGenerator::new("lmm").generate(32);
    let vanilla = FoldingModel::new(PpmConfig::tiny());
    let mut cfg = PpmConfig::tiny();
    cfg.attention_chunk = Some(8);
    let low_mem = FoldingModel::new(cfg);
    let a = vanilla.predict(&seq, &native).expect("folds");
    let b = low_mem.predict(&seq, &native).expect("folds");
    assert_eq!(a, b);
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
