//! Seeded property tests for the accelerator models: each property runs
//! over `CASES` inputs drawn from `ln_tensor::rng` streams keyed by the
//! property's name and the case index, so a failure names a case that
//! replays.

use ln_accel::bitonic::{bitonic_sort_desc_by, top_k_abs};
use ln_accel::controller::{schedule, tiles_for, WorkTile};
use ln_accel::crossbar::{apply_route, invert_route, quantization_route};
use ln_accel::hbm::{AccessPattern, HbmModel};
use ln_accel::pe;
use ln_accel::rda::{chunked_multiply, dequantization_free_dot};
use ln_accel::{Accelerator, HwConfig};
use ln_quant::scheme::{Bits, QuantScheme};
use ln_tensor::rng::{self, Rng, StdRng};

const CASES: u64 = 256;

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("accel/properties/{name}"), case);
        property(case, &mut rng);
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f32, hi: f32) -> f32 {
    lo + rng.gen::<f32>() * (hi - lo)
}

/// `len` values uniform in `[-bound, bound)`.
fn arb_values(rng: &mut StdRng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| uniform(rng, -bound, bound)).collect()
}

/// `len` levels uniform in `[-bound, bound]`.
fn arb_levels(rng: &mut StdRng, len: usize, bound: i16) -> Vec<i16> {
    (0..len)
        .map(|_| (rng.gen_range(0..=2 * bound as u32) as i32 - bound as i32) as i16)
        .collect()
}

#[test]
fn bitonic_sort_is_a_sorted_permutation() {
    for_each_case("bitonic_sort", |case, rng| {
        let len = rng.gen_range(0..64usize);
        let v = arb_values(rng, len, 1e6);
        let sorted = bitonic_sort_desc_by(&v, |x| x);
        assert_eq!(sorted.len(), v.len(), "case {case}");
        // Sorted descending.
        for w in sorted.windows(2) {
            assert!(w[0].0 >= w[1].0, "case {case}");
        }
        // A permutation: every index appears once and maps to its value.
        let mut seen = vec![false; v.len()];
        for (val, idx) in sorted {
            assert!(!seen[idx], "case {case}");
            seen[idx] = true;
            assert_eq!(v[idx], val, "case {case}");
        }
    });
}

#[test]
fn hardware_topk_agrees_with_oracle() {
    for_each_case("topk", |case, rng| {
        let len = rng.gen_range(1..128usize);
        let v = arb_values(rng, len, 1e3);
        let k = rng.gen_range(0..32usize);
        let hw = top_k_abs(&v, k);
        let sw = ln_tensor::stats::top_k_abs_indices(&v, k);
        let mags = |idx: &[usize]| {
            let mut m: Vec<f32> = idx.iter().map(|&i| v[i].abs()).collect();
            m.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            m
        };
        assert_eq!(mags(&hw), mags(&sw), "case {case}");
    });
}

#[test]
fn hbm_never_exceeds_peak_bandwidth() {
    let hw = HwConfig::paper();
    let m = HbmModel::new(&hw);
    for_each_case("hbm", |case, rng| {
        let bytes = rng.gen_range(1..1_000_000_000u64);
        let pattern = match rng.gen_range(0..3usize) {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided { stride: 256 },
            _ => AccessPattern::Random,
        };
        let cycles = m.transfer_cycles(bytes, pattern).max(1);
        assert!(
            bytes as f64 / cycles as f64 <= hw.hbm_bytes_per_cycle() * 1.001,
            "case {case}: {bytes} bytes, {pattern:?}"
        );
    });
}

#[test]
fn lane_demand_is_monotone_in_precision_and_outliers() {
    // The whole domain: three precisions × 0–15 outliers.
    let hw = HwConfig::paper();
    for inlier_bits in [Bits::Int4, Bits::Int8, Bits::Int16] {
        for outliers in 0..16 {
            let scheme = QuantScheme {
                inlier_bits,
                outliers,
            };
            let base = pe::lanes_per_token_dot(&hw, scheme, 128);
            // Adding outliers never reduces lanes.
            let more = QuantScheme {
                outliers: outliers + 4,
                ..scheme
            };
            assert!(pe::lanes_per_token_dot(&hw, more, 128) >= base, "{scheme}");
            // Wider inliers never reduce lanes.
            if inlier_bits == Bits::Int4 {
                let wider = QuantScheme {
                    inlier_bits: Bits::Int8,
                    ..scheme
                };
                assert!(pe::lanes_per_token_dot(&hw, wider, 128) >= base, "{scheme}");
            }
        }
    }
}

#[test]
fn crossbar_routes_are_invertible() {
    for_each_case("crossbar", |case, rng| {
        let channels = rng.gen_range(2..128usize);
        let outlier_seed = rng.gen_range(0..1000usize);
        // Derive a deterministic outlier set from the seed.
        let n_out = outlier_seed % (channels / 2).max(1);
        let mut outliers: Vec<usize> = (0..n_out)
            .map(|k| (k * 2654435761 + outlier_seed) % channels)
            .collect();
        outliers.sort_unstable();
        outliers.dedup();
        let data: Vec<u32> = (0..channels as u32).collect();
        let route = quantization_route(channels, &outliers);
        let packed = apply_route(&data, &route);
        let restored = apply_route(&packed, &invert_route(&route));
        assert_eq!(restored, data, "case {case}");
    });
}

#[test]
fn scheduler_conserves_tokens_and_stays_balanced() {
    let hw = HwConfig::paper();
    for_each_case("scheduler", |case, rng| {
        let total = rng.gen_range(1..2_000_000usize);
        let token_bytes = rng.gen_range(60..200usize);
        let lanes = rng.gen_range(1..16usize);
        let tiles = tiles_for(&hw, total, token_bytes, lanes);
        let s = schedule(&hw, &tiles);
        let assigned: usize = s.tokens_per_rmpu.iter().sum();
        assert_eq!(assigned, total, "case {case}");
        // With many uniform tiles the imbalance must stay small.
        if tiles.len() >= 4 * hw.num_rmpus {
            assert!(
                s.imbalance() < 1.3,
                "case {case}: imbalance {}",
                s.imbalance()
            );
        }
    });
}

#[test]
fn chunked_multiply_is_exact_for_all_precisions() {
    for_each_case("chunked_multiply", |case, rng| {
        let (a, b) = (rng.next_u64() as i16, rng.next_u64() as i16);
        // Full INT16 × INT16 through the 4-bit fabric.
        assert_eq!(
            chunked_multiply(a, 4, b, 4),
            a as i64 * b as i64,
            "case {case}"
        );
        // INT8 × INT16 (Group-A inliers against weights).
        let a8 = a % 128;
        assert_eq!(
            chunked_multiply(a8, 2, b, 4),
            a8 as i64 * b as i64,
            "case {case}"
        );
        // INT4 × INT16 (Group-B/C inliers against weights).
        let a4 = a % 8;
        assert_eq!(
            chunked_multiply(a4, 1, b, 4),
            a4 as i64 * b as i64,
            "case {case}"
        );
    });
}

#[test]
fn dequantization_free_dot_equals_reference() {
    for_each_case("dequantization_free_dot", |case, rng| {
        let n_in = rng.gen_range(1..64usize);
        let inliers = arb_levels(rng, n_in, 7);
        let n_out = rng.gen_range(0..4usize);
        let outliers = arb_levels(rng, n_out, 30000);
        let si = uniform(rng, 0.001, 1.0);
        let so = uniform(rng, 0.0001, 0.1);
        let sw = uniform(rng, 0.001, 0.1);
        let w_in: Vec<i16> = (0..inliers.len())
            .map(|i| ((i * 97) % 200) as i16 - 100)
            .collect();
        let w_out: Vec<i16> = (0..outliers.len())
            .map(|i| ((i * 53) % 150) as i16 - 75)
            .collect();
        let fast = dequantization_free_dot(&inliers, si, 4, &outliers, so, &w_in, &w_out, sw);
        let mut slow = 0.0f64;
        for (&q, &w) in inliers.iter().zip(&w_in) {
            slow += (q as f64 * si as f64) * (w as f64 * sw as f64);
        }
        for (&q, &w) in outliers.iter().zip(&w_out) {
            slow += (q as f64 * so as f64) * (w as f64 * sw as f64);
        }
        assert!(
            (fast as f64 - slow).abs() < slow.abs() * 1e-4 + 1e-4,
            "case {case}: {fast} vs {slow}"
        );
    });
}

#[test]
fn simulator_latency_is_monotone_in_length() {
    let accel = Accelerator::new(HwConfig::paper());
    for_each_case("simulator_monotone", |case, rng| {
        let a = rng.gen_range(64..1024usize);
        let delta = rng.gen_range(1..1024usize);
        let t1 = accel.simulate(a).total_cycles();
        let t2 = accel.simulate(a + delta).total_cycles();
        assert!(t2 >= t1, "case {case}: {a} + {delta}");
    });
}

#[test]
fn skewed_tiles_do_not_break_the_scheduler() {
    let hw = HwConfig::paper().with_rmpus(3);
    let tiles = vec![
        WorkTile {
            tokens: 1,
            lanes_per_token: 16,
        },
        WorkTile {
            tokens: 1_000_000,
            lanes_per_token: 4,
        },
    ];
    let s = schedule(&hw, &tiles);
    assert_eq!(s.tokens_per_rmpu.iter().sum::<usize>(), 1_000_001);
}
