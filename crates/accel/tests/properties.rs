//! Seeded property tests for the accelerator models: each property runs
//! over `CASES` inputs drawn from `ln_tensor::rng` streams keyed by the
//! property's name and the case index, so a failure names a case that
//! replays.

use ln_accel::bitonic::{bitonic_sort_desc_by, top_k_abs};
use ln_accel::hbm::{AccessPattern, HbmModel};
use ln_accel::pe;
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
