//! Seeded property tests for the tensor substrate: each property runs over
//! `CASES` inputs drawn from `ln_tensor::rng` streams keyed by the
//! property's name and the case index, so a failure names a case that
//! replays.

use ln_tensor::rng::{self, Rng, StdRng};
use ln_tensor::{nn, stats, Tensor2};
use std::collections::HashSet;

const CASES: u64 = 256;

/// Runs `property` on one fresh stream per case.
fn for_each_case(name: &str, mut property: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let mut rng = rng::stream_indexed(&format!("tensor/properties/{name}"), case);
        property(case, &mut rng);
    }
}

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f32, hi: f32) -> f32 {
    lo + rng.gen::<f32>() * (hi - lo)
}

/// `len` values uniform in `[lo, hi)`.
fn uniform_vec(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| uniform(rng, lo, hi)).collect()
}

/// A `rows × cols` matrix uniform in `[lo, hi)`.
fn uniform_matrix(rng: &mut StdRng, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor2 {
    Tensor2::from_vec(rows, cols, uniform_vec(rng, rows * cols, lo, hi)).expect("length matches")
}

/// 1..=`max_dim` rows and columns, uniform in `[-100, 100)`.
fn small_matrix(rng: &mut StdRng, max_dim: usize) -> Tensor2 {
    let (rows, cols) = (rng.gen_range(1..=max_dim), rng.gen_range(1..=max_dim));
    uniform_matrix(rng, rows, cols, -100.0, 100.0)
}

#[test]
fn matmul_identity_is_neutral() {
    for_each_case("matmul_identity", |case, rng| {
        let a = small_matrix(rng, 8);
        let prod = a
            .matmul(&Tensor2::identity(a.cols()))
            .expect("shapes match");
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0), "case {case}");
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    for_each_case("matmul_distributes", |case, rng| {
        let (rows, k) = (rng.gen_range(1..=6usize), rng.gen_range(1..=6usize));
        let a = uniform_matrix(rng, rows, k, -100.0, 100.0);
        let b = uniform_matrix(rng, k, 4, -10.0, 10.0);
        let c = uniform_matrix(rng, k, 4, -10.0, 10.0);
        let lhs = a
            .matmul(&b.add(&c).expect("same shape"))
            .expect("shapes match");
        let rhs = a
            .matmul(&b)
            .expect("shapes match")
            .add(&a.matmul(&c).expect("shapes match"))
            .expect("same shape");
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-2 * y.abs().max(1.0),
                "case {case}: {x} vs {y}"
            );
        }
    });
}

#[test]
fn transpose_preserves_frobenius_norm() {
    for_each_case("transpose_norm", |case, rng| {
        let a = small_matrix(rng, 8);
        let t = a.transposed();
        assert!(
            (a.frobenius_norm() - t.frobenius_norm()).abs() < 1e-3,
            "case {case}"
        );
    });
}

#[test]
fn matmul_transposed_matches_naive() {
    for_each_case("matmul_transposed", |case, rng| {
        let a = small_matrix(rng, 6);
        let rows = rng.gen_range(1..6usize);
        let b = Tensor2::from_fn(rows, a.cols(), |i, j| ((i * 13 + j * 5) % 11) as f32 - 5.0);
        let fast = a.matmul_transposed(&b).expect("cols match");
        let slow = a.matmul(&b.transposed()).expect("shapes match");
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-3 * y.abs().max(1.0), "case {case}");
        }
    });
}

#[test]
fn softmax_rows_are_distributions() {
    for_each_case("softmax_rows", |case, rng| {
        let s = nn::softmax_rows(&small_matrix(rng, 8));
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case} row {i}");
            assert!(
                s.row(i).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)),
                "case {case} row {i}"
            );
        }
    });
}

#[test]
fn layer_norm_output_is_standardised() {
    for_each_case("layer_norm", |case, rng| {
        let len = rng.gen_range(8..64usize);
        let v = uniform_vec(rng, len, -50.0, 50.0);
        // A constant row's LayerNorm output is all beta; uniform draws
        // this wide never come near one.
        assert!(stats::Summary::of(&v).std > 1e-3, "case {case}");
        let x = Tensor2::from_vec(1, len, v).expect("length matches");
        let y = nn::LayerNorm::new(len).forward(&x).expect("widths match");
        let sy = stats::Summary::of(y.row(0));
        assert!(sy.mean.abs() < 1e-3, "case {case}: mean {}", sy.mean);
        assert!((sy.std - 1.0).abs() < 1e-2, "case {case}: std {}", sy.std);
    });
}

#[test]
fn top_k_matches_full_sort() {
    for_each_case("top_k", |case, rng| {
        let len = rng.gen_range(1..64usize);
        let v = uniform_vec(rng, len, -1000.0, 1000.0);
        let k = rng.gen_range(0..64usize);
        let got = stats::top_k_abs_indices(&v, k);
        assert_eq!(got.len(), k.min(v.len()), "case {case}");
        // Every selected magnitude must be >= every non-selected magnitude.
        let selected: HashSet<usize> = got.iter().copied().collect();
        let min_sel = got
            .iter()
            .map(|&i| v[i].abs())
            .fold(f32::INFINITY, f32::min);
        for (i, &x) in v.iter().enumerate() {
            if !selected.contains(&i) && !got.is_empty() {
                assert!(x.abs() <= min_sel + 1e-6, "case {case} ch {i}");
            }
        }
    });
}

#[test]
fn summary_bounds_hold() {
    for_each_case("summary_bounds", |case, rng| {
        let len = rng.gen_range(1..128usize);
        let s = stats::Summary::of(&uniform_vec(rng, len, -1e4, 1e4));
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
        assert!(s.mean_abs <= s.max_abs + 1e-6, "case {case}");
        assert!(s.std >= 0.0, "case {case}");
    });
}

#[test]
fn three_sigma_outlier_fraction_is_small_for_uniform() {
    for_each_case("three_sigma", |case, rng| {
        // For a bounded uniform-ish sample, at most a tiny fraction can sit
        // outside 3 sigma (Chebyshev: <= 1/9).
        let len = rng.gen_range(64..256usize);
        let v = uniform_vec(rng, len, -1.0, 1.0);
        let n = stats::count_3sigma_outliers(&v);
        assert!(n as f32 <= v.len() as f32 / 9.0 + 1.0, "case {case}");
    });
}
