//! Summary statistics for activation analysis.
//!
//! The paper's software contribution rests on a statistical observation
//! (§3.3): PPM activations have *small cross-channel variance but large
//! cross-token variance*, with 3σ outliers concentrated in specific tokens.
//! This module provides the measurement tools used to reproduce Fig. 5,
//! Fig. 6(c) and the group-classification analysis.

/// Summary statistics of a sample of values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Minimum value (`0.0` when empty).
    pub min: f32,
    /// Maximum value (`0.0` when empty).
    pub max: f32,
    /// Mean of absolute values.
    pub mean_abs: f32,
    /// Maximum of absolute values.
    pub max_abs: f32,
}

impl Summary {
    /// Computes summary statistics over a slice.
    pub fn of(values: &[f32]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len() as f64;
        let mut sum = 0.0f64;
        let mut sum_abs = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut max_abs = 0.0f32;
        for &v in values {
            sum += v as f64;
            sum_abs += v.abs() as f64;
            min = min.min(v);
            max = max.max(v);
            max_abs = max_abs.max(v.abs());
        }
        let mean = (sum / n) as f32;
        let var: f64 = values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean as f64;
                d * d
            })
            .sum::<f64>()
            / n;
        Summary {
            count: values.len(),
            mean,
            std: var.sqrt() as f32,
            min,
            max,
            mean_abs: (sum_abs / n) as f32,
            max_abs,
        }
    }
}

/// Counts values outside `mean ± 3σ` (the 68-95-99.7 rule the paper uses
/// to identify outliers).
pub fn count_3sigma_outliers(values: &[f32]) -> usize {
    let s = Summary::of(values);
    if s.std == 0.0 {
        return 0;
    }
    let lo = s.mean - 3.0 * s.std;
    let hi = s.mean + 3.0 * s.std;
    values.iter().filter(|&&v| v < lo || v > hi).count()
}

/// Largest `k` that [`top_k_abs_into`] selects with its stack-resident
/// insertion pass; the AAQ schemes use `k ≤ 8` (Fig. 11 settles on 4).
const TOP_K_INSERTION_MAX: usize = 8;

/// Rank of a value in the top-k order: its magnitude, with NaN below every
/// number, so the order is total whatever the input holds.
#[inline]
fn abs_rank(v: f32) -> f32 {
    if v.is_nan() {
        -1.0
    } else {
        v.abs()
    }
}

/// Writes the indices of the `out.len()` largest values by absolute
/// magnitude into `out`, in descending order of magnitude. Ties go to the
/// lower index; a NaN ranks below every number (and NaNs among themselves
/// by index), so it is picked only when the numbers run out.
///
/// Up to `k = 8` this is one O(n·k) streaming pass over `values` against a
/// sorted stack array and performs no allocation; a larger `k` partitions
/// an index vector with `select_nth_unstable_by` and sorts only the `k`
/// winners. It is the order the runtime quantizer in `ln-quant` selects
/// by: that quantizer runs its own vector select (lane maxima and a
/// bitonic network) for `k ≤ 8`, tested equal to this followed by an
/// ascending sort, and calls this for a larger budget.
///
/// # Panics
///
/// Panics if `out` is longer than `values`.
pub fn top_k_abs_into(values: &[f32], out: &mut [usize]) {
    let k = out.len();
    assert!(k <= values.len(), "top-k wider than its input");
    if k == 0 {
        return;
    }
    if k > TOP_K_INSERTION_MAX {
        let by_rank = |&a: &usize, &b: &usize| {
            abs_rank(values[b])
                .total_cmp(&abs_rank(values[a]))
                .then(a.cmp(&b))
        };
        let mut order: Vec<usize> = (0..values.len()).collect();
        if k < order.len() {
            order.select_nth_unstable_by(k, by_rank);
        }
        order[..k].sort_unstable_by(by_rank);
        out.copy_from_slice(&order[..k]);
        return;
    }
    // `ranks[..k]` stays sorted descending. Every real rank is above the
    // -inf filler, so the first k values always fill the k slots; after
    // that almost every value fails the first comparison.
    let mut ranks = [f32::NEG_INFINITY; TOP_K_INSERTION_MAX];
    for (i, &v) in values.iter().enumerate() {
        let rank = abs_rank(v);
        if rank > ranks[k - 1] {
            // Strict comparisons: an equal rank met later (a higher index)
            // never moves ahead of, or evicts, an earlier one.
            let mut pos = k - 1;
            while pos > 0 && rank > ranks[pos - 1] {
                ranks[pos] = ranks[pos - 1];
                out[pos] = out[pos - 1];
                pos -= 1;
            }
            ranks[pos] = rank;
            out[pos] = i;
        }
    }
}

/// Returns the indices of the `k` largest values by absolute magnitude,
/// in descending order of magnitude (ties broken by lower index first,
/// NaN below every number) — [`top_k_abs_into`] into a fresh vector, with
/// `k` clamped to the input length.
///
/// This is the *software oracle* for the hardware bitonic top-k unit in
/// `ln-accel`; the two are cross-checked by property tests.
pub fn top_k_abs_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx = vec![0; k.min(values.len())];
    top_k_abs_into(values, &mut idx);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_hand_values() {
        let s = Summary::of(&[1.0, -1.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 1.0).abs() < 1e-6);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean_abs - 5.0 / 3.0).abs() < 1e-6);
        assert_eq!(s.max_abs, 3.0);
        // population std of [1,-1,3]: mean 1, deviations [0,-2,2], var 8/3
        assert!((s.std - (8.0f32 / 3.0).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn three_sigma_finds_planted_outlier() {
        let mut v = vec![0.0f32; 100];
        for (i, x) in v.iter_mut().enumerate() {
            *x = ((i % 7) as f32 - 3.0) * 0.1;
        }
        v[42] = 50.0;
        assert_eq!(count_3sigma_outliers(&v), 1);
    }

    #[test]
    fn three_sigma_on_constant_is_zero() {
        assert_eq!(count_3sigma_outliers(&[5.0; 32]), 0);
    }

    #[test]
    fn top_k_abs_orders_by_magnitude() {
        let v = [1.0f32, -9.0, 3.0, 0.5, -4.0];
        assert_eq!(top_k_abs_indices(&v, 3), vec![1, 4, 2]);
        assert_eq!(top_k_abs_indices(&v, 0), Vec::<usize>::new());
        assert_eq!(top_k_abs_indices(&v, 99).len(), 5);
    }

    #[test]
    fn top_k_ties_break_by_index() {
        let v = [2.0f32, -2.0, 2.0];
        assert_eq!(top_k_abs_indices(&v, 2), vec![0, 1]);
    }

    /// The full stable sort `top_k_abs_indices` used to be: the reference
    /// the selection must reproduce on NaN-free input (with a NaN its
    /// comparator is not a total order, which `sort_by` may panic on).
    fn top_k_by_full_sort(values: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[b]
                .abs()
                .partial_cmp(&values[a].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    #[test]
    fn top_k_selection_equals_the_full_sort_on_seeded_input() {
        use crate::rng::{self, Rng};
        let mut rng = rng::stream("stats/top_k_vs_full_sort");
        for n in [1usize, 2, 5, 12, 96, 128, 200] {
            for round in 0..8 {
                // Coarse levels on odd rounds, so ties are common, with
                // signed zeros and an infinity thrown in.
                let mut v: Vec<f32> = (0..n)
                    .map(|_| {
                        let x = rng::normal_approx(&mut rng) * 3.0;
                        if round % 2 == 1 {
                            (x * 2.0).round() / 2.0
                        } else {
                            x
                        }
                    })
                    .collect();
                if round == 5 {
                    v[rng.gen_range(0..n)] = f32::NEG_INFINITY;
                    v[rng.gen_range(0..n)] = -0.0;
                }
                for k in [0, 1, 4, 8, n - 1, n, n + 3] {
                    assert_eq!(
                        top_k_abs_indices(&v, k),
                        top_k_by_full_sort(&v, k),
                        "n={n} k={k} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_ranks_nan_below_every_number() {
        let nan = f32::NAN;
        let v = [nan, 0.0, -3.0, nan, 1.0, -0.0];
        // Both sides of the k = 8 switch give the same order.
        let expect = [2usize, 4, 1, 5, 0, 3];
        for k in 0..=v.len() {
            assert_eq!(top_k_abs_indices(&v, k), expect[..k], "k={k}");
        }
        let wide: Vec<f32> = (0..40)
            .map(|i| if i % 3 == 0 { nan } else { i as f32 })
            .collect();
        let picked = top_k_abs_indices(&wide, 30);
        let first_nan = picked.iter().position(|&i| wide[i].is_nan());
        assert_eq!(first_nan, Some(26), "26 numbers come first");
        assert_eq!(picked[26..], [0, 3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "top-k wider than its input")]
    fn top_k_into_rejects_an_oversized_request() {
        top_k_abs_into(&[1.0, 2.0], &mut [0; 3]);
    }
}
