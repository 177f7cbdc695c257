//! Length-bucket policy.
//!
//! Batching only amortizes setup cost when co-batched sequences have
//! similar cost, and folding cost grows superlinearly in sequence length —
//! so the batcher never mixes lengths across bucket boundaries. Boundaries
//! are chosen from the `ln-datasets` length distributions (quantiles over
//! the union of the evaluation sets), mirroring how a production deployment
//! would derive buckets from observed traffic.

use ln_datasets::{Registry, ALL_DATASETS};

/// How many buckets [`BucketPolicy::from_registry`] cuts the registry's
/// length distribution into.
const REGISTRY_BUCKETS: usize = 4;

/// A partition of sequence lengths into contiguous buckets.
///
/// Bucket `i` covers `(bounds[i-1], bounds[i]]`; the final bucket is
/// open-ended so no length is ever unroutable by the *policy* (memory
/// admission is the backend pool's job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketPolicy {
    /// Inclusive upper bounds of every bucket but the last, ascending.
    bounds: Vec<usize>,
}

impl BucketPolicy {
    /// Builds a policy from explicit inclusive upper bounds (ascending,
    /// deduplicated). A trailing open-ended bucket is always added.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn fixed(bounds: Vec<usize>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        BucketPolicy { bounds }
    }

    /// Derives up to four buckets from the length distribution of the
    /// whole registry (all four evaluation datasets), using equal-mass
    /// quantile boundaries.
    pub fn from_registry(registry: &Registry) -> Self {
        let mut lengths: Vec<usize> = ALL_DATASETS
            .iter()
            .flat_map(|&d| registry.dataset(d).records().iter().map(|r| r.length()))
            .collect();
        lengths.sort_unstable();
        let mut bounds = Vec::new();
        for i in 1..REGISTRY_BUCKETS {
            let q = i as f64 / REGISTRY_BUCKETS as f64;
            let idx = ((q * (lengths.len() - 1) as f64).round() as usize).min(lengths.len() - 1);
            let b = lengths[idx];
            if bounds.last() != Some(&b) {
                bounds.push(b);
            }
        }
        BucketPolicy { bounds }
    }

    /// Number of buckets (always ≥ 1; the last is open-ended).
    pub(crate) fn num_buckets(&self) -> usize {
        self.bounds.len() + 1
    }

    /// The bucket index for a sequence length.
    pub fn bucket_of(&self, length: usize) -> usize {
        self.bounds.partition_point(|&b| b < length)
    }

    /// Human-readable range label, e.g. `"(256, 1410]"` or `"> 3364"`.
    pub fn label(&self, bucket: usize) -> String {
        let lo = if bucket == 0 {
            0
        } else {
            self.bounds[bucket - 1]
        };
        match self.bounds.get(bucket) {
            Some(&hi) => format!("({lo}, {hi}]"),
            None => format!("> {lo}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_maps_boundaries_inclusively() {
        let p = BucketPolicy::fixed(vec![100, 500]);
        assert_eq!(p.num_buckets(), 3);
        assert_eq!(p.bucket_of(1), 0);
        assert_eq!(p.bucket_of(100), 0);
        assert_eq!(p.bucket_of(101), 1);
        assert_eq!(p.bucket_of(500), 1);
        assert_eq!(p.bucket_of(501), 2);
        assert_eq!(p.bucket_of(1_000_000), 2);
        assert_eq!(p.label(0), "(0, 100]");
        assert_eq!(p.label(2), "> 500");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        let _ = BucketPolicy::fixed(vec![500, 100]);
    }

    #[test]
    fn registry_policy_covers_all_records() {
        let reg = Registry::standard();
        let p = BucketPolicy::from_registry(&reg);
        assert!(
            p.num_buckets() >= 2 && p.num_buckets() <= REGISTRY_BUCKETS,
            "{p:?}"
        );
        // Every record maps to a valid bucket and buckets are used in order.
        for &d in &ALL_DATASETS {
            for r in reg.dataset(d).records() {
                assert!(p.bucket_of(r.length()) < p.num_buckets());
            }
        }
        // Quantile boundaries put roughly equal mass in interior buckets.
        let mut counts = vec![0usize; p.num_buckets()];
        for &d in &ALL_DATASETS {
            for r in reg.dataset(d).records() {
                counts[p.bucket_of(r.length())] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn single_bucket_policy_is_degenerate_but_valid() {
        let p = BucketPolicy::fixed(vec![]);
        assert_eq!(p.num_buckets(), 1);
        assert_eq!(p.bucket_of(12345), 0);
        assert_eq!(p.label(0), "> 0");
    }
}
