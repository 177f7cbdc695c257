//! Canonical sequence-length buckets.
//!
//! One vocabulary shared by every layer that keys anything by sequence
//! length: the numerics sketches here, `ln-watch`'s watermark table and SLO
//! scopes, and the serving layer's metric labels. Keeping a single source
//! means label-keyed series from different subsystems always line up.

/// Canonical length-bucket upper bounds (residues); sequences past the
/// last bound fall into `"gt_8192"`.
pub const LENGTH_BUCKET_BOUNDS: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// The bucket labels, indexed by [`length_bucket_rank`]: `le_{bound}` for
/// each bound, then `gt_{last bound}`.
const LENGTH_BUCKET_LABELS: [&str; LENGTH_BUCKET_BOUNDS.len() + 1] = [
    "le_256", "le_512", "le_1024", "le_2048", "le_4096", "le_8192", "gt_8192",
];

/// The canonical label of the length bucket containing `length`.
pub fn length_bucket_label(length: usize) -> &'static str {
    LENGTH_BUCKET_LABELS[length_bucket_rank(length)]
}

/// Rank of the bucket containing `length`: 0 for `le_256` up to 6 for
/// `gt_8192`. Used by the modeled-accuracy curve, which grows with length.
pub(crate) fn length_bucket_rank(length: usize) -> usize {
    LENGTH_BUCKET_BOUNDS.iter().filter(|&&b| length > b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_partition_lengths() {
        assert_eq!(length_bucket_label(1), "le_256");
        assert_eq!(length_bucket_label(256), "le_256");
        assert_eq!(length_bucket_label(257), "le_512");
        assert_eq!(length_bucket_label(8192), "le_8192");
        assert_eq!(length_bucket_label(8193), "gt_8192");
        for w in LENGTH_BUCKET_BOUNDS.windows(2) {
            assert_ne!(length_bucket_label(w[0]), length_bucket_label(w[1]));
        }
        for (bound, label) in LENGTH_BUCKET_BOUNDS.iter().zip(LENGTH_BUCKET_LABELS) {
            assert_eq!(label, format!("le_{bound}"));
        }
    }

    #[test]
    fn rank_is_monotone_and_matches_labels() {
        assert_eq!(length_bucket_rank(1), 0);
        assert_eq!(length_bucket_rank(256), 0);
        assert_eq!(length_bucket_rank(257), 1);
        assert_eq!(length_bucket_rank(9000), 6);
        let mut last = 0;
        for len in [1usize, 300, 600, 1500, 3000, 5000, 9000] {
            let r = length_bucket_rank(len);
            assert!(r >= last);
            last = r;
        }
    }
}
