//! Shard health scoring from burn rate and watermark pressure.
//!
//! A health score in `[0, 1]` summarizes "how close is this shard to
//! breaching": 1 means no budget burn and no memory pressure, 0 means the
//! fast window is burning at or above the breach threshold. The cluster
//! router prefers healthy shards in its capability walk and the
//! autoscaler treats an unhealthy active set as scale-up pressure — load
//! sheds *before* the SLO breaches rather than after.

/// Combines a fast-window burn rate and an activation-memory pressure
/// fraction into a health score in `[0, 1]`.
///
/// * `fast_burn / burn_threshold` maps linearly onto `[1 → 0]`: at or
///   above the breach threshold the burn factor is 0.
/// * `pressure` (peak activation bytes over capacity, `[0, 1]`) costs up
///   to half the score: a memory-saturated shard with a clean error
///   budget still reads 0.5, so pressure alone de-prioritizes a shard but
///   never marks it dead.
pub(crate) fn health_score(fast_burn: f64, burn_threshold: f64, pressure: f64) -> f64 {
    let burn_factor = if burn_threshold > 0.0 {
        (1.0 - fast_burn / burn_threshold).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let mem_factor = 1.0 - 0.5 * pressure.clamp(0.0, 1.0);
    burn_factor * mem_factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_is_monotone_and_bounded() {
        assert_eq!(health_score(0.0, 2.0, 0.0), 1.0);
        assert_eq!(health_score(2.0, 2.0, 0.0), 0.0, "at threshold: dead");
        assert_eq!(health_score(0.0, 2.0, 1.0), 0.5, "pressure alone halves");
        let mid = health_score(1.0, 2.0, 0.5);
        assert!(mid > 0.0 && mid < 1.0);
        assert!(health_score(1.0, 2.0, 0.0) > health_score(1.5, 2.0, 0.0));
        assert!(health_score(1.0, 2.0, 0.2) > health_score(1.0, 2.0, 0.8));
        assert_eq!(health_score(5.0, 0.0, 0.0), 1.0, "zero threshold is inert");
    }
}
