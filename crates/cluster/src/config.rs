//! Cluster-level policy knobs.

/// Occupancy-driven autoscaling policy: shards are activated or drained
/// on fixed virtual-time ticks from the mean queue depth across the
/// active set. Draining is graceful — a deactivated shard stops taking
/// new placements but keeps executing what it already holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Never drain below this many active shards.
    pub min_active: usize,
    /// Virtual seconds between autoscale evaluations.
    pub interval_seconds: f64,
    /// Mean queue depth at or above which one more shard is activated.
    pub up_depth: f64,
    /// Mean queue depth at or below which one shard is drained (when more
    /// than `min_active` are active).
    pub down_depth: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_active: 1,
            interval_seconds: 5.0,
            up_depth: 8.0,
            down_depth: 1.0,
        }
    }
}

/// Configuration of the sharded router.
///
/// Everything is expressed on the shared virtual clock, so a fixed config
/// plus a fixed workload plus a fixed [`ln_fault::FaultPlan`] yields a
/// bitwise-identical [`crate::ClusterOutcome`] on any host and any
/// `ln-par` pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Cross-shard transfer latency, virtual seconds: every placement,
    /// hedge, steal hand-off and reroute pays one hop.
    pub hop_seconds: f64,
    /// Sequences at or above this many residues are dispatched twice, to
    /// two distinct capable shards, first winner cancels the other
    /// (`usize::MAX` disables hedging).
    pub hedge_min_length: usize,
    /// Queue-depth skew (deepest minus shallowest active shard) at or
    /// above which the shallow shard steals from the deep one.
    pub steal_threshold: usize,
    /// Occupancy-driven shard activation/draining; `None` keeps every
    /// shard active for the whole run.
    pub autoscale: Option<AutoscaleConfig>,
    /// Label salting the ring points and placement keys.
    pub seed: String,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hop_seconds: 0.005,
            hedge_min_length: usize::MAX,
            steal_threshold: 6,
            autoscale: None,
            seed: "cluster/default".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ClusterConfig::default();
        assert!(cfg.hop_seconds > 0.0);
        assert_eq!(cfg.hedge_min_length, usize::MAX, "hedging defaults off");
        assert!(cfg.autoscale.is_none());
        let auto = AutoscaleConfig::default();
        assert!(auto.up_depth > auto.down_depth);
        assert!(auto.min_active >= 1);
    }
}
