//! Cluster-level policy knobs.

/// Configuration of the sharded router.
///
/// Everything is expressed on the shared virtual clock, so a fixed config
/// plus a fixed workload plus a fixed [`FaultPlan`](crate::fault::FaultPlan)
/// yields a bitwise-identical [`ClusterOutcome`](super::ClusterOutcome) on
/// any host and any `ln-par` pool size.
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
    /// Occupancy-driven shard activation and draining: on fixed
    /// virtual-time ticks, one more shard is activated when the mean queue
    /// depth across the active set is high (or an active shard is
    /// unhealthy) and the shallowest is drained when it is low. Draining is
    /// graceful — a drained shard stops taking new placements but keeps
    /// executing what it already holds. Off keeps every shard active for
    /// the whole run.
    pub autoscale: bool,
    /// Label salting the ring points and placement keys.
    pub seed: String,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hop_seconds: 0.005,
            hedge_min_length: usize::MAX,
            steal_threshold: 6,
            autoscale: false,
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
        assert!(!cfg.autoscale, "autoscale defaults off");
    }
}
