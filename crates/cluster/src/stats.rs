//! Cluster-level statistics: placement, hedging, stealing, autoscaling
//! and outcome counters, with deterministic rendering and fingerprinting.

use lightnobel::report::Table;

/// Counters and latency samples for one cluster run.
///
/// Everything here derives from the virtual-time schedule, so two runs
/// with the same seed produce field-for-field identical stats — that is
/// what [`ClusterStats::fingerprint`] digests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Requests accepted by the router (not rejected at admission).
    pub placed: u64,
    /// Requests the router refused (no shard could ever serve them).
    pub router_rejected: u64,
    /// Requests that got a hedged twin on a second shard.
    pub hedges: u64,
    /// Hedge losers cancelled while still queued (no work wasted).
    pub hedge_cancelled: u64,
    /// Hedge losers that were already executing when the winner landed
    /// and ran to completion as pure waste.
    pub hedge_wasted: u64,
    /// Backend-seconds burned by those wasted completions.
    pub hedge_wasted_seconds: f64,
    /// Requests moved between shards by occupancy-skew work stealing.
    pub steals: u64,
    /// Re-placements after a shard loss or a dead-shard delivery.
    pub reroutes: u64,
    /// Shard-loss events the plan injected.
    pub shard_losses: u64,
    /// Placements/deliveries deferred by a network partition.
    pub deferred: u64,
    /// Autoscaler activations.
    pub scale_ups: u64,
    /// Autoscaler drains.
    pub scale_downs: u64,
    /// Terminal outcome counts over original requests.
    pub completed: u64,
    /// Completions that ran at a degraded AAQ precision rung.
    pub degraded: u64,
    /// Requests whose deadline expired before service.
    pub timed_out: u64,
    /// Requests rejected by router or shard admission.
    pub rejected: u64,
    /// Requests that failed typed (including `ShardLost`).
    pub failed: u64,
    /// End-to-end completion latencies (original arrival → finish),
    /// virtual seconds, in request-id order.
    pub latencies_seconds: Vec<f64>,
}

impl ClusterStats {
    /// Total terminal outcomes (must equal the workload size).
    pub fn total(&self) -> u64 {
        self.completed + self.timed_out + self.rejected + self.failed
    }

    /// Latency percentile (`p` a fraction, 0.0–1.0) over the completion
    /// latencies, by the nearest-rank rule ([`ln_obs::percentile`]).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.latencies_seconds.clone();
        sorted.sort_by(f64::total_cmp);
        ln_obs::percentile(&sorted, p)
    }

    /// Renders the cluster counters as two report tables: outcomes and
    /// the placement/hedging/stealing machinery.
    pub fn cluster_tables(&self) -> (Table, Table) {
        let mut outcomes = Table::new(["outcome", "count"]).with_title("cluster outcomes");
        outcomes.add_row(["completed".to_string(), self.completed.to_string()]);
        outcomes.add_row(["degraded".to_string(), self.degraded.to_string()]);
        outcomes.add_row(["timed_out".to_string(), self.timed_out.to_string()]);
        outcomes.add_row(["rejected".to_string(), self.rejected.to_string()]);
        outcomes.add_row(["failed".to_string(), self.failed.to_string()]);
        if let (Some(p50), Some(p99)) =
            (self.latency_percentile(0.5), self.latency_percentile(0.99))
        {
            outcomes.add_row(["p50_latency".to_string(), format!("{p50:.4} s")]);
            outcomes.add_row(["p99_latency".to_string(), format!("{p99:.4} s")]);
        }

        let mut machinery = Table::new(["event", "count"]).with_title("cluster machinery");
        machinery.add_row(["placed".to_string(), self.placed.to_string()]);
        machinery.add_row([
            "router_rejected".to_string(),
            self.router_rejected.to_string(),
        ]);
        machinery.add_row(["hedges".to_string(), self.hedges.to_string()]);
        machinery.add_row([
            "hedge_cancelled".to_string(),
            self.hedge_cancelled.to_string(),
        ]);
        machinery.add_row(["hedge_wasted".to_string(), self.hedge_wasted.to_string()]);
        machinery.add_row([
            "hedge_wasted_seconds".to_string(),
            format!("{:.4}", self.hedge_wasted_seconds),
        ]);
        machinery.add_row(["steals".to_string(), self.steals.to_string()]);
        machinery.add_row(["reroutes".to_string(), self.reroutes.to_string()]);
        machinery.add_row(["shard_losses".to_string(), self.shard_losses.to_string()]);
        machinery.add_row(["deferred".to_string(), self.deferred.to_string()]);
        machinery.add_row(["scale_ups".to_string(), self.scale_ups.to_string()]);
        machinery.add_row(["scale_downs".to_string(), self.scale_downs.to_string()]);
        (outcomes, machinery)
    }

    /// Mirrors the counters into the process-wide `ln-obs` registry (the
    /// names `lightnobel::report::obs_tables` force-registers), plus the
    /// `cluster_active_shards` gauge.
    pub fn export_metrics(&self, active_shards: usize) {
        let reg = ln_obs::registry();
        reg.counter("cluster_steals_total").add(self.steals);
        reg.counter("cluster_hedges_total").add(self.hedges);
        reg.counter("cluster_hedge_wasted_total")
            .add(self.hedge_wasted);
        reg.counter("cluster_reroutes_total").add(self.reroutes);
        reg.counter("cluster_shard_losses_total")
            .add(self.shard_losses);
        reg.gauge("cluster_active_shards").set(active_shards as f64);
    }

    /// A deterministic digest of every counter and latency sample: equal
    /// digests ⇔ equal cluster behavior. The reproducibility tests pin
    /// this across `ln-par` pool sizes.
    pub fn fingerprint(&self) -> u64 {
        let mut desc = format!(
            "{}|{}|{}|{}|{}|{:.9}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{};",
            self.placed,
            self.router_rejected,
            self.hedges,
            self.hedge_cancelled,
            self.hedge_wasted,
            self.hedge_wasted_seconds,
            self.steals,
            self.reroutes,
            self.shard_losses,
            self.deferred,
            self.scale_ups,
            self.scale_downs,
            self.completed,
            self.degraded,
            self.timed_out,
            self.rejected,
            self.failed,
        );
        for l in &self.latencies_seconds {
            desc.push_str(&format!("{l:.9},"));
        }
        ln_tensor::rng::seed_from_label(&desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let stats = ClusterStats {
            latencies_seconds: vec![4.0, 1.0, 3.0, 2.0],
            ..ClusterStats::default()
        };
        assert_eq!(stats.latency_percentile(0.5), Some(2.0));
        assert_eq!(stats.latency_percentile(0.99), Some(4.0));
        assert_eq!(stats.latency_percentile(0.0), Some(1.0));
        assert_eq!(ClusterStats::default().latency_percentile(0.5), None);
    }

    #[test]
    fn tables_render_every_counter() {
        let stats = ClusterStats {
            placed: 10,
            hedges: 3,
            hedge_wasted: 1,
            hedge_wasted_seconds: 2.5,
            steals: 4,
            completed: 9,
            failed: 1,
            latencies_seconds: vec![1.0, 2.0],
            ..ClusterStats::default()
        };
        let (outcomes, machinery) = stats.cluster_tables();
        let text = format!("{}{}", outcomes.render(), machinery.render());
        assert!(text.contains("hedge_wasted"), "{text}");
        assert!(text.contains("steals"), "{text}");
        assert!(text.contains("p99_latency"), "{text}");
        assert!(text.contains("scale_downs"), "{text}");
    }

    #[test]
    fn fingerprint_tracks_hedge_waste_and_steals() {
        let a = ClusterStats::default();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.hedge_wasted += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.steals += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.latencies_seconds.push(0.125);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn export_metrics_registers_the_documented_names() {
        let stats = ClusterStats {
            steals: 2,
            hedges: 1,
            ..ClusterStats::default()
        };
        stats.export_metrics(3);
        let snap = ln_obs::registry().snapshot();
        let names: Vec<&str> = snap.keys().map(|n| n.as_str()).collect();
        for name in [
            "cluster_steals_total",
            "cluster_hedges_total",
            "cluster_hedge_wasted_total",
            "cluster_reroutes_total",
            "cluster_shard_losses_total",
            "cluster_active_shards",
        ] {
            assert!(names.contains(&name), "missing {name}: {names:?}");
        }
    }
}
