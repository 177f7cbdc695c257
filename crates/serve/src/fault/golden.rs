//! The golden chaos scenario: the paper's failure at the length limit (§2,
//! §8.3) as one seeded run. A CAMEO/CASP mix plus one request at
//! LightNobel's longest routable length arrives while LightNobel's memory
//! is squeezed so far that only the INT4 rung of the AAQ ladder fits, under
//! a sampled plan of stalls, transients, a worker panic and a queue poison.
//! The `chaos` and `insight` bins and the chaos and trace golden tests all
//! run it; each picks its own workload seed and size.

use super::{ChaosSpec, FaultPlan, PoisonEvent, PressureWindow};
use crate::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, Engine, FoldRequest,
    LightNobelBackend, WorkloadSpec,
};
use ln_datasets::Registry;
use ln_quant::ActPrecision;

/// Seed label of the plan, chosen so the sampled worker panic lands on a
/// dispatch sequence number the run actually reaches.
const PLAN_SEED: &str = "chaos/plan-h";

/// A whole-run pressure window on LightNobel (backend 0 of
/// [`standard_backends`]) that leaves ~1.2× the INT4 footprint of its
/// longest routable sequence: FP32 and INT8 cannot fit it, INT4 can.
pub fn int4_only_pressure() -> PressureWindow {
    let ln = LightNobelBackend::paper("LightNobel");
    let giant = ln.max_single_length();
    PressureWindow {
        backend: 0,
        start_seconds: 0.0,
        end_seconds: 1e9,
        available_fraction: ln.batch_peak_bytes_at(&[giant], ActPrecision::Int4) * 1.2
            / ln.memory_capacity_bytes(),
    }
}

/// The golden scenario's requests and fault plan.
#[derive(Debug, Clone)]
pub struct GoldenChaos {
    /// `requests` mixed requests at 3 per virtual second, then the giant
    /// request at LightNobel's longest routable length, arriving at 5 s.
    pub workload: Vec<FoldRequest>,
    /// The seeded plan: the INT4-only pressure window, a bucket-0 poison at
    /// 12 s, one worker panic within the first 8 dispatches, and
    /// [`ChaosSpec::light`] stalls and transients on the three backends.
    pub plan: FaultPlan,
}

impl GoldenChaos {
    /// The scenario over `requests` mixed requests synthesized under
    /// `workload_seed`.
    pub fn new(workload_seed: &str, requests: usize) -> Self {
        let mut workload = WorkloadSpec::cameo_casp_mix(requests, 3.0)
            .with_seed(workload_seed)
            .synthesize(&Registry::standard());
        let id = workload.iter().map(|r| r.id).max().map_or(0, |m| m + 1);
        workload.push(FoldRequest {
            id,
            name: "giant-under-pressure".to_string(),
            length: LightNobelBackend::paper("LightNobel").max_single_length(),
            arrival_seconds: 5.0,
            timeout_seconds: 1e6,
        });
        let spec = ChaosSpec {
            worker_panics: 1,
            horizon_dispatches: 8,
            pressure: vec![int4_only_pressure()],
            poisons: vec![PoisonEvent {
                bucket: 0,
                at_seconds: 12.0,
            }],
            ..ChaosSpec::light(3)
        };
        GoldenChaos {
            workload,
            plan: FaultPlan::seeded(PLAN_SEED, &spec),
        }
    }

    /// A fresh engine over the standard bucket policy and backend pool
    /// that runs under the plan.
    pub fn engine(&self) -> Engine {
        Engine::with_resilience(
            BucketPolicy::from_registry(&Registry::standard()),
            BatcherConfig::default(),
            standard_backends(),
            self.plan.clone(),
        )
    }
}
