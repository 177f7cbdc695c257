//! Seeded chaos run through the resilience layer.
//!
//! Drives the `ln-serve` virtual-time engine through the golden scenario
//! ([`GoldenChaos`]): a synthetic CAMEO/CASP mix plus one deliberately
//! giant sequence, under a seeded plan of backend stalls, transient
//! compute errors, a worker panic, a bucket-queue poison and an HBM
//! capacity-pressure window on the AAQ-capable backend. Prints the
//! per-backend fault/degradation table and the resilience summary.
//!
//! Exits non-zero (panics) if any request goes unanswered, if a second run
//! of the same seed differs by a byte, or if the plan never bites or never
//! forces the INT4 rung. The run is in virtual time, so the bin takes
//! milliseconds; the scenario's identity across `ln-par` pools 1/2/4 is
//! held by `tests/chaos.rs`.

use ln_bench::{banner, paper_note, show};
use ln_serve::fault::GoldenChaos;
use ln_serve::EngineOutcome;

/// Mixed requests in the workload, before the giant one.
const REQUESTS: usize = 240;

fn main() {
    banner(
        "chaos — seeded fault injection through the resilience layer (ln_serve::fault + ln-serve)",
    );
    paper_note(
        "robustness extension: the paper's activation-explosion failure mode (§2) made \
         injectable as HBM pressure; the serving layer answers with retry/backoff, \
         per-backend circuit breakers and the AAQ precision-degradation fallback \
         (FP32 -> INT8 -> INT4) instead of rejecting long sequences",
    );

    let scenario = GoldenChaos::new("chaos/bench", REQUESTS);
    let workload = &scenario.workload;
    let out = scenario.engine().run(workload);

    // Zero hangs: every submitted request has exactly one response.
    assert_eq!(
        out.responses.len(),
        workload.len(),
        "every request must terminate with a definite outcome"
    );

    // Byte-identical resilience stats across two runs of the same seed.
    let rerun = scenario.engine().run(workload);
    let render = |o: &EngineOutcome| {
        let (per_backend, summary) = o.stats.resilience_tables();
        format!("{}{}", per_backend.render(), summary.render())
    };
    assert_eq!(out.stats.fingerprint(), rerun.stats.fingerprint());
    assert_eq!(out.stats, rerun.stats);
    assert_eq!(
        render(&out).into_bytes(),
        render(&rerun).into_bytes(),
        "resilience tables must be byte-identical for a fixed seed"
    );

    println!("\n{} requests under the seeded plan:", workload.len());
    let (per_backend, summary) = out.stats.resilience_tables();
    show(&per_backend);
    println!();
    show(&summary);

    let res = &out.stats.resilience;
    println!(
        "\nfaults={} retries={} degraded={} availability={:.4} fingerprint={:#018x}",
        res.faults(),
        res.retries,
        res.degraded_batches(),
        out.stats.availability(),
        out.stats.fingerprint()
    );
    assert!(res.faults() > 0, "the seeded plan must actually bite");
    assert!(
        res.degraded_batches() > 0,
        "the giant sequence must complete via the degradation path"
    );
    println!("\nchaos: OK (two runs byte-identical, zero hangs)");
}
