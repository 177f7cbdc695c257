//! Observability end to end: fold a small batch with tracing enabled,
//! print the unified metrics registry, and write a Chrome-trace file.
//!
//! Run with `cargo run --release --example tracing`, then open the emitted
//! `trace.json` in `chrome://tracing` (or <https://ui.perfetto.dev>) to see
//! the queue → dispatch → kernel timeline of every request.

use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};

fn main() {
    // Everything below the `off` level is recorded; `trace` additionally
    // fills the span ring. Equivalent to running with `LN_OBS=trace`.
    ln_obs::set_level(ln_obs::ObsLevel::Trace);

    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);
    let workload = WorkloadSpec::cameo_casp_mix(32, 2.0)
        .with_seed("example/tracing")
        .synthesize(&reg);

    let mut engine = Engine::new(policy, BatcherConfig::default(), standard_backends());
    let out = engine.run(&workload);
    println!(
        "folded {} requests in {:.1} virtual seconds\n",
        out.responses.len(),
        out.stats.makespan_seconds
    );

    // The registry aggregates counters/gauges/histograms from every layer
    // that ran: serve outcomes, ln-par kernels, accel stage gauges.
    for table in lightnobel::report::obs_tables() {
        print!("{}", table.render());
        println!();
    }

    // The engine's trace is recorded against its virtual clock, so this
    // file is byte-identical for a fixed seed regardless of host load.
    let events = out.trace.expect("LN_OBS=trace enables engine tracing");
    let json = ln_obs::chrome_trace_json(&events);
    std::fs::write("trace.json", &json).expect("write trace.json");
    println!(
        "wrote trace.json ({} events, {} bytes) — load it in chrome://tracing",
        events.len(),
        json.len()
    );
}
