//! Exporter round-trip acceptance for the ln-obs export formats.
//!
//! The `ln-insight` crate re-ingests exported telemetry, so the exports
//! are load-bearing interchange formats, not just log decoration:
//!
//! * Chrome-trace JSON must parse cleanly with `ln_insight::json`.
//! * The JSONL trace export must round-trip **losslessly**: parsing it
//!   with `ln_insight::jsonl` yields the original events, and
//!   re-serializing those yields byte-identical JSONL (a fixed point).
//!   This holds for a synthetic vocabulary-covering trace and for a real
//!   chaos run of the serve engine.
//! * The ln-scope numerics snapshot is itself a metrics-JSONL document,
//!   and it must survive both the standalone `parse_metrics` path and a
//!   full trip through an ln-watch flight-recorder black box.
//! * Every text parser behind those formats (and the PDB reader) answers
//!   hostile input with an error or a value, never a panic.

use ln_datasets::Registry;
use ln_insight::json;
use ln_obs::{ArgValue, TraceEvent, TracePhase};
use ln_scope::{Scope, SketchKey};
use ln_serve::fault::{ChaosSpec, FaultPlan};
use ln_serve::{standard_backends, BatcherConfig, BucketPolicy, Engine, WorkloadSpec};
use ln_tensor::Tensor2;

/// A hand-built trace covering every phase kind and argument type,
/// including the adversarial corners: escapes in strings, a zero
/// timestamp, an integral float (must stay typed as a float), and a u64
/// above 2^53 (must survive without f64 rounding).
fn synthetic_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            name: "enqueue".to_string(),
            cat: "queue",
            phase: TracePhase::Instant,
            ts_nanos: 0,
            track: 1,
            args: vec![("id", ArgValue::U64(7)), ("seq_len", ArgValue::U64(512))],
        },
        TraceEvent {
            name: "fold_batch".to_string(),
            cat: "kernel",
            phase: TracePhase::Complete {
                dur_nanos: 1_234_567,
            },
            ts_nanos: 1_152_921_504_606_846_977, // 2^60 + 1: exact or bust
            track: 100,
            args: vec![
                ("precision", ArgValue::Str("int4".to_string())),
                ("backoff_seconds", ArgValue::F64(2.0)), // integral float
                ("ratio", ArgValue::F64(-0.125)),
            ],
        },
        TraceEvent {
            name: "begin \"quoted\"\npath\\seg".to_string(),
            cat: "span",
            phase: TracePhase::Begin,
            ts_nanos: 5,
            track: 0,
            args: Vec::new(),
        },
        TraceEvent {
            name: "begin \"quoted\"\npath\\seg".to_string(),
            cat: "span",
            phase: TracePhase::End,
            ts_nanos: 9,
            track: 0,
            args: Vec::new(),
        },
    ]
}

/// One small traced chaos run of the virtual-time engine.
fn engine_trace() -> Vec<TraceEvent> {
    let reg = Registry::standard();
    let policy = BucketPolicy::from_registry(&reg);
    let workload = WorkloadSpec::cameo_casp_mix(40, 3.0)
        .with_seed("export/roundtrip-workload")
        .synthesize(&reg);
    let plan = FaultPlan::seeded("export/roundtrip-plan", &ChaosSpec::light(2));
    let mut engine =
        Engine::with_resilience(policy, BatcherConfig::default(), standard_backends(), plan);
    engine.set_tracing(true);
    let out = engine.run(&workload);
    assert_eq!(out.trace_dropped, 0, "the test trace must fit the ring");
    out.trace.expect("tracing was enabled")
}

#[test]
fn chrome_trace_json_parses_with_the_insight_parser() {
    let events = synthetic_events();
    let text = ln_obs::chrome_trace_json(&events);
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let rows = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(rows.len(), events.len(), "one JSON event per trace event");
    // The big timestamp survives on the microsecond scale without losing
    // the event, and string escapes decode back to the original name.
    assert!(rows.iter().any(|r| r
        .get("name")
        .and_then(json::Value::as_str)
        .is_some_and(|n| n.contains("\"quoted\""))));
}

#[test]
fn jsonl_round_trip_is_lossless_for_synthetic_events() {
    let events = synthetic_events();
    let text = ln_obs::jsonl_events(&events);
    let parsed = ln_insight::jsonl::parse_events(&text).expect("JSONL parses");
    assert_eq!(parsed, events, "re-ingestion must reproduce the events");
    assert_eq!(
        ln_obs::jsonl_events(&parsed),
        text,
        "serialize∘parse must be a fixed point"
    );
}

#[test]
fn jsonl_round_trip_is_lossless_for_a_real_engine_trace() {
    let events = engine_trace();
    assert!(!events.is_empty());
    let text = ln_obs::jsonl_events(&events);
    let parsed = ln_insight::jsonl::parse_events(&text).expect("JSONL parses");
    assert_eq!(parsed, events);
    assert_eq!(ln_obs::jsonl_events(&parsed), text);

    // The re-ingested trace supports the same analysis as the original:
    // the critical-path replay sees no difference at all.
    let original = ln_insight::CriticalPath::analyze(&events, 0);
    let reingested = ln_insight::CriticalPath::analyze(&parsed, 0);
    assert_eq!(original, reingested);
    assert!(
        original.unattributed.is_empty(),
        "engine traces must attribute fully: {:?}",
        original.unattributed
    );
}

/// A small deterministic numerics scope: three populated `(layer, stage)`
/// cells with sketches, actual-rung error, byte accounting and probe
/// errors — every metric family the ln-scope exporters emit.
fn demo_scope() -> Scope {
    let mut scope = Scope::new();
    for (block, stage) in [
        (0usize, "tri_mul.residual_in"),
        (0, "tri_mul.post_ln"),
        (1, "tri_attn.scores"),
    ] {
        let x = Tensor2::from_fn(6, 16, |i, j| {
            ((block + 1) * (i * 16 + j + 1)) as f32 * 0.03 - 1.0
        });
        scope.book.observe(
            SketchKey {
                block,
                stage,
                bucket: "le_256",
            },
            &x,
        );
        let cell = scope.ledger.entry(block, stage);
        cell.rung = String::from("INT4+4o");
        cell.taps = 2;
        cell.err_sq = 0.5;
        cell.val_sq = 300.0;
        cell.encoded_bytes = 120;
        cell.fp16_bytes = 384;
        cell.probe_err_sq = [3.0, 0.02];
        cell.probe_val_sq = [300.0, 300.0];
    }
    scope
}

#[test]
fn numerics_snapshot_jsonl_round_trips_exactly() {
    let scope = demo_scope();
    let text = scope.snapshot_jsonl();
    assert!(!text.is_empty());
    let parsed = ln_insight::parse_metrics(&text).expect("numerics JSONL parses");
    assert_eq!(
        parsed,
        scope.metrics(),
        "re-ingestion reproduces the snapshot"
    );
    assert_eq!(
        ln_obs::metrics_jsonl(&parsed),
        text,
        "serialize∘parse must be a fixed point"
    );
}

#[test]
fn blackbox_carrying_numerics_round_trips_exactly() {
    let scope = demo_scope();
    let reg = ln_obs::Registry::new();
    scope.export_into(&reg);
    let exported = reg.snapshot();
    assert!(
        !exported.is_empty(),
        "export_into needs counting enabled (the LN_OBS default)"
    );

    let recorder = ln_watch::FlightRecorder::new(16, 30.0);
    let text = recorder.snapshot("slo_breach:accuracy_rmse", 3, 45.0, &reg);
    let doc = ln_insight::parse_blackbox(&text).expect("black box parses");
    assert_eq!(doc.trigger, "slo_breach:accuracy_rmse");
    assert_eq!(doc.metrics, exported, "metrics survive the black box");
    assert!(
        text.ends_with(&ln_obs::metrics_jsonl(&doc.metrics)),
        "metric section must re-serialize byte-identically"
    );
}

/// The hostile-input contract of the text parsers: mutated and truncated
/// copies of real documents get an error or a value back, never a panic.
/// Seeded over `ln_tensor::rng`, so a failure names a case that replays.
/// The property already held at the parent commit, where this loop passes
/// unchanged: the test pins it, it did not find a defect.
#[test]
fn mutated_and_truncated_text_never_panics_a_parser() {
    use ln_protein::{generator::StructureGenerator, pdb, Sequence};
    use ln_tensor::rng::{self, Rng};

    const TOKENS: [&str; 7] = [
        "NaN",
        "1e999",
        "\"",
        "{",
        "\\u",
        "18446744073709551616", // 2^64
        "\n",
    ];
    const CASES: u64 = 200;

    let reg = ln_obs::Registry::new();
    demo_scope().export_into(&reg);
    let mut recorder = ln_watch::FlightRecorder::new(16, 30.0);
    for event in synthetic_events() {
        recorder.record(event);
    }
    let structure = StructureGenerator::new("fuzz").generate(24);
    let sequence = Sequence::random("fuzz", 24);

    type Parser = fn(&str);
    let bench: Parser = |text| drop(json::parse(text));
    let mut targets: Vec<(&str, String, Parser)> = [
        include_str!("../BENCH_CLUSTER.json"),
        include_str!("../BENCH_INSIGHT.json"),
        include_str!("../BENCH_NUMERICS.json"),
        include_str!("../BENCH_OBS.json"),
        include_str!("../BENCH_PAR.json"),
        include_str!("../BENCH_WATCH.json"),
    ]
    .into_iter()
    .map(|doc| ("bench", doc.to_string(), bench))
    .collect();
    targets.push(("jsonl", ln_obs::jsonl_events(&synthetic_events()), |t| {
        drop(ln_insight::jsonl::parse_events(t))
    }));
    targets.push((
        "blackbox",
        recorder.snapshot("slo_breach:\"x\"", 3, 45.0, &reg),
        |t| drop(ln_insight::parse_blackbox(t)),
    ));
    targets.push(("metrics", ln_obs::metrics_jsonl(&reg.snapshot()), |t| {
        drop(ln_insight::parse_metrics(t))
    }));
    targets.push(("pdb", pdb::to_pdb(&structure, &sequence, 'A'), |t| {
        drop(pdb::from_pdb(t))
    }));

    for (index, (name, seed, parse)) in targets.iter().enumerate() {
        parse(seed);
        for case in 0..CASES {
            let mut rng = rng::stream_indexed(&format!("hostile/{name}/{index}"), case);
            let mut bytes = seed.clone().into_bytes();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..=bytes.len());
                match rng.gen_range(0..4u32) {
                    0 => bytes.truncate(at),
                    1 => {
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= rng.gen_range(1..=255u32) as u8;
                        }
                    }
                    2 => {
                        let from = rng.gen_range(0..=bytes.len());
                        let span = bytes[from.min(at)..from.max(at)].to_vec();
                        bytes.splice(at..at, span);
                    }
                    _ => {
                        let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                        bytes.splice(at..at, token.bytes());
                    }
                }
            }
            parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
