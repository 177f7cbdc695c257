//! Analysis layer over the raw `ln-obs` telemetry: instead of merely
//! *exporting* traces and metrics, this crate *interprets* them.
//!
//! Three analyses, mirroring how the LightNobel paper (ISCA 2025) argues
//! its own design:
//!
//! * [`timeline::CriticalPath`] — reconstructs per-request timelines from
//!   the serve engine's trace vocabulary (`enqueue` → `queue_wait` →
//!   `dispatch` → `fold_batch`, plus retry/fault/breaker/degradation
//!   instants) into an attributed latency breakdown with per-phase
//!   p50/p99 and a queue-vs-compute-vs-retry blame summary — the
//!   live-trace analogue of the paper's Fig. 3 latency profile.
//! * [`blackbox`] — re-ingestion of `ln-watch` flight-recorder black
//!   boxes (header + events + registry snapshot, each an exact inverse
//!   of the deterministic exporters) and the memory-vs-length table over
//!   the activation watermark rows — the live-telemetry analogue of the
//!   paper's Fig. 4 memory cliff.
//! * [`precision`] — the precision ledger over an `ln_scope::Scope`:
//!   per-layer quantization error, probe-rung comparison, the outlier
//!   census, and a cheapest-safe-rung recommendation under a TM-score
//!   error budget.
//!
//! Everything is std-only and deterministic: the same events and the
//! same snapshots render byte-identical reports, which is what lets the
//! dashboards double as golden-test fixtures. [`json`] is the minimal
//! hand-rolled JSON writer and parser every `BENCH_*.json` record and the
//! exporter round-trip tests share, and [`jsonl`] re-ingests the `ln-obs`
//! JSONL trace export losslessly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
pub mod json;
pub mod jsonl;
pub mod precision;
pub mod timeline;

pub use blackbox::{memory_vs_length_table, parse_blackbox, parse_metrics, BlackboxDoc};
pub use precision::{precision_ledger_table, precision_rows, PrecisionRow, DEFAULT_TM_BUDGET};
pub use timeline::{CriticalPath, TerminalCounts};

/// Render a count of nanoseconds as a fixed-precision human duration.
///
/// Pure integer arithmetic (no float rounding), so the output is
/// byte-identical across hosts: `1.234 s`, `56.789 ms`, `12.345 us`,
/// `678 ns`.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!(
            "{}.{:03} s",
            nanos / 1_000_000_000,
            (nanos % 1_000_000_000) / 1_000_000
        )
    } else if nanos >= 1_000_000 {
        format!(
            "{}.{:03} ms",
            nanos / 1_000_000,
            (nanos % 1_000_000) / 1_000
        )
    } else if nanos >= 1_000 {
        format!("{}.{:03} us", nanos / 1_000, nanos % 1_000)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_nanos;

    #[test]
    fn fmt_nanos_is_fixed_precision() {
        assert_eq!(fmt_nanos(0), "0 ns");
        assert_eq!(fmt_nanos(999), "999 ns");
        assert_eq!(fmt_nanos(1_000), "1.000 us");
        assert_eq!(fmt_nanos(12_345), "12.345 us");
        assert_eq!(fmt_nanos(56_789_012), "56.789 ms");
        assert_eq!(fmt_nanos(1_234_567_890), "1.234 s");
        assert_eq!(fmt_nanos(61_000_000_000), "61.000 s");
    }
}
