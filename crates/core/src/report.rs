//! Plain-text table formatting shared by the bench binaries.
//!
//! The reproduction avoids serialization dependencies: every experiment
//! prints fixed-width tables (and the bench harness tees them into
//! `bench_output.txt`).

use std::fmt::Write as _;

/// A fixed-width text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the rendered table (multi-table
    /// reports like the resilience dashboard need each table labelled;
    /// `to_csv` stays title-free so machine consumers are unaffected).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas, quotes or newlines).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "== {title} ==");
        }
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", h, width = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        let _ = cols;
        out
    }
}

/// Formats bytes as gigabytes with two decimals (`"7.90 GB"`).
pub fn fmt_gb(bytes: f64) -> String {
    format!("{:.2} GB", bytes / 1e9)
}

/// Formats a duration in seconds with adaptive units.
pub fn fmt_seconds(seconds: f64) -> String {
    if seconds >= 100.0 {
        format!("{seconds:.0} s")
    } else if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} µs", seconds * 1e6)
    }
}

/// Formats a speedup/ratio (`"8.44x"`).
pub fn fmt_ratio(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a TM-Score with the paper's precision.
pub fn fmt_tm(tm: f64) -> String {
    format!("{tm:.4}")
}

/// Formats a signed TM delta (`"-0.0008"`).
pub fn fmt_tm_delta(delta: f64) -> String {
    format!("{delta:+.4}")
}

/// Formats a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Renders the unified metrics registry as three tables — counters, gauges
/// and histograms — in snapshot (sorted-name) order. Histogram rows show
/// count, mean and the p50/p99 bucket upper bounds; empty sections render
/// headers only.
pub fn obs_tables() -> Vec<Table> {
    // Force-register the trace-drop counter so the row renders even at
    // zero: a report must state "no trace events were dropped" explicitly,
    // or a truncated trace could masquerade as a complete one.
    ln_obs::trace_dropped_total();
    // Same for the cluster counters `ln-cluster` mirrors in: a report from
    // a cluster run must show zero steals/hedges/losses explicitly rather
    // than omit the rows.
    let reg = ln_obs::registry();
    reg.counter("cluster_steals_total");
    reg.counter("cluster_hedges_total");
    reg.counter("cluster_hedge_wasted_total");
    reg.counter("cluster_reroutes_total");
    reg.counter("cluster_shard_losses_total");
    reg.gauge("cluster_active_shards");
    // And the flight-recorder eviction counter from `ln-watch`: the black
    // box covers only the last N virtual seconds by design, so the report
    // must state how many events aged out of the ring — zero means every
    // recorded event was still available at snapshot time.
    reg.counter("watch_recorder_dropped_total");
    let snap = ln_obs::registry().snapshot();
    let mut counters = Table::new(["counter", "value"]).with_title("obs counters");
    let mut gauges = Table::new(["gauge", "value"]).with_title("obs gauges");
    let mut hists =
        Table::new(["histogram", "count", "mean", "p50<=", "p99<="]).with_title("obs histograms");
    for (name, value) in &snap {
        match value {
            ln_obs::MetricValue::Counter(n) => {
                counters.add_row([name.clone(), n.to_string()]);
            }
            ln_obs::MetricValue::Gauge(g) => {
                gauges.add_row([name.clone(), format!("{g:.4}")]);
            }
            ln_obs::MetricValue::Histogram(h) => {
                hists.add_row([
                    name.clone(),
                    h.count.to_string(),
                    format!("{:.1}", h.mean()),
                    h.percentile(50.0).to_string(),
                    h.percentile(99.0).to_string(),
                ]);
            }
        }
    }
    vec![counters, gauges, hists]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_tables_cover_all_metric_kinds() {
        let reg = ln_obs::registry();
        reg.counter("report_test_counter").add(7);
        reg.gauge("report_test_gauge").set(1.25);
        reg.histogram("report_test_hist").record(100);
        let tables = obs_tables();
        assert_eq!(tables.len(), 3);
        let all: String = tables.iter().map(Table::render).collect();
        assert!(all.contains("report_test_counter"), "{all}");
        assert!(all.contains("report_test_gauge"), "{all}");
        assert!(all.contains("report_test_hist"), "{all}");
        assert!(all.contains("== obs counters =="));
        assert!(
            all.contains("obs_trace_dropped_total"),
            "the trace-drop counter must render even at zero:\n{all}"
        );
        for name in [
            "cluster_steals_total",
            "cluster_hedges_total",
            "cluster_hedge_wasted_total",
            "cluster_reroutes_total",
            "cluster_shard_losses_total",
            "cluster_active_shards",
        ] {
            assert!(
                all.contains(name),
                "cluster metric {name} must render even at zero:\n{all}"
            );
        }
        assert!(
            all.contains("watch_recorder_dropped_total"),
            "the flight-recorder eviction counter must render even at zero:\n{all}"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.add_row(["short", "1"]);
        t.add_row(["a-much-longer-name", "12345"]);
        let s = t.render();
        assert!(s.contains("| name"));
        assert!(s.contains("| a-much-longer-name |"));
        // All lines have equal width.
        let widths: std::collections::HashSet<usize> =
            s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "{s}");
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn title_renders_above_table_but_not_in_csv() {
        let mut t = Table::new(["a"]).with_title("faults by backend");
        t.add_row(["1"]);
        assert!(t.render().starts_with("== faults by backend ==\n"));
        assert!(!t.to_csv().contains("faults by backend"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.add_row(["only-one"]);
    }

    #[test]
    fn csv_escapes_delimiters() {
        let mut t = Table::new(["a", "b"]);
        t.add_row(["plain", "with,comma"]);
        t.add_row(["quote\"inside", "multi\nline"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert!(lines[2].starts_with("\"quote\"\"inside\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_gb(7.9e9), "7.90 GB");
        assert_eq!(fmt_seconds(0.002), "2.00 ms");
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(250.0), "250 s");
        assert_eq!(fmt_seconds(3e-6), "3.00 µs");
        assert_eq!(fmt_ratio(8.44), "8.44x");
        assert_eq!(fmt_tm(0.95124), "0.9512");
        assert_eq!(fmt_tm_delta(-0.0008), "-0.0008");
        assert_eq!(fmt_pct(0.433), "43.3%");
    }
}
