//! In-memory spans, recorded only from this package's own source around
//! calls into each layer's public functions, and written out as JSON
//! lines when the traced run ends.

use crate::json::{self, Value};
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// began; spans of one fold share `fold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub id: u32,
    pub parent: Option<u32>,
    pub fold: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    fold: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(fold: u32) -> Self {
        Recorder {
            epoch: Instant::now(),
            fold,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        // Clock read last, so the bookkeeping above is charged to the parent.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            id,
            parent,
            fold: self.fold,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children may nest, touch or (defensively) overlap: the covered part is
/// the union of their intervals clipped to the span.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = span.start_ns;
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// One JSON object per line: `name, id, parent, fold, start_ns, end_ns`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = json::obj([
            ("name", Value::Str(s.name.clone())),
            ("id", Value::UInt(u64::from(s.id))),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
            ),
            ("fold", Value::UInt(u64::from(s.fold))),
            ("start_ns", Value::UInt(s.start_ns)),
            ("end_ns", Value::UInt(s.end_ns)),
        ]);
        out.push_str(&json::write(&line));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: format!("s{id}"),
            id,
            parent,
            fold: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),  // child
            span(2, Some(1), 15, 30),  // grandchild: already inside span 1
            span(3, Some(0), 40, 60),  // adjacent to span 1
            span(4, Some(0), 90, 100), // ends with the parent
            span(5, None, 200, 250),   // unrelated root
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 15);
        assert_eq!(self_time_ns(&spans, 2), 15);
        assert_eq!(self_time_ns(&spans, 5), 50);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 95, 120), // clipped to the parent
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 5);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new(7);
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.end(inner);
        let sibling = rec.begin("sibling");
        rec.end(sibling);
        rec.end(outer);
        let spans = rec.into_spans();
        assert_eq!(spans[inner as usize].parent, Some(outer));
        assert_eq!(spans[sibling as usize].parent, Some(outer));
        assert_eq!(spans[outer as usize].parent, None);
        assert!(spans.iter().all(|s| s.fold == 7 && s.end_ns >= s.start_ns));
        assert!(spans[inner as usize].end_ns <= spans[sibling as usize].start_ns);
        assert!(self_time_ns(&spans, outer) <= spans[outer as usize].end_ns);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let spans = [span(0, None, 5, 9), span(1, Some(0), 6, 7)];
        let text = to_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").unwrap().as_str(), Some("s1"));
        assert_eq!(second.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(second.get("end_ns").unwrap().as_u64(), Some(7));
        assert_eq!(
            json::parse(lines[0]).unwrap().get("parent"),
            Some(&Value::Null)
        );
    }
}
