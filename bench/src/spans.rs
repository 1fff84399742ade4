//! In-memory spans for the traced driver, and their self-time budget.
//!
//! A span is `{name, start_ns, end_ns, parent}` plus the number of items
//! (events or messages) the wrapped call handled. The driver is
//! single-threaded, so spans nest strictly and siblings never overlap:
//! a span's self time is its duration minus its children's durations,
//! and the self times of a tree sum to the duration of its root.

use serde::Serialize;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Raw spans kept in the trace file; the per-name summary covers all.
pub const RAW_SPANS_KEPT: usize = 10_000;

#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for the root.
    pub parent: u32,
    /// Events or messages handled inside the span.
    pub items: u32,
}

/// Per-name totals over a run's spans.
#[derive(Clone, Debug, PartialEq, Serialize, serde::Deserialize)]
pub struct SpanSummary {
    pub name: String,
    pub count: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; every method is a no-op when not, so the
/// same driver code runs both passes of the overhead comparison.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Index of the innermost open span.
    open: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: NO_PARENT,
        }
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open;
        self.open = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            items: 0,
        });
    }

    /// Close the innermost open span, crediting it with `items`.
    #[inline]
    pub fn exit(&mut self, items: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[self.open as usize];
        span.end_ns = end_ns;
        span.items = items as u32;
        self.open = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Per-name count, items, total and self time, in first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let own = self_times(spans);
    let mut out: Vec<SpanSummary> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let idx = match out.iter().position(|o| o.name == s.name) {
            Some(i) => i,
            None => {
                out.push(SpanSummary {
                    name: s.name.to_string(),
                    count: 0,
                    items: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.len() - 1
            }
        };
        let o = &mut out[idx];
        o.count += 1;
        o.items += s.items as u64;
        o.total_ns += s.end_ns - s.start_ns;
        o.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, items: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            items,
        }
    }

    /// run[0,100] { turn[10,60] { a[10,30], b[35,55] }, turn[60,90] { a[70,80] } }
    fn tree() -> Vec<Span> {
        vec![
            span("run", 0, 100, NO_PARENT, 0),
            span("turn", 10, 60, 0, 0),
            span("a", 10, 30, 1, 4),
            span("b", 35, 55, 1, 1),
            span("turn", 60, 90, 0, 0),
            span("a", 70, 80, 4, 2),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![20, 10, 20, 20, 20, 10]);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let own: u64 = self_times(&tree()).iter().sum();
        assert_eq!(own, 100);
    }

    #[test]
    fn summary_groups_by_name() {
        let s = summarize(&tree());
        let names: Vec<&str> = s.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["run", "turn", "a", "b"]);
        let a = &s[2];
        assert_eq!((a.count, a.items, a.total_ns, a.self_ns), (2, 6, 30, 30));
        let turn = &s[1];
        assert_eq!((turn.count, turn.total_ns, turn.self_ns), (2, 80, 30));
    }

    #[test]
    fn recorder_nests_and_restores_the_parent() {
        let mut r = Recorder::new(true);
        r.enter("run");
        r.enter("turn");
        r.enter("a");
        r.exit(3);
        r.exit(0);
        r.enter("turn");
        r.exit(0);
        r.exit(0);
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 1, 0]);
        assert_eq!(r.spans()[2].items, 3);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let own: u64 = self_times(r.spans()).iter().sum();
        assert_eq!(own, r.spans()[0].end_ns - r.spans()[0].start_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.enter("run");
        r.exit(1);
        assert!(r.spans().is_empty());
    }
}
