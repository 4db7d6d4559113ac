//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out when the run ends.
//!
//! A span names its layer and call, its start and end (nanoseconds
//! since the trace opened), the span that caused it, and the request
//! (tile, frame or pool run) it served. A layer's self time is the
//! duration of its spans minus the part of each interval that child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`golden`, `build`, `engine`, `executor`, `pool`,
    /// `serve`, `partition`, or `bench` for the harness itself).
    pub layer: &'static str,
    /// The call or phase the span covers.
    pub call: &'static str,
    /// Start, nanoseconds since the trace opened.
    pub start_ns: u64,
    /// End, nanoseconds since the trace opened (0 while open).
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of one layer: calls, time inside its spans, and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Closed spans.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn begin(
        &mut self,
        layer: &'static str,
        call: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, call, start_ns, end_ns: 0, parent, request });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now.max(span.start_ns);
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(layer, call, parent, request);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals with self time: each span's duration minus the
    /// union of its children's intervals clipped to it.
    #[must_use]
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns == 0 {
                continue;
            }
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| &self.spans[c])
                .filter(|c| c.end_ns > 0)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut covered_ns = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    covered_ns += b - a;
                    cursor = b;
                }
            }
            let t = totals.entry(s.layer).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(covered_ns);
        }
        totals
    }

    /// Renders the spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"layer\": \"{}\", \"call\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.layer, s.call, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        t.spans = vec![
            Span {
                layer: "serve",
                call: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
            },
            Span {
                layer: "serve",
                call: "submit",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                request: 0,
            },
            Span {
                layer: "bench",
                call: "audit",
                start_ns: 20,
                end_ns: 40,
                parent: Some(0),
                request: 0,
            },
            Span {
                layer: "bench",
                call: "late",
                start_ns: 90,
                end_ns: 150,
                parent: Some(0),
                request: 0,
            },
        ];
        let totals = t.layer_totals();
        // Children cover [10, 40) and [90, 100): 40 ns of 100.
        assert_eq!(totals["serve"].calls, 2);
        assert_eq!(totals["serve"].total_ns, 120);
        assert_eq!(totals["serve"].self_ns, 60 + 20);
        assert_eq!(totals["bench"].self_ns, 80);
    }

    #[test]
    fn timed_spans_close_and_serialise() {
        let mut t = Trace::new();
        let root = t.begin("executor", "pass", None, 0);
        let (v, _) = t.time("executor", "run_tile", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.layer_totals()["executor"].calls, 2);
        let js = t.to_jsonl();
        assert_eq!(js.lines().count(), 2);
        assert!(js.contains("\"parent\": 0, \"request\": 7"));
    }
}
