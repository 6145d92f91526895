//! In-memory span recorder for the traced run.
//!
//! Spans carry a name, host start and end (nanoseconds since the tracer
//! was made) and the index of the span that caused them. Per-call spans of
//! hot calls (`step()`) are not kept one by one: they fold into an
//! [`Aggregate`] under their parent, a histogram with exact count and sum.
//! Nothing is written until [`Tracer::to_json`] at the end of the run.

use std::time::Instant;

use crate::stats::Histogram;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Many same-named child spans of one parent, folded into a histogram.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub name: &'static str,
    pub parent: usize,
    pub hist: Histogram,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), aggregates: Vec::new() }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(Span { name, start_ns: now, end_ns: now, parent })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Starts an aggregate of `name` spans under `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize) -> usize {
        self.aggregates.push(Aggregate { name, parent, hist: Histogram::default() });
        self.aggregates.len() - 1
    }

    /// Adds one call of `ns` nanoseconds to aggregate `agg`.
    pub fn record(&mut self, agg: usize, ns: u64) {
        self.aggregates[agg].hist.record(ns);
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn hist(&self, agg: usize) -> &Histogram {
        &self.aggregates[agg].hist
    }

    /// Self time of span `id`: its duration minus the time its direct
    /// children (spans and aggregates) cover.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum::<f64>()
            + self
                .aggregates
                .iter()
                .filter(|a| a.parent == id)
                .map(|a| a.hist.sum_s())
                .sum::<f64>();
        self.spans[id].duration_s() - children
    }

    /// Every span and aggregate as one JSON document.
    pub fn to_json(&self) -> String {
        let parent = |p: Option<usize>| p.map_or("null".to_owned(), |p| p.to_string());
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {}, \"self_s\": {:.9}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    parent(s.parent),
                    self.self_s(i)
                )
            })
            .collect();
        let aggregates: Vec<String> = self
            .aggregates
            .iter()
            .map(|a| {
                format!(
                    "    {{\"name\": \"{}\", \"parent\": {}, \"calls\": {}, \"busy_s\": {:.9}, \
                     \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
                    a.name,
                    a.parent,
                    a.hist.count(),
                    a.hist.sum_s(),
                    a.hist.percentile_ns(0.5) * 1e-3,
                    a.hist.percentile_ns(0.99) * 1e-3
                )
            })
            .collect();
        format!(
            "{{\n  \"spans\": [\n{}\n  ],\n  \"aggregates\": [\n{}\n  ]\n}}\n",
            spans.join(",\n"),
            aggregates.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let root = t.push(Span { name: "run", start_ns: 0, end_ns: 100, parent: None });
        let a = t.push(Span { name: "setup", start_ns: 10, end_ns: 40, parent: Some(root) });
        t.push(Span { name: "inner", start_ns: 12, end_ns: 20, parent: Some(a) });
        let steps =
            t.push(Span { name: "steps", start_ns: 50, end_ns: 90, parent: Some(root) });
        let agg = t.aggregate("step", steps);
        t.record(agg, 15);
        t.record(agg, 5);
        assert!((t.self_s(root) - 30e-9).abs() < 1e-15);
        assert!((t.self_s(a) - 22e-9).abs() < 1e-15);
        assert!((t.self_s(steps) - 20e-9).abs() < 1e-15);
        assert_eq!(t.hist(agg).count(), 2);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"step\", \"parent\": 3, \"calls\": 2"));
    }
}
