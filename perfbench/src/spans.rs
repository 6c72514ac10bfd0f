//! Post-processing of the traced run: per-layer self times and the span
//! file.
//!
//! Each job of a traced pass is one root span (`job`, or `submit` on the
//! served path) whose children are the benchmark's spans around the calls
//! into each layer. A layer's *self time* is its span's duration minus the
//! part of that interval its children cover, so the self times of a job's
//! spans add up to the job's duration exactly.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use droidracer_obs::{chrome_trace, MetricsRegistry, Recorder, SpanRecord};

/// `span`'s duration minus the union of its children's intervals, each
/// clipped to the parent's interval.
pub fn self_ns(span: &SpanRecord) -> u64 {
    let start = span.start_ns;
    let end = start.saturating_add(span.dur_ns);
    let mut covered: Vec<(u64, u64)> = span
        .children
        .iter()
        .map(|c| {
            (
                c.start_ns.max(start),
                c.start_ns.saturating_add(c.dur_ns).min(end),
            )
        })
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    span.dur_ns - total
}

/// Self time of every span in the tree under `root`, summed per name, in
/// milliseconds.
fn self_ms_by_name(root: &SpanRecord, out: &mut BTreeMap<String, f64>) {
    *out.entry(root.name.clone()).or_default() += self_ns(root) as f64 / 1e6;
    for child in &root.children {
        self_ms_by_name(child, out);
    }
}

/// Per-name self-time totals over many roots, plus the summed root
/// durations, in milliseconds.
pub struct LayerTimes {
    /// Σ self time per span name.
    pub self_ms: BTreeMap<String, f64>,
    /// Σ root duration.
    pub root_ms: f64,
    /// Number of roots.
    pub roots: usize,
}

impl LayerTimes {
    /// Aggregates `roots`.
    pub fn of(roots: &[SpanRecord]) -> Self {
        let mut self_ms = BTreeMap::new();
        for root in roots {
            self_ms_by_name(root, &mut self_ms);
        }
        LayerTimes {
            self_ms,
            root_ms: roots.iter().map(|r| r.dur_ns as f64 / 1e6).sum(),
            roots: roots.len(),
        }
    }

    /// Mean self time of spans named `name` per root (0 if none ran).
    pub fn per_root_ms(&self, name: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.self_ms.get(name).copied().unwrap_or(0.0) / self.roots as f64
    }

    /// Σ self time of the spans named `layers`.
    pub fn sum_ms(&self, layers: &[&str]) -> f64 {
        layers.iter().filter_map(|l| self.self_ms.get(*l)).sum()
    }
}

/// Self time (ms) of the first span named `name` under each root that has
/// one.
pub fn per_root_samples(roots: &[SpanRecord], name: &str) -> Vec<f64> {
    roots
        .iter()
        .filter_map(|r| r.find(name))
        .map(|s| self_ns(s) as f64 / 1e6)
        .collect()
}

/// Durations (ms) of every span named `name` anywhere under `roots`.
pub fn all_durations(roots: &[SpanRecord], name: &str) -> Vec<f64> {
    fn walk(span: &SpanRecord, name: &str, out: &mut Vec<f64>) {
        if span.name == name {
            out.push(span.dur_ns as f64 / 1e6);
        }
        for child in &span.children {
            walk(child, name, out);
        }
    }
    let mut out = Vec::new();
    for root in roots {
        walk(root, name, &mut out);
    }
    out
}

/// Writes `roots` as a Chrome `trace_event` document (loadable in
/// Perfetto) to `path`, creating its directory.
pub fn write_chrome(path: &Path, roots: &[SpanRecord]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace(roots, &MetricsRegistry::new()))
}

/// A span recorder that can be switched off: the untraced pass runs the
/// same code with every call a no-op.
pub struct Tracer(Option<Recorder>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A tracer recording on a clock starting at `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer(Some(Recorder::with_origin(origin)))
    }

    /// Opens a span.
    pub fn start(&mut self, name: &'static str) {
        if let Some(r) = &mut self.0 {
            r.start(name);
        }
    }

    /// Attaches a counter to the open span.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if let Some(r) = &mut self.0 {
            r.counter(name, value);
        }
    }

    /// Closes the open span.
    pub fn end(&mut self) {
        if let Some(r) = &mut self.0 {
            r.end();
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// The clock origin, when recording: spans recorded elsewhere on it
    /// can be adopted.
    pub fn origin(&self) -> Option<Instant> {
        self.0.as_ref().map(Recorder::origin)
    }

    /// Attaches a finished tree recorded on this tracer's origin under the
    /// open span.
    pub fn adopt(&mut self, record: SpanRecord) {
        if let Some(r) = &mut self.0 {
            r.adopt(record);
        }
    }

    /// The recorded roots (none when off).
    pub fn finish(self) -> Vec<SpanRecord> {
        self.0.map(Recorder::finish).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, dur: u64, children: Vec<SpanRecord>) -> SpanRecord {
        SpanRecord {
            start_ns: start,
            dur_ns: dur,
            children,
            ..SpanRecord::leaf(name)
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // Children cover [10,50) (two overlapping spans) and [90,100)
        // (a child overrunning the parent is clipped): 50 of 100 ns.
        let root = span(
            "job",
            0,
            100,
            vec![
                span("parse", 10, 20, vec![]),
                span("graph", 20, 30, vec![]),
                span("closure", 90, 30, vec![]),
            ],
        );
        assert_eq!(self_ns(&root), 50);
        assert_eq!(self_ns(&root.children[0]), 20);
    }

    #[test]
    fn self_times_add_up_to_the_root_duration() {
        let nested = span("closure", 40, 40, vec![span("round", 50, 10, vec![])]);
        let root = span(
            "job",
            1_000_000,
            3_000_000,
            vec![span("parse", 1_000_000, 1_000_000, vec![]), {
                let mut n = nested;
                n.start_ns += 2_000_000;
                n.children[0].start_ns += 2_000_000;
                n
            }],
        );
        let times = LayerTimes::of(std::slice::from_ref(&root));
        assert_eq!(times.self_ms["parse"], 1.0);
        assert_eq!(times.self_ms["round"], 0.00001);
        assert!((times.self_ms["closure"] - 0.00003).abs() < 1e-12);
        let total: f64 = times.self_ms.values().sum();
        assert!(
            (total - times.root_ms).abs() < 1e-9,
            "{total} vs {}",
            times.root_ms
        );
        assert!((times.per_root_ms("job") - (3.0 - 1.0 - 0.00004)).abs() < 1e-9);
        assert_eq!(
            per_root_samples(std::slice::from_ref(&root), "parse"),
            vec![1.0]
        );
        assert_eq!(all_durations(&[root], "round"), vec![0.00001]);
    }
}
