//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the workspace's layers
//! from the benchmark's own code. They stay in memory and are written out
//! once, after the run. A disabled tracer records nothing, so the
//! untraced passes of a traced run time the same code as an untraced run.

use std::collections::BTreeMap;
use std::time::Instant;

use onoc_exp::Value;

/// One recorded span: a named interval, the span it ran inside, and the
/// pass it belongs to (0 = set-up, then one id per pass or replay).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: false,
            origin,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new run id: spans recorded from here on share it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; `None` when disabled.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span returned by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (for boundaries reported by a callback).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    }

    /// The current run id.
    pub fn run(&self) -> u32 {
        self.run
    }

    /// Self time per span name over the spans `keep` selects: each span's
    /// duration minus the time its direct children cover.
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if !keep(span) {
                continue;
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += ns_to_ms(span.duration_ns());
            entry.self_ms += ns_to_ms(span.duration_ns().saturating_sub(children));
        }
        out
    }

    /// The spans as a JSON array value.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut row = Value::table();
                    row.insert("name", s.name);
                    row.insert("start_ns", s.start_ns);
                    row.insert("end_ns", s.end_ns);
                    row.insert("parent", s.parent.map_or(Value::Int(-1), Value::from));
                    row.insert("run", u64::from(s.run));
                    row
                })
                .collect(),
        )
    }
}

#[allow(clippy::cast_precision_loss)]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
