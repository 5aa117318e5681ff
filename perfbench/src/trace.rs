//! In-memory spans for the traced replay.
//!
//! A span records a layer boundary: the request it belongs to, its
//! name, its parent and its start and end. Spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus the time its children cover; the replay is single-threaded,
//! so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures
/// (the untraced oracle shares the traced code path).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Starts a new request id for the spans that follow.
    pub fn begin_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Adds `n` to the counter `name` (work counted where it happens).
    pub fn count(&mut self, name: &str, n: f64) {
        if self.enabled {
            *self.counts.entry(name.to_string()).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Self times, in microseconds, of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e6)
            .collect()
    }

    /// Total durations, in microseconds, of every span named `name`.
    pub fn total_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e6)
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out
    }
}
