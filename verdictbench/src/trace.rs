//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into the workspace; nothing inside the program is instrumented. Each
//! span carries a name, start and end (nanoseconds since the recorder's
//! epoch), its parent span, and a trace id — the time-bin index on the
//! stream workloads. The spans stay in memory until the run ends and are
//! then written out as JSON lines with each span's self time.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    trace: usize,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Span store. A disabled recorder keeps nothing, so untraced passes pay
/// only for the `Instant` reads the end-to-end metrics need anyway.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that children can name as their parent; close it
    /// with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, trace: usize, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished span from timestamps the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: usize,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Records a child span of known duration that ends where its parent
    /// ends — used for the refit inside `observe_bin`, whose duration the
    /// program reports but whose start the benchmark cannot see.
    pub fn record_tail(&mut self, name: &'static str, parent: SpanId, secs: f64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent];
        let dur = ((secs * 1e9) as u64).min(p.end_ns - p.start_ns);
        let span = Span {
            name,
            trace: p.trace,
            parent: Some(parent),
            start_ns: p.end_ns - dur,
            end_ns: p.end_ns,
        };
        self.spans.push(span);
    }

    /// Self time of every span, in seconds: its duration minus the part
    /// of it that its children cover (children of one parent never
    /// overlap, because every call is made from one thread).
    fn self_secs(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Summed self time, in seconds, of every span with this name.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Summed duration, in seconds, of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines: `{"id", "name", "trace", "parent",
    /// "start_ns", "end_ns", "self_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let self_secs = self.self_secs();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, (s, t)) in self.spans.iter().zip(self_secs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.trace,
                s.start_ns,
                s.end_ns,
                (t * 1e9).round() as u64
            );
        }
        out
    }
}
