//! Outside-in span recording.
//!
//! Spans are taken by the benchmark around its own calls into a layer's
//! public functions (or, for work a layer performs on its own threads,
//! from the durations that layer reports back). They are kept in memory
//! and written out once the run ends. A disabled tracer records nothing,
//! so the untraced passes pay only a branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.admit`.
    pub name: String,
    /// The request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin of `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &str, req: u64, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        self.record(name, req, parent, now, now)
    }

    /// Closes a span at the current instant.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span with explicit bounds (durations a layer reported).
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            req,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, req: u64, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req, parent);
        let r = f();
        self.close(id);
        r
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-span covered time: the summed duration of each span's direct
    /// children, clipped to the parent's own duration.
    fn child_ms(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ms();
            }
        }
        for (c, s) in covered.iter_mut().zip(&self.spans) {
            *c = c.min(s.ms());
        }
        covered
    }

    /// Self time (ms) of every span called `name`: duration minus the
    /// part its children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let covered = self.child_ms();
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Share of the total duration of the spans called `root` that their
    /// direct children cover; what is left is untraced time, a visible gap.
    pub fn coverage(&self, root: &str) -> f64 {
        let covered = self.child_ms();
        let (mut total, mut inside) = (0.0, 0.0);
        for (s, c) in self.spans.iter().zip(covered) {
            if s.name == root {
                total += s.ms();
                inside += c;
            }
        }
        if total > 0.0 {
            inside / total
        } else {
            0.0
        }
    }

    /// Appends every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {i}, \"name\": \"{}\", \"req\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage_subtract_children() {
        let mut t = Tracer::new(true);
        let root = t.record("request", 1, None, 0, 10_000_000);
        t.record("child", 1, root, 1_000_000, 4_000_000);
        t.record("child", 1, root, 5_000_000, 6_000_000);
        assert_eq!(t.self_ms("request"), vec![6.0]);
        assert!((t.coverage("request") - 0.4).abs() < 1e-12);
        assert_eq!(t.durations_ms("child"), vec![3.0, 1.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0, None);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
