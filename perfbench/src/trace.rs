//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library's public functions; nothing inside the library is instrumented.
//! Each span carries a name, start and end (nanoseconds since the tracer's
//! origin), the index of its parent span and a request id (`0` for spans
//! that belong to no request). Spans stay in memory until the run ends and
//! are then written out once, with each span's self time (its duration
//! minus the time covered by its direct children).
//!
//! A disabled tracer never reads the clock and never stores a span, so the
//! untraced run pays one branch per call site.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans (through [`Tracer::begin`]/[`Tracer::end`]) and
/// leaf spans timed by the caller (through [`Tracer::leaf`]).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant every timestamp counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span still open
    /// inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose bounds the caller measured with
    /// [`Tracer::now_ns`], as a child of the innermost open span. Used on
    /// the serving hot loop, where one request produces several spans.
    pub fn leaf(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Reserves room for `n` more spans, so recording on a hot loop does
    /// not reallocate mid-measurement.
    pub fn reserve(&mut self, n: usize) {
        if self.enabled {
            self.spans.reserve(n);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops every span recorded from index `len` on (a discarded
    /// measurement); spans still open keep their place.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
        self.open.retain(|&id| id < len);
    }

    /// Spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from.min(self.spans.len())..]
    }

    /// Total duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: the benchmark
    /// is single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .collect()
    }

    /// Writes every span as one JSON object per line:
    /// `{"name","start_ns","end_ns","self_ns","parent","req"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        let self_ns = self.self_times_ns();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, own, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.leaf("child", 1, 10, 30);
        t.leaf("child", 2, 40, 45);
        t.end(outer);
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        assert_eq!(t.self_times_ns(), vec![75, 20, 5]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.leaf("y", 0, 0, 1);
        t.end(id);
        assert_eq!(t.len(), 0);
    }
}
