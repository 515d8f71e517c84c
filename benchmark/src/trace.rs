//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing inside the product is instrumented: a span wraps one call
//! into a layer's public function, made from the benchmark's files.
//! Spans stay in memory until the run ends, then go to
//! `benchmark/out/trace-<workload>.json` with a self-time table (a
//! span's duration minus the part of it its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Most spans a run keeps; later ones are counted and dropped, so a
/// long window cannot grow the trace file without bound.
const MAX_SPANS: usize = 200_000;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer::function` of the call wrapped.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The operation (request, batch, cycle) all spans of one op share.
    pub op: u64,
}

/// Handle to an open span; `None` while tracing is off or full.
pub type SpanId = Option<u32>;

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover, ns.
    pub self_ns: u64,
}

/// The in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), enabled: false, spans: Vec::new(), dropped: 0 }
    }

    /// Switches recording on or off. The first enable reserves the
    /// whole span buffer, so recording never reallocates mid-window.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && self.spans.capacity() == 0 {
            self.spans.reserve_exact(MAX_SPANS);
        }
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. Costs one branch while tracing is off.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes spans and the self-time table as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"self_time\":[",
            self.dropped
        );
        for (i, (name, row)) in self_times(&self.spans).iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                row.count,
                row.total_ns,
                row.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The self-time table: for each span name, how many there were, their
/// total duration, and that total minus the time covered by their
/// direct children (overlapping children are merged, and a child is
/// clipped to its parent, so no interval is subtracted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut frontier) = (0u64, span.start_ns);
        for &(start, end) in kids.iter() {
            if end > frontier {
                covered += end - start.max(frontier);
                frontier = end;
            }
        }
        let total = span.end_ns - span.start_ns;
        let row = table.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total - covered;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union [10,50) = 40
            span("c", 90, 120, Some(0)), // sticks out of root: clipped to [90,100)
            span("leaf", 12, 18, Some(1)),
            span("root", 200, 260, None), // a second root with no children
        ];
        let table = self_times(&spans);
        assert_eq!(table["root"], SelfTime { count: 2, total_ns: 160, self_ns: 160 - 40 - 10 });
        assert_eq!(table["a"], SelfTime { count: 1, total_ns: 20, self_ns: 14 });
        assert_eq!(table["b"], SelfTime { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(table["c"], SelfTime { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(table["leaf"], SelfTime { count: 1, total_ns: 6, self_ns: 6 });
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_an_enabled_one_links_parents() {
        let mut tracer = Tracer::new();
        let none = tracer.begin("x", None, 1);
        tracer.end(none);
        assert!(none.is_none() && tracer.spans().is_empty());
        tracer.set_enabled(true);
        let root = tracer.begin("root", None, 7);
        let got = tracer.span("child", root, 7, || 5);
        tracer.end(root);
        assert_eq!(got, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("child", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
