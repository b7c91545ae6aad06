//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that was open when it started, and a request id that
//! groups the spans of one operation. Spans stay in memory while the run
//! measures and are written out, one JSON object per line, when it ends.
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `engine.seq`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (iteration or request number).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; records only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer { enabled, origin, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`] (and any left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Records a span whose interval the caller measured itself (e.g. from
    /// timestamps taken inside a sink).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.stack.last().copied();
        let span = Span { name, start_ns: at(start), end_ns: at(end), parent, request };
        self.spans.push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this tracer (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Per-name totals derived from a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns: duration minus the time covered by
    /// their direct children.
    pub self_ns: u64,
}

/// Aggregates spans by name, with self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span { name: "iteration", start_ns: 0, end_ns: 100, parent: None, request: 0 },
            Span { name: "engine", start_ns: 10, end_ns: 70, parent: Some(0), request: 0 },
            Span { name: "sink", start_ns: 20, end_ns: 30, parent: Some(1), request: 0 },
            Span { name: "check", start_ns: 70, end_ns: 90, parent: Some(0), request: 0 },
        ];
        let t = totals(&spans);
        assert_eq!(t["iteration"].self_ns, 20);
        assert_eq!(t["engine"].self_ns, 50);
        assert_eq!(t["sink"].self_ns, 10);
        assert_eq!(t["check"].total_ns, 20);
    }

    #[test]
    fn nesting_and_disabled_tracer() {
        let origin = Instant::now();
        let mut tr = Tracer::new(true, origin);
        let outer = tr.enter("outer", 3);
        tr.span("inner", 3, || ());
        tr.exit(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);

        let mut off = Tracer::new(false, origin);
        let o = off.enter("outer", 0);
        off.record("x", 0, origin, Instant::now());
        off.exit(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, origin);
        let o = b.enter("b", 1);
        b.span("c", 1, || ());
        b.exit(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
