//! Host-time spans, recorded from the benchmark's own call sites.
//!
//! A span is `(name, start, end, parent id, op id)` in host nanoseconds
//! since the tracer's origin. Nesting is rep → phase → call into a layer →
//! re-enacted child. The tracer always times (the untraced reps need the
//! phase durations too); it only *records* when tracing is on, so the
//! end-to-end metrics are measured with no span kept.
//!
//! A re-enacted child is a layer call the benchmark repeats on the same
//! bytes right after the `Testbed` operation that made it (the operation
//! itself cannot be instrumented from outside). It is attached to the
//! operation's span by id, so "self time = span − children" holds without
//! the intervals having to nest in wall-clock.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an entered span.
#[derive(Clone, Copy)]
pub struct Tok {
    start: Instant,
    id: Option<usize>,
}

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Checkpoint-class operation this span belongs to (0 = none).
    pub op: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn push(&mut self, name: &str, op: u32, parent: Option<usize>, start: Instant) -> usize {
        let ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns,
            end_ns: ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Enters a span under the innermost open one.
    pub fn enter(&mut self, name: &str, op: u32) -> Tok {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.push(name, op, self.stack.last().copied(), start);
            self.stack.push(id);
            id
        });
        Tok { start, id }
    }

    /// Closes a span; returns its duration in host ms.
    pub fn exit(&mut self, tok: Tok) -> f64 {
        let end = Instant::now();
        if let Some(id) = tok.id {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost-first"
            );
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - tok.start).as_secs_f64() * 1e3
    }

    /// Times `f` as a re-enacted child of the (already closed) span
    /// `parent`; returns its result and duration in host ms.
    pub fn reenact<R>(&mut self, parent: Tok, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if let Some(p) = parent.id {
            let op = self.spans[p].op;
            let id = self.push(name, op, Some(p), start);
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (r, (end - start).as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: one object per span, ids are array positions.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!(
            "{{\"header\": {header},\n \"unit\": \"host ns since tracer origin\",\n \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str(" ]}\n");
        out
    }
}
