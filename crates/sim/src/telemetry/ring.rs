//! The bounded event-level trace ring behind [`Telemetry`]'s
//! `trace_*` methods.
//!
//! Aggregated instruments (counters, histograms, span summaries) answer
//! *how much*; the ring answers *what happened when*: it retains
//! individual span begin/end and instant events against [`SimTime`] so a
//! checkpoint epoch can be reconstructed as a timeline. The ring has a
//! fixed capacity and overwrites its oldest entries, counting what it
//! drops — tracing never grows without bound and never perturbs the
//! simulation.
//!
//! The hot path is allocation-free: a trace event is one `Copy` record
//! (time, interned track, interned tag, phase, argument) written at a
//! ring cursor. Track and tag interning happen once, at registration.
//!
//! [`Telemetry`]: super::Telemetry

use std::fmt::{self, Write as _};

use crate::time::SimTime;

/// Handle to a trace track: one `(host, subsystem)` timeline row.
/// Obtained from [`Telemetry::track`](super::Telemetry::track). In the
/// Chrome trace-event export the host becomes the `pid` and the
/// subsystem the `tid`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(pub(super) usize);

/// Handle to an interned trace event name. Obtained from
/// [`Telemetry::trace_tag`](super::Telemetry::trace_tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceTag(pub(super) usize);

/// Phase of a trace event, mirroring the Chrome trace-event `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// A duration slice opens (`ph: "B"`).
    Begin,
    /// A duration slice closes (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A causal flow opens (`ph: "s"`); the argument carries the packed
    /// [`TraceCtx`](super::TraceCtx) identifying the flow.
    FlowStart,
    /// An intermediate flow step (`ph: "t"`): an arrow is drawn from the
    /// previous event of the same flow id to this one.
    FlowStep,
    /// The flow terminates here (`ph: "f"`).
    FlowEnd,
}

impl TracePhase {
    /// The single-letter code used by the CSV export
    /// (`B`/`E`/`I`/`S`/`T`/`F`).
    pub fn code(self) -> char {
        match self {
            TracePhase::Begin => 'B',
            TracePhase::End => 'E',
            TracePhase::Instant => 'I',
            TracePhase::FlowStart => 'S',
            TracePhase::FlowStep => 'T',
            TracePhase::FlowEnd => 'F',
        }
    }
}

/// One raw ring entry; all-`Copy` so recording allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(super) struct RawEvent {
    pub at: SimTime,
    pub track: usize,
    pub tag: usize,
    pub phase: TracePhase,
    pub arg: i64,
    /// Dispatch-order stamp: the ordering key of the event whose handler
    /// recorded this entry (0 outside dispatch). The sharded engine sets
    /// it per dispatch; merging per-shard rings sorts by
    /// `(at, order, sub)`, which reconstructs the single-shard record
    /// order exactly because dispatch keys are shard-layout-invariant.
    pub order: u64,
    /// Per-dispatch emission counter breaking ties within one handler.
    pub sub: u32,
}

/// A resolved trace event, as returned by
/// [`Telemetry::trace_events`](super::Telemetry::trace_events) and
/// [`TraceView`](super::TraceView). `Copy`: the names are the
/// registry's own `&'static str`s, so resolving an event allocates
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Host (process) the event belongs to.
    pub host: u32,
    /// Subsystem (thread) within the host.
    pub subsystem: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Begin / End / Instant.
    pub phase: TracePhase,
    /// Event argument (meaning is per-name: a guest-clock reading, a
    /// byte count, an epoch number, ...).
    pub arg: i64,
}

/// Default ring capacity: enough for tens of seconds of two-node
/// tick-level tracing, small enough to be harmless when unused.
pub(super) const DEFAULT_TRACE_CAP: usize = 65_536;

/// Fixed-capacity overwrite-oldest event buffer.
pub(super) struct Ring {
    /// Backing storage; allocated lazily on the first push so an unused
    /// registry costs nothing.
    buf: Vec<RawEvent>,
    /// Next write position once `buf` is full.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            cap: DEFAULT_TRACE_CAP,
            dropped: 0,
        }
    }
}

impl Ring {
    pub(super) fn push(&mut self, ev: RawEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.cap {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.cap.min(1024));
            }
            self.buf.push(ev);
        } else {
            // Full: overwrite the oldest entry and count the loss.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub(super) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(super) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds `n` events lost elsewhere (a shard ring that overflowed before
    /// a merge) to the drop count.
    pub(super) fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// The `i`-th retained event, oldest-first.
    pub(super) fn get(&self, i: usize) -> &RawEvent {
        let (newer, older) = self.buf.split_at(self.head);
        match older.get(i) {
            Some(ev) => ev,
            None => &newer[i - older.len()],
        }
    }

    /// Changes the capacity, keeping the newest events that still fit.
    pub(super) fn set_capacity(&mut self, cap: usize) {
        let events: Vec<RawEvent> = self.iter().copied().collect();
        let keep = events.len().saturating_sub(cap);
        self.dropped += keep as u64;
        self.buf = events[keep..].to_vec();
        self.head = 0;
        self.cap = cap;
    }

    /// Iterates oldest-first (record order; events are recorded at the
    /// simulation's current instant, so this is also time order except
    /// for the few events deliberately stamped in the near future, e.g.
    /// a replay window's end).
    pub(super) fn iter(&self) -> impl Iterator<Item = &RawEvent> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }
}

/// Displays a name as JSON string content (no quotes), for the names we
/// emit into the Perfetto export (our names are plain identifiers, but a
/// stray quote must not corrupt the document).
pub(super) struct JsonEscaped<'a>(pub &'a str);

impl fmt::Display for JsonEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Displays nanoseconds as the microsecond `ts` value Chrome trace JSON
/// expects, with the sub-microsecond remainder as three decimal digits.
/// Pure integer formatting: byte-identical across platforms.
pub(super) struct TsUs(pub u64);

impl fmt::Display for TsUs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> RawEvent {
        RawEvent {
            at: SimTime::from_nanos(i),
            track: 0,
            tag: 0,
            phase: TracePhase::Instant,
            arg: i as i64,
            order: 0,
            sub: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = Ring {
            cap: 4,
            ..Ring::default()
        };
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let args: Vec<i64> = r.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "newest events survive, in order");
    }

    #[test]
    fn ring_under_capacity_keeps_everything() {
        let mut r = Ring::default();
        for i in 0..100 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().count(), 100);
    }

    #[test]
    fn shrinking_capacity_keeps_newest() {
        let mut r = Ring {
            cap: 8,
            ..Ring::default()
        };
        for i in 0..8 {
            r.push(ev(i));
        }
        r.set_capacity(3);
        let args: Vec<i64> = r.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![5, 6, 7]);
        assert_eq!(r.dropped(), 5);
        r.push(ev(100));
        assert_eq!(r.len(), 3, "new capacity is enforced");
    }

    #[test]
    fn ts_formatting_is_integer_exact() {
        assert_eq!(TsUs(0).to_string(), "0.000");
        assert_eq!(TsUs(1_234).to_string(), "1.234");
        assert_eq!(TsUs(20_000_000_007).to_string(), "20000000.007");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(JsonEscaped("plain.name").to_string(), "plain.name");
        assert_eq!(JsonEscaped("a\"b\\c\n").to_string(), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn get_indexes_oldest_first_across_the_wrap() {
        let mut r = Ring {
            cap: 4,
            ..Ring::default()
        };
        for i in 0..6 {
            r.push(ev(i));
        }
        let args: Vec<i64> = (0..r.len()).map(|i| r.get(i).arg).collect();
        assert_eq!(args, vec![2, 3, 4, 5]);
    }
}
