//! Unified telemetry: a metrics registry plus lightweight span tracing.
//!
//! One [`Telemetry`] handle is owned by the engine and threaded to every
//! layer (coordinator, VMM hosts, testbed, chunk store, benches) through
//! [`Ctx::telemetry`](crate::Ctx::telemetry) or by cloning the handle.
//! Handles are cheap `Rc` clones over one shared registry, so all
//! instruments recorded anywhere in a simulation land in a single,
//! exportable table.
//!
//! # Instruments
//!
//! - **Counters** — monotonically increasing `u64` totals (retries,
//!   dedup hits, committed epochs).
//! - **Gauges** — last-written `f64` values (free machines, refcounts).
//! - **Histograms** — fixed-bucket distributions with `p50/p90/p99/max`
//!   summaries computed by [`stats::percentile`] over bucket
//!   representatives. The default bucket ladder is a 1–2–5 geometric
//!   series suited to nanosecond durations (1 µs … 1000 s).
//! - **Spans** — `span_enter`/`span_exit` pairs keyed by component +
//!   label, timed in virtual [`SimTime`]. Each span family keeps a
//!   duration histogram plus a bounded log of raw `(start, end)` records.
//!
//! # Hot-path cost
//!
//! Registration (by name) interns strings once and returns `Copy` ids;
//! recording through an id is an index into a preallocated slot table —
//! no hashing and no allocation. The only allocating record path is the
//! bounded span log, whose backing `Vec` is reserved up front.
//!
//! # Event-level tracing
//!
//! Aggregates answer *how much*; the bounded [trace ring](ring) answers
//! *what happened when*. Components register a [`TrackId`] (one
//! `(host, subsystem)` timeline row) and [`TraceTag`]s once, then emit
//! begin/end/instant events against [`SimTime`] through
//! [`Telemetry::trace_begin`] and friends — a `Copy` record into a
//! fixed-capacity overwrite-oldest ring, nothing allocated. The ring
//! exports as flat CSV ([`Telemetry::trace_to_csv`]) and as Chrome
//! trace-event / Perfetto JSON ([`Telemetry::trace_to_perfetto`]), and
//! the [`audit`] module walks the guest tracks to mechanically check the
//! paper's time-transparency invariants.
//!
//! # Determinism
//!
//! Exports ([`Telemetry::to_csv`], [`Telemetry::to_json`],
//! [`Telemetry::trace_to_perfetto`]) emit output that depends only on
//! what was recorded, never on registration order: metric rows are
//! sorted by `(kind, name)`, and the Perfetto `pid`/`tid` assignment is
//! computed at export time from sorted track names.

pub mod audit;
pub mod critpath;
pub mod names;
pub mod ring;

pub use ring::{TraceEvent, TracePhase, TraceTag, TrackId};

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::stats;
use crate::time::{SimDuration, SimTime};

use ring::{json_escape, format_ts_us, RawEvent, Ring};

/// Handle to a counter slot. Obtained from [`Telemetry::counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge slot. Obtained from [`Telemetry::gauge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram slot. Obtained from [`Telemetry::histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle to a span family (component + label). Obtained from
/// [`Telemetry::span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// A causal trace context: identifies one cross-host flow (one epoch
/// round) so events recorded on different tracks can be linked into a
/// single Perfetto flow with arrows between them.
///
/// The context is all-`Copy` and packs into a single `i64` trace-event
/// argument ([`TraceCtx::as_arg`]), so propagating it through control
/// messages and recording flow events stays allocation-free. The
/// coordinator mints one per epoch round
/// (`trace_id` = coordination group, `span_id` = epoch number) and
/// threads it through notify, ack, capture, drain, store and resume
/// paths; [`TraceCtx::NONE`] marks "no active flow" and makes every
/// flow-recording method a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Flow family (the coordination group for epoch rounds).
    pub trace_id: u32,
    /// Flow instance within the family (the epoch number).
    pub span_id: u32,
}

impl TraceCtx {
    /// The absent context: flow methods given `NONE` record nothing.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// Mints the context for one epoch round of a coordination group.
    pub fn for_round(group: u32, epoch: u64) -> TraceCtx {
        TraceCtx {
            trace_id: group,
            span_id: epoch as u32,
        }
    }

    /// True if this is [`TraceCtx::NONE`].
    pub fn is_none(&self) -> bool {
        *self == TraceCtx::NONE
    }

    /// Packs the context into the `i64` argument slot of a trace event
    /// (`trace_id` in the high 32 bits, `span_id` in the low 32).
    pub fn as_arg(&self) -> i64 {
        ((self.trace_id as i64) << 32) | (self.span_id as i64)
    }

    /// Inverse of [`TraceCtx::as_arg`].
    pub fn from_arg(arg: i64) -> TraceCtx {
        TraceCtx {
            trace_id: (arg >> 32) as u32,
            span_id: arg as u32,
        }
    }
}

/// An entered, not-yet-exited span occurrence; the token returned by
/// [`Telemetry::span_enter`] and consumed by [`Telemetry::span_exit`].
#[derive(Clone, Copy, Debug)]
pub struct ActiveSpan {
    id: SpanId,
    start: SimTime,
}

impl ActiveSpan {
    /// Virtual time at which the span was entered.
    pub fn start(&self) -> SimTime {
        self.start
    }
}

/// One completed span occurrence from the bounded span log.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// `component/label` of the span family.
    pub name: String,
    /// Virtual enter time.
    pub start: SimTime,
    /// Virtual exit time.
    pub end: SimTime,
}

/// Distribution summary of a histogram or span family.
///
/// Percentiles are nearest-rank over bucket representatives, so they are
/// upper bounds accurate to one bucket (the 1–2–5 default ladder bounds
/// the relative error at 2.5×; samples that fall exactly on a bucket
/// boundary are exact). `min`/`max` are exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: f64,
    /// Smallest sample (exact).
    pub min: f64,
    /// Largest sample (exact).
    pub max: f64,
    /// Median (bucket-resolution).
    pub p50: f64,
    /// 90th percentile (bucket-resolution).
    pub p90: f64,
    /// 99th percentile (bucket-resolution).
    pub p99: f64,
    /// Samples that landed above the top finite bucket bound. Their
    /// exact values are only resolved to `max`, so a nonzero overflow
    /// flags percentiles that lean on the implicit overflow bucket.
    pub overflow: u64,
}

impl HistogramSummary {
    /// The all-zero summary of an empty histogram.
    pub const EMPTY: HistogramSummary = HistogramSummary {
        count: 0,
        sum: 0.0,
        min: 0.0,
        max: 0.0,
        p50: 0.0,
        p90: 0.0,
        p99: 0.0,
        overflow: 0,
    };
}

/// Fixed-bucket histogram: counts per bucket plus exact min/max/sum.
struct Hist {
    /// Upper bounds of the finite buckets, ascending; one implicit
    /// overflow bucket above the last bound.
    bounds: Vec<f64>,
    /// `counts.len() == bounds.len() + 1` (last slot = overflow).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Hist {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record(&mut self, v: f64) {
        // Bucket = first bound >= v; bounds are few (≲32), a linear scan
        // beats binary search on typical duration data.
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram's samples into this one. Exact for
    /// counts/min/max; the bucket sums add in caller order, so the
    /// floating-point `sum` is bit-identical to single-registry
    /// recording only when every sample is integer-valued below 2^53
    /// (true of every duration/byte histogram in the workspace).
    fn merge_from(&mut self, other: &Hist) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        if other.count > 0 {
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Expands bucket counts into per-sample representatives and summarizes
    /// via [`stats::percentile`] (nearest-rank, identical to summarizing the
    /// raw samples when they sit on bucket bounds).
    fn summary(&self) -> HistogramSummary {
        if self.count == 0 {
            return HistogramSummary::EMPTY;
        }
        // Representative of bucket i = its upper bound clamped into the
        // observed [min, max] range; the overflow bucket reports max.
        // Clamping keeps single-bucket data exact and never reports a
        // percentile outside the observed range.
        let rep = |i: usize| -> f64 {
            let b = self.bounds.get(i).copied().unwrap_or(self.max);
            b.clamp(self.min, self.max)
        };
        let (p50, p90, p99) = if self.count <= 65_536 {
            let mut samples = Vec::with_capacity(self.count as usize);
            for (i, &c) in self.counts.iter().enumerate() {
                for _ in 0..c {
                    samples.push(rep(i));
                }
            }
            (
                stats::percentile(&samples, 0.50),
                stats::percentile(&samples, 0.90),
                stats::percentile(&samples, 0.99),
            )
        } else {
            // Same nearest-rank definition, walked over cumulative counts
            // to avoid materializing huge sample vectors.
            let q = |p: f64| -> f64 {
                let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
                let mut seen = 0;
                for (i, &c) in self.counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        return rep(i);
                    }
                }
                self.max
            };
            (q(0.50), q(0.90), q(0.99))
        };
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50,
            p90,
            p99,
            overflow: *self.counts.last().unwrap(),
        }
    }
}

/// Default histogram bounds: a 1–2–5 ladder from 1 µs to 1000 s,
/// expressed in nanoseconds (histograms most often record durations).
fn duration_bounds() -> Vec<f64> {
    let mut v = Vec::with_capacity(28);
    let mut decade = 1e3; // 1 µs
    while decade <= 1e11 {
        v.push(decade);
        v.push(2.0 * decade);
        v.push(5.0 * decade);
        decade *= 10.0;
    }
    v.push(1e12); // 1000 s
    v
}

struct SpanSlot {
    name: String, // "component/label"
    hist: Hist,
    entered: u64,
}

const SPAN_LOG_CAP: usize = 4096;

#[derive(Default)]
struct Inner {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    counter_index: HashMap<String, usize>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    gauge_index: HashMap<String, usize>,
    hist_names: Vec<String>,
    hists: Vec<Hist>,
    hist_index: HashMap<String, usize>,
    spans: Vec<SpanSlot>,
    span_index: HashMap<String, usize>,
    span_log: Vec<(SpanId, SimTime, SimTime)>,
    span_log_dropped: u64,
    tracks: Vec<(u32, String)>,
    track_index: HashMap<(u32, String), usize>,
    tag_names: Vec<String>,
    tag_index: HashMap<String, usize>,
    ring: Ring,
    /// Dispatch-order stamp applied to trace events (see
    /// [`RawEvent::order`]); the sharded engine sets it per dispatch.
    cur_order: u64,
    /// Emissions under the current `cur_order`, for intra-dispatch ties.
    cur_sub: u32,
}

/// Cheap-clone handle to the shared telemetry registry.
///
/// See the [module docs](self) for the instrument taxonomy and the
/// zero-allocation hot-path contract.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<Inner>>,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    // ---- registration (cold path, idempotent by name) ----

    /// Registers (or looks up) a counter by name.
    pub fn counter(&self, name: &str) -> CounterId {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.counter_index.get(name) {
            return CounterId(i);
        }
        let i = r.counters.len();
        r.counters.push(0);
        r.counter_names.push(name.to_string());
        r.counter_index.insert(name.to_string(), i);
        CounterId(i)
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&self, name: &str) -> GaugeId {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.gauge_index.get(name) {
            return GaugeId(i);
        }
        let i = r.gauges.len();
        r.gauges.push(0.0);
        r.gauge_names.push(name.to_string());
        r.gauge_index.insert(name.to_string(), i);
        GaugeId(i)
    }

    /// Registers (or looks up) a histogram with the default duration
    /// bucket ladder (1 µs … 1000 s, in ns).
    pub fn histogram(&self, name: &str) -> HistogramId {
        self.histogram_with_bounds(name, &[])
    }

    /// Registers (or looks up) a histogram with explicit ascending bucket
    /// upper bounds (empty = default duration ladder). Bounds are fixed at
    /// first registration; later calls with the same name reuse them.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) -> HistogramId {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.hist_index.get(name) {
            return HistogramId(i);
        }
        let bounds = if bounds.is_empty() {
            duration_bounds()
        } else {
            debug_assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "histogram bounds must be strictly ascending"
            );
            bounds.to_vec()
        };
        let i = r.hists.len();
        r.hists.push(Hist::new(bounds));
        r.hist_names.push(name.to_string());
        r.hist_index.insert(name.to_string(), i);
        HistogramId(i)
    }

    /// Registers (or looks up) a span family keyed by component + label.
    pub fn span(&self, component: &str, label: &str) -> SpanId {
        self.span_by_name(format!("{component}/{label}"))
    }

    /// Registers (or looks up) a span family by its full
    /// `component/label` name (used when merging shard registries, where
    /// only the joined name survives).
    fn span_by_name(&self, name: String) -> SpanId {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.span_index.get(&name) {
            return SpanId(i);
        }
        if r.span_log.capacity() == 0 {
            r.span_log.reserve_exact(SPAN_LOG_CAP);
        }
        let i = r.spans.len();
        r.spans.push(SpanSlot {
            name: name.clone(),
            hist: Hist::new(duration_bounds()),
            entered: 0,
        });
        r.span_index.insert(name, i);
        SpanId(i)
    }

    /// Registers (or looks up) a trace track: one `(host, subsystem)`
    /// timeline row in the Perfetto export (`pid` = host, `tid` =
    /// subsystem).
    pub fn track(&self, host: u32, subsystem: &str) -> TrackId {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.track_index.get(&(host, subsystem.to_string())) {
            return TrackId(i);
        }
        let i = r.tracks.len();
        r.tracks.push((host, subsystem.to_string()));
        r.track_index.insert((host, subsystem.to_string()), i);
        TrackId(i)
    }

    /// Registers (or looks up) an interned trace event name.
    pub fn trace_tag(&self, name: &str) -> TraceTag {
        let mut r = self.inner.borrow_mut();
        if let Some(&i) = r.tag_index.get(name) {
            return TraceTag(i);
        }
        let i = r.tag_names.len();
        r.tag_names.push(name.to_string());
        r.tag_index.insert(name.to_string(), i);
        TraceTag(i)
    }

    // ---- recording (hot path: index + add, no allocation) ----

    /// Adds `n` to a counter.
    pub fn add(&self, id: CounterId, n: u64) {
        self.inner.borrow_mut().counters[id.0] += n;
    }

    /// Increments a counter by one.
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge to `v`.
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        self.inner.borrow_mut().gauges[id.0] = v;
    }

    /// Records one sample into a histogram.
    pub fn record(&self, id: HistogramId, v: f64) {
        self.inner.borrow_mut().hists[id.0].record(v);
    }

    /// Records a duration (in ns) into a histogram.
    pub fn record_duration(&self, id: HistogramId, d: SimDuration) {
        self.record(id, d.as_nanos() as f64);
    }

    /// Opens a span occurrence at virtual time `now`. Store the returned
    /// token and close it with [`Telemetry::span_exit`]; drop it with
    /// [`Telemetry::span_discard`] if the operation aborts.
    pub fn span_enter(&self, id: SpanId, now: SimTime) -> ActiveSpan {
        self.inner.borrow_mut().spans[id.0].entered += 1;
        ActiveSpan { id, start: now }
    }

    /// Closes a span occurrence at virtual time `now`, recording its
    /// duration in the family histogram and the bounded span log.
    pub fn span_exit(&self, span: ActiveSpan, now: SimTime) {
        let mut r = self.inner.borrow_mut();
        let d = now.saturating_duration_since(span.start);
        r.spans[span.id.0].hist.record(d.as_nanos() as f64);
        if r.span_log.len() < SPAN_LOG_CAP {
            r.span_log.push((span.id, span.start, now));
        } else {
            r.span_log_dropped += 1;
        }
    }

    /// Abandons a span occurrence without recording a duration (e.g. an
    /// aborted checkpoint); only the `entered` count keeps the trace.
    pub fn span_discard(&self, span: ActiveSpan) {
        let _ = span;
    }

    fn trace_push(&self, track: TrackId, tag: TraceTag, phase: TracePhase, at: SimTime, arg: i64) {
        let mut r = self.inner.borrow_mut();
        let (order, sub) = (r.cur_order, r.cur_sub);
        r.cur_sub += 1;
        r.ring.push(RawEvent {
            at,
            track: track.0,
            tag: tag.0,
            phase,
            arg,
            order,
            sub,
        });
    }

    /// Sets the dispatch-order stamp applied to subsequent trace events
    /// and resets the intra-dispatch tie counter. A linked engine calls
    /// this with the fired event's ordering key before running its
    /// handler, which is what lets [`Telemetry::merge_shards`] restore
    /// the global record order from per-shard rings. Out of line: the one
    /// call site is in the dispatch loop, which a plain engine runs too.
    #[cold]
    #[inline(never)]
    pub(crate) fn set_trace_order(&self, order: u64) {
        let mut r = self.inner.borrow_mut();
        r.cur_order = order;
        r.cur_sub = 0;
    }

    /// Opens a duration slice on a track (`ph: "B"`). The meaning of
    /// `arg` is per-tag (see [`names`]); pass 0 when there is nothing
    /// to attach.
    pub fn trace_begin(&self, track: TrackId, tag: TraceTag, at: SimTime, arg: i64) {
        self.trace_push(track, tag, TracePhase::Begin, at, arg);
    }

    /// Closes the innermost open slice with the same tag on a track
    /// (`ph: "E"`).
    pub fn trace_end(&self, track: TrackId, tag: TraceTag, at: SimTime, arg: i64) {
        self.trace_push(track, tag, TracePhase::End, at, arg);
    }

    /// Records a point event on a track (`ph: "i"`).
    pub fn trace_instant(&self, track: TrackId, tag: TraceTag, at: SimTime, arg: i64) {
        self.trace_push(track, tag, TracePhase::Instant, at, arg);
    }

    /// Opens a causal flow (`ph: "s"`), carrying the packed context as
    /// the event argument. No-op when `ctx` is [`TraceCtx::NONE`].
    pub fn flow_start(&self, track: TrackId, tag: TraceTag, at: SimTime, ctx: TraceCtx) {
        if ctx.is_none() {
            return;
        }
        self.trace_push(track, tag, TracePhase::FlowStart, at, ctx.as_arg());
    }

    /// Records an intermediate flow step (`ph: "t"`): Perfetto draws an
    /// arrow from the previous event of the same flow to this one.
    /// No-op when `ctx` is [`TraceCtx::NONE`].
    pub fn flow_step(&self, track: TrackId, tag: TraceTag, at: SimTime, ctx: TraceCtx) {
        if ctx.is_none() {
            return;
        }
        self.trace_push(track, tag, TracePhase::FlowStep, at, ctx.as_arg());
    }

    /// Terminates a causal flow (`ph: "f"`). No-op when `ctx` is
    /// [`TraceCtx::NONE`].
    pub fn flow_end(&self, track: TrackId, tag: TraceTag, at: SimTime, ctx: TraceCtx) {
        if ctx.is_none() {
            return;
        }
        self.trace_push(track, tag, TracePhase::FlowEnd, at, ctx.as_arg());
    }

    /// Changes the trace ring capacity (default 65 536 events), keeping
    /// the newest events that still fit. Capacity 0 disables tracing.
    pub fn set_trace_capacity(&self, cap: usize) {
        self.inner.borrow_mut().ring.set_capacity(cap);
    }

    /// Merges per-shard registries into one, restoring the order a
    /// single-shard run would have recorded.
    ///
    /// Counters add; histograms and span families merge bucket-wise
    /// (bounds must match); gauges take the value from the last shard
    /// that registered the name (shard-invariant only if a gauge name is
    /// written by a single component — the sharded labs keep to that).
    /// Trace events sort by `(at, order, sub)` — the dispatch-order
    /// stamps written under `Telemetry::set_trace_order` — and the span
    /// log by `(end, start, name)`, both total orders that depend only on
    /// simulated behavior, so a merge of N shard registries is
    /// byte-identical to the merge of 1 as long as no shard overflowed
    /// its ring. The merged ring is sized to hold every retained event.
    pub fn merge_shards(parts: &[Telemetry]) -> Telemetry {
        let merged = Telemetry::new();
        // Aggregates, via the public registration API (idempotent).
        for part in parts {
            let p = part.inner.borrow();
            for (i, name) in p.counter_names.iter().enumerate() {
                let id = merged.counter(name);
                merged.add(id, p.counters[i]);
            }
            for (i, name) in p.gauge_names.iter().enumerate() {
                let id = merged.gauge(name);
                merged.set_gauge(id, p.gauges[i]);
            }
            for (i, name) in p.hist_names.iter().enumerate() {
                let id = merged.histogram_with_bounds(name, &p.hists[i].bounds);
                merged.inner.borrow_mut().hists[id.0].merge_from(&p.hists[i]);
            }
            for slot in &p.spans {
                let id = merged.span_by_name(slot.name.clone());
                let m = &mut merged.inner.borrow_mut().spans[id.0];
                m.entered += slot.entered;
                m.hist.merge_from(&slot.hist);
            }
        }
        // Span log: gather, order by completion, re-drop at the cap.
        let mut span_entries: Vec<(SimTime, SimTime, SpanId)> = Vec::new();
        let mut log_dropped = 0;
        for part in parts {
            let p = part.inner.borrow();
            log_dropped += p.span_log_dropped;
            for &(id, start, end) in &p.span_log {
                let mid = merged.span_by_name(p.spans[id.0].name.clone());
                span_entries.push((end, start, mid));
            }
        }
        {
            let mut m = merged.inner.borrow_mut();
            span_entries.sort_by(|a, b| {
                (a.0, a.1, m.spans[a.2 .0].name.as_str())
                    .cmp(&(b.0, b.1, m.spans[b.2 .0].name.as_str()))
            });
            if m.span_log.capacity() == 0 && !span_entries.is_empty() {
                m.span_log.reserve_exact(SPAN_LOG_CAP);
            }
            for (end, start, id) in span_entries {
                if m.span_log.len() < SPAN_LOG_CAP {
                    m.span_log.push((id, start, end));
                } else {
                    log_dropped += 1;
                }
            }
            m.span_log_dropped = log_dropped;
        }
        // Trace ring: remap interned ids, then restore dispatch order.
        let mut events: Vec<RawEvent> = Vec::new();
        for part in parts {
            let p = part.inner.borrow();
            for ev in p.ring.iter() {
                let (host, ref sub) = p.tracks[ev.track];
                let track = merged.track(host, sub);
                let tag = merged.trace_tag(&p.tag_names[ev.tag]);
                events.push(RawEvent {
                    track: track.0,
                    tag: tag.0,
                    ..*ev
                });
            }
        }
        // Stable sort: collection order (shard-major) breaks exact ties,
        // which only arise for events recorded outside any dispatch.
        events.sort_by_key(|e| (e.at, e.order, e.sub));
        {
            let mut m = merged.inner.borrow_mut();
            m.ring.set_capacity(ring::DEFAULT_TRACE_CAP.max(events.len()));
            for ev in events {
                m.ring.push(ev);
            }
        }
        merged
    }

    // ---- reads (cold path) ----

    /// Number of events currently retained in the trace ring.
    pub fn trace_len(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// Trace events dropped because the ring was full (oldest-first
    /// overwrite) or tracing was disabled.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.borrow().ring.dropped()
    }

    /// Resolves the retained ring into owned [`TraceEvent`]s,
    /// oldest-first in record order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let r = self.inner.borrow();
        r.ring
            .iter()
            .map(|ev| {
                let (host, ref subsystem) = r.tracks[ev.track];
                TraceEvent {
                    at: ev.at,
                    host,
                    subsystem: subsystem.clone(),
                    name: r.tag_names[ev.tag].clone(),
                    phase: ev.phase,
                    arg: ev.arg,
                }
            })
            .collect()
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let r = self.inner.borrow();
        r.counter_index.get(name).map(|&i| r.counters[i])
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let r = self.inner.borrow();
        r.gauge_index.get(name).map(|&i| r.gauges[i])
    }

    /// Summary of a histogram, if registered.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let r = self.inner.borrow();
        r.hist_index.get(name).map(|&i| r.hists[i].summary())
    }

    /// Summary of a span family's durations, if registered.
    pub fn span_summary(&self, component: &str, label: &str) -> Option<HistogramSummary> {
        let r = self.inner.borrow();
        r.span_index
            .get(&format!("{component}/{label}"))
            .map(|&i| r.spans[i].hist.summary())
    }

    /// Completed span occurrences from the bounded log, in completion
    /// order (at most the first 4096; later completions are dropped and
    /// counted, but family histograms keep every sample).
    pub fn span_records(&self) -> Vec<SpanRecord> {
        let r = self.inner.borrow();
        r.span_log
            .iter()
            .map(|&(id, start, end)| SpanRecord {
                name: r.spans[id.0].name.clone(),
                start,
                end,
            })
            .collect()
    }

    /// Span completions dropped because the bounded log filled up.
    pub fn span_records_dropped(&self) -> u64 {
        self.inner.borrow().span_log_dropped
    }

    fn rows(&self) -> Vec<(&'static str, String, Row)> {
        let r = self.inner.borrow();
        let mut rows: Vec<(&'static str, String, Row)> = Vec::new();
        for (i, name) in r.counter_names.iter().enumerate() {
            rows.push(("counter", name.clone(), Row::Counter(r.counters[i])));
        }
        for (i, name) in r.gauge_names.iter().enumerate() {
            rows.push(("gauge", name.clone(), Row::Gauge(r.gauges[i])));
        }
        for (i, name) in r.hist_names.iter().enumerate() {
            rows.push(("histogram", name.clone(), Row::Hist(r.hists[i].summary())));
        }
        for s in &r.spans {
            rows.push(("span", s.name.clone(), Row::Hist(s.hist.summary())));
        }
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        rows
    }

    /// Exports every instrument as CSV with header
    /// `kind,name,value,count,sum,min,max,p50,p90,p99,overflow`, rows
    /// sorted by `(kind, name)` for run-to-run determinism.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value,count,sum,min,max,p50,p90,p99,overflow\n");
        for (kind, name, row) in self.rows() {
            match row {
                Row::Counter(v) => {
                    let _ = writeln!(out, "{kind},{name},{v},,,,,,,,");
                }
                Row::Gauge(v) => {
                    let _ = writeln!(out, "{kind},{name},{v},,,,,,,,");
                }
                Row::Hist(s) => {
                    let _ = writeln!(
                        out,
                        "{kind},{name},,{},{},{},{},{},{},{},{}",
                        s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99, s.overflow
                    );
                }
            }
        }
        out
    }

    /// Exports every instrument as a JSON object keyed by kind then name,
    /// sorted for run-to-run determinism.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (kind, name, row) in self.rows() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{:?}:", format!("{kind}:{name}"));
            match row {
                Row::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                Row::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                Row::Hist(s) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"overflow\":{}}}",
                        s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99, s.overflow
                    );
                }
            }
        }
        out.push('}');
        out
    }

    /// Exports the trace ring as flat CSV with header
    /// `ts_ns,host,subsystem,name,phase,arg`, oldest-first in record
    /// order.
    pub fn trace_to_csv(&self) -> String {
        let mut out = String::from("ts_ns,host,subsystem,name,phase,arg\n");
        for ev in self.trace_events() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                ev.at.as_nanos(),
                ev.host,
                ev.subsystem,
                ev.name,
                ev.phase.code(),
                ev.arg
            );
        }
        out
    }

    /// Exports the trace ring as Chrome trace-event JSON loadable by
    /// Perfetto (`ui.perfetto.dev`) and `chrome://tracing`: `pid` =
    /// host, `tid` = subsystem track, `ph` = `B`/`E`/`i`, `ts` in µs.
    ///
    /// The `pid`/`tid` assignment is computed here, at export time, from
    /// the sorted set of registered tracks — components registering
    /// tracks lazily mid-run cannot perturb the output bytes, so
    /// equal-seed runs export byte-identical documents regardless of
    /// event interleaving.
    pub fn trace_to_perfetto(&self) -> String {
        let r = self.inner.borrow();
        let mut by_host: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (host, sub) in &r.tracks {
            by_host.entry(*host).or_default().push(sub);
        }
        let mut tid_of: HashMap<(u32, &str), usize> = HashMap::new();
        for (host, subs) in by_host.iter_mut() {
            subs.sort_unstable();
            for (i, sub) in subs.iter().enumerate() {
                tid_of.insert((*host, *sub), i + 1);
            }
        }
        let mut entries: Vec<String> = Vec::with_capacity(r.ring.len() + r.tracks.len() + 8);
        for (host, subs) in &by_host {
            entries.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{host},\"tid\":0,\
                 \"args\":{{\"name\":\"host-{host}\"}}}}"
            ));
            for (i, sub) in subs.iter().enumerate() {
                entries.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{host},\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    i + 1,
                    json_escape(sub)
                ));
            }
        }
        for ev in r.ring.iter() {
            let (host, ref sub) = r.tracks[ev.track];
            let tid = tid_of[&(host, sub.as_str())];
            let name = json_escape(&r.tag_names[ev.tag]);
            let ts = format_ts_us(ev.at.as_nanos());
            let entry = match ev.phase {
                TracePhase::Begin => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{host},\
                     \"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                    ev.arg
                ),
                TracePhase::End => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{ts},\"pid\":{host},\
                     \"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                    ev.arg
                ),
                TracePhase::Instant => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{host},\
                     \"tid\":{tid},\"s\":\"t\",\"args\":{{\"arg\":{}}}}}",
                    ev.arg
                ),
                TracePhase::FlowStart => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\
                     \"ts\":{ts},\"pid\":{host},\"tid\":{tid}}}",
                    ev.arg
                ),
                TracePhase::FlowStep => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"t\",\"id\":{},\
                     \"ts\":{ts},\"pid\":{host},\"tid\":{tid}}}",
                    ev.arg
                ),
                TracePhase::FlowEnd => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{},\"ts\":{ts},\"pid\":{host},\"tid\":{tid}}}",
                    ev.arg
                ),
            };
            entries.push(entry);
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            entries.join(",")
        )
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.inner.borrow();
        f.debug_struct("Telemetry")
            .field("counters", &r.counters.len())
            .field("gauges", &r.gauges.len())
            .field("histograms", &r.hists.len())
            .field("spans", &r.spans.len())
            .field("trace_events", &r.ring.len())
            .finish_non_exhaustive()
    }
}

enum Row {
    Counter(u64),
    Gauge(f64),
    Hist(HistogramSummary),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_idempotently() {
        let t = Telemetry::new();
        let c1 = t.counter("x.count");
        let c2 = t.counter("x.count");
        assert_eq!(c1, c2);
        t.inc(c1);
        t.add(c2, 4);
        assert_eq!(t.counter_value("x.count"), Some(5));
        assert_eq!(t.counter_value("missing"), None);
        let g = t.gauge("x.level");
        t.set_gauge(g, 2.5);
        assert_eq!(t.gauge_value("x.level"), Some(2.5));
    }

    #[test]
    fn histogram_summary_matches_exact_percentile_on_bucket_bounds() {
        // Samples placed exactly on bucket bounds summarize identically to
        // running stats::percentile on the raw sample vector.
        let t = Telemetry::new();
        let h = t.histogram("lat");
        let raw: Vec<f64> = (0..100)
            .map(|i| match i % 4 {
                0 => 1_000.0,     // 1 µs bound
                1 => 20_000.0,    // 20 µs bound
                2 => 500_000.0,   // 500 µs bound
                _ => 5_000_000.0, // 5 ms bound
            })
            .collect();
        for &v in &raw {
            t.record(h, v);
        }
        let s = t.histogram_summary("lat").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, stats::percentile(&raw, 0.50));
        assert_eq!(s.p90, stats::percentile(&raw, 0.90));
        assert_eq!(s.p99, stats::percentile(&raw, 0.99));
        assert_eq!(s.min, stats::percentile(&raw, 0.0));
        assert_eq!(s.max, stats::percentile(&raw, 1.0));
        assert_eq!(s.sum, raw.iter().sum::<f64>());
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let t = Telemetry::new();
        let h = t.histogram("one");
        t.record(h, 1_234.0);
        let s = t.histogram_summary("one").unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 1_234.0, 1_234.0));
        // The lone sample's bucket representative clamps to [min, max].
        assert_eq!(s.p50, 1_234.0);
        assert_eq!(s.p99, 1_234.0);
    }

    #[test]
    fn histogram_percentiles_stay_within_observed_range() {
        let t = Telemetry::new();
        let h = t.histogram("range");
        t.record(h, 3_000.0); // inside the (2 µs, 5 µs] bucket
        t.record(h, 3_500.0);
        t.record(h, 1e13); // beyond the last bound → overflow bucket
        let s = t.histogram_summary("range").unwrap();
        assert_eq!(s.max, 1e13);
        assert!(s.p50 >= s.min && s.p50 <= s.max);
        assert_eq!(s.p99, 1e13, "overflow bucket reports the exact max");
    }

    #[test]
    fn custom_bounds_are_respected() {
        let t = Telemetry::new();
        let h = t.histogram_with_bounds("sizes", &[10.0, 100.0, 1000.0]);
        for v in [5.0, 50.0, 500.0, 5000.0] {
            t.record(h, v);
        }
        let s = t.histogram_summary("sizes").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5000.0);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let t = Telemetry::new();
        t.histogram("nothing");
        assert_eq!(
            t.histogram_summary("nothing").unwrap(),
            HistogramSummary::EMPTY
        );
    }

    #[test]
    fn spans_record_durations_against_sim_time() {
        let t = Telemetry::new();
        let id = t.span("host", "freeze");
        let a = t.span_enter(id, SimTime::from_nanos(1_000));
        t.span_exit(a, SimTime::from_nanos(21_000));
        let b = t.span_enter(id, SimTime::from_nanos(50_000));
        t.span_exit(b, SimTime::from_nanos(90_000));
        let s = t.span_summary("host", "freeze").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 20_000.0);
        assert_eq!(s.max, 40_000.0);
        let recs = t.span_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "host/freeze");
        assert_eq!(recs[0].start, SimTime::from_nanos(1_000));
        assert_eq!(recs[1].end, SimTime::from_nanos(90_000));
    }

    #[test]
    fn discarded_spans_leave_no_duration_sample() {
        let t = Telemetry::new();
        let id = t.span("host", "freeze");
        let a = t.span_enter(id, SimTime::from_nanos(0));
        t.span_discard(a);
        let s = t.span_summary("host", "freeze").unwrap();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn csv_export_is_sorted_and_stable() {
        let mk = |order_flipped: bool| {
            let t = Telemetry::new();
            // Register in different orders; export must not care.
            if order_flipped {
                t.counter("b.two");
                t.counter("a.one");
            } else {
                t.counter("a.one");
                t.counter("b.two");
            }
            let h = t.histogram("lat");
            t.record(h, 1_000.0);
            let s = t.span("x", "y");
            let a = t.span_enter(s, SimTime::ZERO);
            t.span_exit(a, SimTime::from_nanos(2_000));
            t.to_csv()
        };
        let csv = mk(false);
        assert_eq!(csv, mk(true));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "kind,name,value,count,sum,min,max,p50,p90,p99,overflow"
        );
        assert_eq!(lines[1], "counter,a.one,0,,,,,,,,");
        assert_eq!(lines[2], "counter,b.two,0,,,,,,,,");
        assert!(lines[3].starts_with("histogram,lat,,1,"));
        assert!(lines[4].starts_with("span,x/y,,1,"));
    }

    #[test]
    fn json_export_contains_all_kinds() {
        let t = Telemetry::new();
        let c = t.counter("n");
        t.add(c, 7);
        let g = t.gauge("g");
        t.set_gauge(g, 1.5);
        let h = t.histogram("h");
        t.record(h, 1_000.0);
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"counter:n\":7"));
        assert!(j.contains("\"gauge:g\":1.5"));
        assert!(j.contains("\"histogram:h\":{\"count\":1"));
    }

    #[test]
    fn histogram_overflow_is_counted_and_exported() {
        let t = Telemetry::new();
        let h = t.histogram_with_bounds("sizes", &[10.0, 100.0]);
        t.record(h, 5.0);
        t.record(h, 5_000.0); // above the top bound
        t.record(h, 6_000.0);
        let s = t.histogram_summary("sizes").unwrap();
        assert_eq!(s.overflow, 2);
        let csv_line = t
            .to_csv()
            .lines()
            .find(|l| l.starts_with("histogram,sizes"))
            .unwrap()
            .to_string();
        assert!(csv_line.ends_with(",2"), "overflow is the last CSV column: {csv_line}");
        assert!(t.to_json().contains("\"overflow\":2"));
    }

    #[test]
    fn trace_ring_is_bounded_and_keeps_newest() {
        let t = Telemetry::new();
        let tr = t.track(1, "guest");
        let tag = t.trace_tag("guest.tick");
        t.set_trace_capacity(8);
        for i in 0..20 {
            t.trace_instant(tr, tag, SimTime::from_nanos(i), i as i64);
        }
        assert_eq!(t.trace_len(), 8);
        assert_eq!(t.trace_dropped(), 12);
        let args: Vec<i64> = t.trace_events().iter().map(|e| e.arg).collect();
        assert_eq!(args, (12..20).collect::<Vec<i64>>());
    }

    #[test]
    fn trace_csv_resolves_tracks_and_phases() {
        let t = Telemetry::new();
        let tr = t.track(3, "vmhost");
        let tag = t.trace_tag("vm.freeze");
        t.trace_begin(tr, tag, SimTime::from_nanos(1_000), 0);
        t.trace_end(tr, tag, SimTime::from_nanos(41_000), 40_000);
        let csv = t.trace_to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "ts_ns,host,subsystem,name,phase,arg");
        assert_eq!(lines[1], "1000,3,vmhost,vm.freeze,B,0");
        assert_eq!(lines[2], "41000,3,vmhost,vm.freeze,E,40000");
    }

    #[test]
    fn perfetto_export_is_identical_across_registration_orders() {
        // The satellite bugfix: lazy mid-run track registration must not
        // perturb the exported bytes. Register the same tracks in two
        // different interleavings and emit the same events.
        let mk = |flipped: bool| {
            let t = Telemetry::new();
            let (a, b) = if flipped {
                (t.track(1, "vmhost"), t.track(1, "guest"))
            } else {
                (t.track(1, "guest"), t.track(1, "vmhost"))
            };
            let (guest, vmhost) = if flipped { (b, a) } else { (a, b) };
            let tick = t.trace_tag("guest.tick");
            let freeze = t.trace_tag("vm.freeze");
            t.trace_instant(guest, tick, SimTime::from_nanos(10), 10);
            t.trace_begin(vmhost, freeze, SimTime::from_nanos(20), 0);
            t.trace_end(vmhost, freeze, SimTime::from_nanos(30), 10);
            t.trace_to_perfetto()
        };
        let json = mk(false);
        assert_eq!(json, mk(true));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        // Tracks are tid-ordered alphabetically: guest=1, vmhost=2.
        assert!(json.contains("{\"name\":\"guest.tick\",\"ph\":\"i\",\"ts\":0.010,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"arg\":10}}"));
        assert!(json.contains("{\"name\":\"vm.freeze\",\"ph\":\"B\",\"ts\":0.020,\"pid\":1,\"tid\":2,\"args\":{\"arg\":0}}"));
    }

    #[test]
    fn span_log_is_bounded_but_histograms_keep_everything() {
        let t = Telemetry::new();
        let id = t.span("x", "y");
        for i in 0..(SPAN_LOG_CAP as u64 + 10) {
            let a = t.span_enter(id, SimTime::from_nanos(i));
            t.span_exit(a, SimTime::from_nanos(i + 100));
        }
        assert_eq!(t.span_records().len(), SPAN_LOG_CAP);
        assert_eq!(t.span_records_dropped(), 10);
        assert_eq!(
            t.span_summary("x", "y").unwrap().count,
            SPAN_LOG_CAP as u64 + 10
        );
    }
}
