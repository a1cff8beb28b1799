//! Per-epoch critical-path analysis over the causal trace.
//!
//! The coordinator emits a milestone skeleton for every epoch round on
//! its own track (`epoch` begin/end, `epoch.all_acked`,
//! `epoch.barrier`, `epoch.resume_released`) and a causal flow
//! ([`TraceCtx`]-keyed `flow.*` events) that crosses host tracks. This
//! module walks both and attributes the round's wall time — notify
//! publication to epoch close — to four contiguous segments:
//!
//! | segment          | interval                       | dominated by |
//! |------------------|--------------------------------|--------------|
//! | `notify_fanout`  | publish → last ack             | control LAN fan-out |
//! | `capture_wait`   | last ack → done barrier        | slowest node's drain + capture |
//! | `barrier_hold`   | barrier → resume released      | held rounds (swap-out, time travel) |
//! | `resume_release` | resume released → epoch close  | resume fan-out |
//!
//! Missing milestones collapse forward onto the epoch close (an epoch
//! that aborts before any ack attributes its whole wall time to
//! `notify_fanout`), so the four segments always partition the wall
//! time exactly: `segments_sum_ns() == wall_ns()` by construction.
//!
//! The analysis is a pure function of the resolved trace — same events
//! in, same paths out — so reports built on it inherit the exporters'
//! byte-determinism.

use std::collections::BTreeMap;

use super::{names, TraceCtx, TraceEvent, TracePhase};

/// Critical-path attribution for one epoch round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochPath {
    /// Coordination group (0 when the round carried no flow context).
    pub group: u32,
    /// Epoch number within the group.
    pub epoch: u64,
    /// Virtual time of the notification publish, ns.
    pub begin_ns: u64,
    /// Virtual time of the epoch close (resume or abort), ns.
    pub end_ns: u64,
    /// Publish → last notification ack, ns.
    pub notify_fanout_ns: u64,
    /// Last ack → done barrier, ns.
    pub capture_wait_ns: u64,
    /// Barrier → resume release (zero unless the round was held), ns.
    pub barrier_hold_ns: u64,
    /// Resume release → epoch close, ns.
    pub resume_release_ns: u64,
    /// True if the done barrier completed (clean or degraded commit).
    pub committed: bool,
    /// Distinct hosts that contributed `flow.ack` / `flow.capture`
    /// steps to the round's flow.
    pub participants: usize,
    /// Host whose capture completed last (0 when no captures flowed).
    pub slowest_host: u32,
    /// Publish → slowest capture completion, ns (informational; 0 when
    /// no captures flowed).
    pub slowest_capture_ns: u64,
    /// Publish → last store quorum commit attributed to the round, ns
    /// (informational; 0 for rounds that never touched the store).
    pub store_commit_ns: u64,
}

impl EpochPath {
    /// Total wall time of the round, publish → close.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// Sum of the four attributed segments; equals [`wall_ns`] by
    /// construction.
    ///
    /// [`wall_ns`]: EpochPath::wall_ns
    pub fn segments_sum_ns(&self) -> u64 {
        self.notify_fanout_ns + self.capture_wait_ns + self.barrier_hold_ns + self.resume_release_ns
    }
}

/// Per-flow aggregates gathered from cross-track `flow.*` events.
#[derive(Default)]
struct FlowAgg {
    hosts: Vec<u32>,
    last_capture: Option<(u64, u32)>,
    last_store_commit_ns: Option<u64>,
}

/// Milestones gathered from the coordinator-track epoch skeleton.
struct Building {
    begin_ns: u64,
    group: u32,
    all_acked_ns: Option<u64>,
    barrier_ns: Option<u64>,
    resume_released_ns: Option<u64>,
}

/// Walks a resolved trace (as returned by
/// [`Telemetry::trace_events`](super::Telemetry::trace_events)) and
/// returns one [`EpochPath`] per completed epoch round, ordered by
/// `(group, epoch, begin)`.
///
/// Rounds whose `epoch` slice never closed (still in flight when the
/// trace was captured, or evicted from the ring) are omitted: their
/// wall time is unknown.
pub fn analyze(events: &[TraceEvent]) -> Vec<EpochPath> {
    // Milestone skeletons keyed by (coordinator host, epoch); flow
    // aggregates keyed by the packed TraceCtx.
    let mut open: BTreeMap<(u32, u32), Building> = BTreeMap::new();
    let mut flows: BTreeMap<i64, FlowAgg> = BTreeMap::new();
    let mut done: Vec<EpochPath> = Vec::new();

    for ev in events {
        let ns = ev.at.as_nanos();
        match (ev.name, ev.phase) {
            (names::EV_EPOCH, TracePhase::Begin) => {
                open.insert(
                    (ev.host, ev.arg as u32),
                    Building {
                        begin_ns: ns,
                        group: 0,
                        all_acked_ns: None,
                        barrier_ns: None,
                        resume_released_ns: None,
                    },
                );
            }
            (names::FLOW_NOTIFY, TracePhase::FlowStart) => {
                let ctx = TraceCtx::from_arg(ev.arg);
                if let Some(b) = open.get_mut(&(ev.host, ctx.span_id)) {
                    b.group = ctx.trace_id;
                }
                flows.entry(ev.arg).or_default();
            }
            (names::EV_EPOCH_ALL_ACKED, TracePhase::Instant) => {
                if let Some(b) = open.get_mut(&(ev.host, ev.arg as u32)) {
                    b.all_acked_ns = Some(ns);
                }
            }
            (names::EV_EPOCH_BARRIER, TracePhase::Instant) => {
                if let Some(b) = open.get_mut(&(ev.host, ev.arg as u32)) {
                    b.barrier_ns = Some(ns);
                }
            }
            (names::EV_EPOCH_RESUME_RELEASED, TracePhase::Instant) => {
                if let Some(b) = open.get_mut(&(ev.host, ev.arg as u32)) {
                    b.resume_released_ns = Some(ns);
                }
            }
            (names::FLOW_ACK, TracePhase::FlowStep) => {
                let agg = flows.entry(ev.arg).or_default();
                if !agg.hosts.contains(&ev.host) {
                    agg.hosts.push(ev.host);
                }
            }
            (names::FLOW_CAPTURE, TracePhase::FlowStep) => {
                let agg = flows.entry(ev.arg).or_default();
                if !agg.hosts.contains(&ev.host) {
                    agg.hosts.push(ev.host);
                }
                // Record order breaks the tie deterministically: the
                // first event at the latest instant wins.
                if agg.last_capture.map(|(t, _)| ns > t).unwrap_or(true) {
                    agg.last_capture = Some((ns, ev.host));
                }
            }
            (names::FLOW_STORE_COMMIT, TracePhase::FlowStep) => {
                let agg = flows.entry(ev.arg).or_default();
                if agg.last_store_commit_ns.map(|t| ns > t).unwrap_or(true) {
                    agg.last_store_commit_ns = Some(ns);
                }
            }
            (names::EV_EPOCH, TracePhase::End) => {
                let Some(b) = open.remove(&(ev.host, ev.arg as u32)) else {
                    continue;
                };
                let epoch = ev.arg as u32;
                let end = ns.max(b.begin_ns);
                // A missing milestone collapses forward onto the epoch
                // close: the round spent its remaining wall time waiting
                // for the milestone that never came, so the segment
                // *before* it absorbs the residue and the four segments
                // always partition [begin, end].
                let a = b.all_acked_ns.unwrap_or(end).clamp(b.begin_ns, end);
                let bar = b.barrier_ns.unwrap_or(end).clamp(a, end);
                let rel = b.resume_released_ns.unwrap_or(end).clamp(bar, end);
                let ctx = TraceCtx {
                    trace_id: b.group,
                    span_id: epoch,
                };
                let agg = flows.remove(&ctx.as_arg()).unwrap_or_default();
                done.push(EpochPath {
                    group: b.group,
                    epoch: epoch as u64,
                    begin_ns: b.begin_ns,
                    end_ns: end,
                    notify_fanout_ns: a - b.begin_ns,
                    capture_wait_ns: bar - a,
                    barrier_hold_ns: rel - bar,
                    resume_release_ns: end - rel,
                    committed: b.barrier_ns.is_some(),
                    participants: agg.hosts.len(),
                    slowest_host: agg.last_capture.map(|(_, h)| h).unwrap_or(0),
                    slowest_capture_ns: agg
                        .last_capture
                        .map(|(t, _)| t.saturating_sub(b.begin_ns))
                        .unwrap_or(0),
                    store_commit_ns: agg
                        .last_store_commit_ns
                        .map(|t| t.saturating_sub(b.begin_ns))
                        .unwrap_or(0),
                });
            }
            _ => {}
        }
    }

    done.sort_by_key(|p| (p.group, p.epoch, p.begin_ns));
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn ev(host: u32, name: &'static str, phase: TracePhase, at_ns: u64, arg: i64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at_ns),
            host,
            subsystem: "test",
            name,
            phase,
            arg,
        }
    }

    #[test]
    fn full_round_partitions_wall_time() {
        let ctx = TraceCtx::for_round(7, 3);
        let events = vec![
            ev(100, names::EV_EPOCH, TracePhase::Begin, 1_000, 3),
            ev(100, names::FLOW_NOTIFY, TracePhase::FlowStart, 1_000, ctx.as_arg()),
            ev(1, names::FLOW_ACK, TracePhase::FlowStep, 1_400, ctx.as_arg()),
            ev(2, names::FLOW_ACK, TracePhase::FlowStep, 1_600, ctx.as_arg()),
            ev(100, names::EV_EPOCH_ALL_ACKED, TracePhase::Instant, 1_600, 3),
            ev(1, names::FLOW_CAPTURE, TracePhase::FlowStep, 4_000, ctx.as_arg()),
            ev(2, names::FLOW_CAPTURE, TracePhase::FlowStep, 6_000, ctx.as_arg()),
            ev(100, names::EV_EPOCH_BARRIER, TracePhase::Instant, 6_100, 3),
            ev(100, names::EV_EPOCH_RESUME_RELEASED, TracePhase::Instant, 9_000, 3),
            ev(100, names::EV_EPOCH, TracePhase::End, 9_500, 3),
        ];
        let paths = analyze(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.group, p.epoch), (7, 3));
        assert_eq!(p.notify_fanout_ns, 600);
        assert_eq!(p.capture_wait_ns, 4_500);
        assert_eq!(p.barrier_hold_ns, 2_900);
        assert_eq!(p.resume_release_ns, 500);
        assert_eq!(p.segments_sum_ns(), p.wall_ns());
        assert!(p.committed);
        assert_eq!(p.participants, 2);
        assert_eq!(p.slowest_host, 2);
        assert_eq!(p.slowest_capture_ns, 5_000);
    }

    #[test]
    fn aborted_round_collapses_missing_milestones() {
        let ctx = TraceCtx::for_round(1, 9);
        let events = vec![
            ev(100, names::EV_EPOCH, TracePhase::Begin, 2_000, 9),
            ev(100, names::FLOW_NOTIFY, TracePhase::FlowStart, 2_000, ctx.as_arg()),
            ev(100, names::EV_EPOCH, TracePhase::End, 5_000, 9),
        ];
        let paths = analyze(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(!p.committed);
        assert_eq!(p.notify_fanout_ns, 3_000, "all wall time lands pre-ack");
        assert_eq!(p.capture_wait_ns + p.barrier_hold_ns + p.resume_release_ns, 0);
        assert_eq!(p.segments_sum_ns(), p.wall_ns());
    }

    #[test]
    fn unclosed_round_is_omitted() {
        let events = vec![ev(100, names::EV_EPOCH, TracePhase::Begin, 0, 1)];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn trace_ctx_packs_round_trip() {
        let ctx = TraceCtx::for_round(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(TraceCtx::from_arg(ctx.as_arg()), ctx);
        assert!(TraceCtx::NONE.is_none());
        assert!(!ctx.is_none());
    }
}
