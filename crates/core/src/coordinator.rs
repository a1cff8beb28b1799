//! The checkpoint coordinator on the ops node.
//!
//! Runs the distributed protocol of §4.3 as a **two-phase epoch state
//! machine**: publishes scheduled or event-driven checkpoint notifications
//! to every subscribed node, collects per-node acks (phase one, failure
//! detection), gathers per-node "done" reports behind a barrier (phase
//! two), and publishes the resume. Notifications carry epoch ids and are
//! retried with exponential backoff while acks are missing; an epoch that
//! cannot assemble its barrier before a deadline is aborted — nodes roll
//! back their local checkpoint sequence and resume through the temporal
//! firewall — or, per [`FailurePolicy`], committed *degraded* with a
//! crashed node excluded. The component doubles as the testbed's NTP
//! server (its clock is the reference the whole experiment disciplines
//! against), because scheduled checkpoints only make sense relative to the
//! clock the nodes chase.
//!
//! The coordinator's epoch WAL is its state. Every change to the epoch
//! records, the open rounds, the evictions, the force-full set and the
//! epoch counter is a [`WalRecord`] appended to the log and then applied
//! by one private `apply`; recovery after a crash is a replay of the log
//! through that same `apply`, followed by a classification of each round
//! the crash left open. The live handlers add only what the log does not
//! hold: telemetry, trace instants, bus traffic, timers and crash points.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use clocksync::{NtpRequest, NtpServer};
use hwsim::{Frame, HardwareClock, LanTransmit, LinkDeliver, NodeAddr};
use sim::buggify;
use sim::buggify::points as buggify_points;
use sim::telemetry::names;
use sim::{
    ActiveSpan, Component, ComponentId, CounterId, Ctx, HistogramId, IntMap, Payload,
    SimDuration, SimTime, SpanId, TraceCtx, TraceTag, TrackId,
};

use crate::bus::{BusMsg, BUS_MSG_BYTES};
use crate::shadow;
use crate::wal::{recover_code, Wal, WalRecord};

/// Internal coordinator events. Every timer carries the incarnation
/// (`gen`) that armed it: timers of a crashed incarnation are discarded
/// on delivery instead of firing into the recovered protocol state.
#[derive(Clone, Copy)]
enum CoordMsg {
    /// Fire the next periodic checkpoint.
    PeriodicKick { gen: u32 },
    /// Per-round ack timer: re-notify nodes whose ack is still missing.
    AckTimeout { group: GroupId, epoch: u64, attempt: u32, gen: u32 },
    /// Per-round deadline: degrade or abort an epoch that has not
    /// assembled its barrier.
    EpochDeadline { group: GroupId, epoch: u64, gen: u32 },
    /// The crashed process comes back up and replays its WAL.
    Restart { gen: u32 },
}

/// How a checkpoint epoch terminated. Every epoch reaches exactly one of
/// these — the failure detector guarantees no epoch wedges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochOutcome {
    /// Every participant captured and resumed: a globally consistent
    /// checkpoint exists for this epoch.
    Committed,
    /// The barrier could not be assembled before the deadline; all
    /// participants rolled back and resumed as if the epoch had never
    /// been triggered.
    Aborted,
    /// Committed with one or more unresponsive (never-acked, presumed
    /// crashed) nodes excluded from the barrier, per experiment policy.
    Degraded,
}

/// Deadline for *held* rounds (suspend for swap-out / time travel).
/// Those are operator-paced stop-the-world operations whose barrier
/// legitimately takes as long as the slowest node's drain + capture
/// under load — [`FailurePolicy::epoch_deadline`] would abort a healthy
/// suspension whose disk drain runs long. Kept finite as a last-resort
/// bound on truly wedged suspensions.
const SUSPEND_DEADLINE: SimDuration = SimDuration::from_secs(120);

/// Failure-handling policy for checkpoint rounds.
#[derive(Clone, Copy, Debug)]
pub struct FailurePolicy {
    /// Re-notify a node that has not acked within this much true time;
    /// subsequent retries back off exponentially (2x per attempt).
    pub ack_timeout: SimDuration,
    /// Give up re-notifying after this many retries (the deadline then
    /// decides the epoch's fate).
    pub max_notify_retries: u32,
    /// An epoch whose barrier is incomplete this long after publication
    /// is degraded or aborted.
    pub epoch_deadline: SimDuration,
    /// Allow committing an epoch with never-acked (presumed crashed)
    /// nodes excluded from the barrier. When false — or when a missing
    /// node *did* ack, proving it alive — the epoch aborts instead.
    pub allow_degraded: bool,
    /// Extra back-to-back copies of each Resume/Abort publication. Frozen
    /// nodes can only be thawed by these messages, so on a lossy control
    /// LAN repeats bound the chance of a wedged node. Zero by default:
    /// healthy runs then put exactly the baseline frame load on the LAN.
    pub resume_repeats: u32,
    /// Evict nodes excluded by a degraded commit from group membership:
    /// later epochs then commit cleanly over the survivors instead of
    /// re-timing-out against a corpse every round. An evicted node that
    /// recovers is re-admitted through [`Coordinator::rejoin`], which
    /// forces its next checkpoint to be full (non-incremental). Off by
    /// default: the classic behaviour keeps excluding per-epoch.
    pub evict_excluded: bool,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            ack_timeout: SimDuration::from_millis(25),
            max_notify_retries: 5,
            epoch_deadline: SimDuration::from_secs(2),
            allow_degraded: true,
            resume_repeats: 0,
            evict_excluded: false,
        }
    }
}

/// Per-epoch record for analysis.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Checkpoint group the round ran in.
    pub group: GroupId,
    /// True time the notification was published.
    pub published: SimTime,
    /// True time the last ack arrived (all participants notified).
    pub acked: Option<SimTime>,
    /// True time the barrier completed (all nodes done).
    pub barrier_done: Option<SimTime>,
    /// True time the resume was published.
    pub resumed: Option<SimTime>,
    /// Total image bytes reported by nodes for this epoch.
    pub captured_bytes: u64,
    /// How the epoch terminated; `None` while still in flight.
    pub outcome: Option<EpochOutcome>,
    /// Notification retries the failure detector issued.
    pub retries: u32,
    /// Participants excluded from the barrier (degraded commit).
    pub excluded: u32,
}

impl EpochRecord {
    /// Notify→all-acks latency: how long failure detection took to cover
    /// every participant.
    pub fn notify_to_acks(&self) -> Option<SimDuration> {
        self.acked
            .map(|t| t.saturating_duration_since(self.published))
    }

    /// Barrier hold time: how long the system stayed suspended between
    /// barrier completion and the resume publication.
    pub fn barrier_hold(&self) -> Option<SimDuration> {
        match (self.barrier_done, self.resumed) {
            (Some(b), Some(r)) => Some(r.saturating_duration_since(b)),
            _ => None,
        }
    }
}

/// Checkpoint trigger style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerMode {
    /// "Checkpoint at time t": scheduled through synchronized clocks.
    Scheduled {
        /// How far in the future to schedule, as a local-clock delta.
        lead: SimDuration,
    },
    /// "Checkpoint now": delivery-limited synchronization.
    EventDriven,
}

/// A checkpoint group: one experiment's set of nodes. Emulab coordinates
/// per experiment; nodes of different experiments never share a barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The default group for single-experiment setups.
    pub const DEFAULT: GroupId = GroupId(0);
}

/// An in-flight checkpoint round.
struct Round {
    epoch: u64,
    /// The published notification, kept verbatim for retries (a retried
    /// scheduled notification carries the *original* target time; node
    /// wake timers clamp past targets to "now").
    notify: BusMsg,
    /// Participants whose ack is still missing.
    await_ack: HashSet<NodeAddr>,
    /// Participants whose done report is still missing.
    await_done: HashSet<NodeAddr>,
    /// Participants excluded from the barrier (degraded commit).
    excluded: HashSet<NodeAddr>,
    /// Participants notified with the full-capture flag raised; cleared
    /// from the standing force-full set once their capture commits.
    forced_full: HashSet<NodeAddr>,
    /// The barrier at publication time, sorted by address.
    participants: Vec<NodeAddr>,
    /// Withhold the resume at the barrier (swap-out / time travel).
    hold: bool,
    /// Telemetry span opened at publication, closed at resume or abort.
    /// Live-only: a round rebuilt from the WAL has none.
    span: Option<ActiveSpan>,
}

/// Telemetry instrument handles, registered lazily on the first event
/// (ids are `Copy`; recording through them allocates nothing).
#[derive(Clone, Copy)]
struct CoordTele {
    notify_to_acks: HistogramId,
    barrier_hold: HistogramId,
    retries: CounterId,
    committed: CounterId,
    aborted: CounterId,
    degraded: CounterId,
    excluded: CounterId,
    captured_bytes: CounterId,
    crashes: CounterId,
    recoveries: CounterId,
    epoch_span: SpanId,
    /// Epoch-phase timeline row (on the ops node's pid).
    track: TrackId,
    ev_epoch: TraceTag,
    ev_notify: TraceTag,
    ev_all_acked: TraceTag,
    ev_barrier: TraceTag,
    ev_resume_released: TraceTag,
    ev_abandoned: TraceTag,
    /// Causal flow anchors for the round (start at notify, step at the
    /// barrier, end at the resume publication).
    ev_flow_notify: TraceTag,
    ev_flow_barrier: TraceTag,
    ev_flow_resume: TraceTag,
    /// Per-node shadow-protocol instants (consumed by `shadow`).
    ev_s_join: TraceTag,
    ev_s_ack: TraceTag,
    ev_s_done: TraceTag,
    ev_s_exclude: TraceTag,
    ev_s_commit: TraceTag,
    ev_s_abort: TraceTag,
    ev_s_resume: TraceTag,
    ev_s_abandon: TraceTag,
    ev_s_rejoin: TraceTag,
    ev_s_recover: TraceTag,
    ev_crash: TraceTag,
}

/// Builder for [`Coordinator`]; obtained from [`Coordinator::builder`].
#[derive(Clone, Debug)]
pub struct CoordinatorBuilder {
    /// Control address of the ops node.
    addr: NodeAddr,
    /// Control LAN the coordinator publishes on.
    lan: ComponentId,
    mode: TriggerMode,
    policy: FailurePolicy,
}

impl CoordinatorBuilder {
    /// Checkpoint trigger style.
    pub fn mode(mut self, mode: TriggerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Failure-handling policy.
    pub fn policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Coordinator {
        Coordinator {
            addr: self.addr,
            lan: self.lan,
            clock: HardwareClock::new(0, 0.0),
            ntp: NtpServer,
            members: Vec::new(),
            by_addr: IntMap::default(),
            epoch: 0,
            pending: HashMap::new(),
            mode: self.mode,
            policy: self.policy,
            periodic: None,
            records: Vec::new(),
            evicted: Vec::new(),
            force_full: HashSet::new(),
            wal: Wal::in_memory(),
            gen: 0,
            crashed: false,
            recovering: false,
            crashes: 0,
            recoveries: 0,
            tele: None,
        }
    }
}

/// The coordinator component.
pub struct Coordinator {
    addr: NodeAddr,
    lan: ComponentId,
    clock: HardwareClock,
    ntp: NtpServer,
    /// Member → group, in subscription order (the publish order).
    members: Vec<(NodeAddr, GroupId)>,
    /// The same pairs by address: every ack and done report looks its
    /// sender up here, and a scan made a 10,000-node round quadratic.
    by_addr: IntMap<NodeAddr, GroupId>,
    epoch: u64,
    /// In-flight rounds by group.
    pending: HashMap<GroupId, Round>,
    mode: TriggerMode,
    policy: FailurePolicy,
    periodic: Option<(GroupId, SimDuration)>,
    /// Completed and in-progress epoch records.
    records: Vec<EpochRecord>,
    /// Nodes evicted from their group after degraded commits (under
    /// [`FailurePolicy::evict_excluded`]), remembered for re-admission.
    evicted: Vec<(NodeAddr, GroupId)>,
    /// Nodes whose next checkpoint notification demands a full capture
    /// (their incremental chain broke while they were away).
    force_full: HashSet<NodeAddr>,
    /// Durable epoch WAL: `records`, `pending`, `evicted`, `force_full`
    /// and `epoch` change only by a record appended here and applied by
    /// `apply`. It survives [`Coordinator::crash`].
    wal: Wal,
    /// Process incarnation; bumped at every crash so timers armed by a
    /// dead incarnation are discarded on delivery.
    gen: u32,
    /// True between [`Coordinator::crash`] and the restart: every
    /// message (bus traffic, NTP requests, stale timers) is dropped.
    crashed: bool,
    /// True while [`Coordinator::recover`] replays the WAL: the crash
    /// buggify points are disarmed so recovery itself is atomic.
    recovering: bool,
    crashes: u64,
    recoveries: u64,
    tele: Option<CoordTele>,
}

/// (committed, aborted, degraded) counts over `records`; an epoch still
/// in flight counts as none of them.
fn tally_outcomes<'a>(records: impl IntoIterator<Item = &'a EpochRecord>) -> (u64, u64, u64) {
    let mut counts = (0, 0, 0);
    for r in records {
        match r.outcome {
            Some(EpochOutcome::Committed) => counts.0 += 1,
            Some(EpochOutcome::Aborted) => counts.1 += 1,
            Some(EpochOutcome::Degraded) => counts.2 += 1,
            None => {}
        }
    }
    counts
}

impl Coordinator {
    /// Starts a [`CoordinatorBuilder`] with defaults: a perfect reference
    /// clock, scheduled triggering with a 200 ms lead, the default
    /// [`FailurePolicy`], resumes published at the barrier.
    pub fn builder(addr: NodeAddr, lan: ComponentId) -> CoordinatorBuilder {
        CoordinatorBuilder {
            addr,
            lan,
            mode: TriggerMode::Scheduled { lead: SimDuration::from_millis(200) },
            policy: FailurePolicy::default(),
        }
    }

    fn tele(&mut self, ctx: &Ctx<'_>) -> CoordTele {
        let addr = self.addr.0;
        *self.tele.get_or_insert_with(|| {
            let t = ctx.telemetry();
            CoordTele {
                notify_to_acks: t.histogram(names::COORD_NOTIFY_TO_ACKS_NS),
                barrier_hold: t.histogram(names::COORD_BARRIER_HOLD_NS),
                retries: t.counter(names::COORD_RETRIES),
                committed: t.counter(names::COORD_EPOCHS_COMMITTED),
                aborted: t.counter(names::COORD_EPOCHS_ABORTED),
                degraded: t.counter(names::COORD_EPOCHS_DEGRADED),
                excluded: t.counter(names::COORD_NODES_EXCLUDED),
                captured_bytes: t.counter(names::COORD_CAPTURED_BYTES),
                crashes: t.counter(names::COORD_CRASHES),
                recoveries: t.counter(names::COORD_RECOVERIES),
                epoch_span: t.span(names::SPAN_COORDINATOR, names::SPAN_EPOCH),
                track: t.track(addr, names::TRACK_COORDINATOR),
                ev_epoch: t.trace_tag(names::EV_EPOCH),
                ev_notify: t.trace_tag(names::EV_EPOCH_NOTIFY),
                ev_all_acked: t.trace_tag(names::EV_EPOCH_ALL_ACKED),
                ev_barrier: t.trace_tag(names::EV_EPOCH_BARRIER),
                ev_resume_released: t.trace_tag(names::EV_EPOCH_RESUME_RELEASED),
                ev_abandoned: t.trace_tag(names::EV_EPOCH_ABANDONED),
                ev_flow_notify: t.trace_tag(names::FLOW_NOTIFY),
                ev_flow_barrier: t.trace_tag(names::FLOW_BARRIER),
                ev_flow_resume: t.trace_tag(names::FLOW_RESUME),
                ev_s_join: t.trace_tag(names::EV_SHADOW_JOIN),
                ev_s_ack: t.trace_tag(names::EV_SHADOW_ACK),
                ev_s_done: t.trace_tag(names::EV_SHADOW_DONE),
                ev_s_exclude: t.trace_tag(names::EV_SHADOW_EXCLUDE),
                ev_s_commit: t.trace_tag(names::EV_SHADOW_COMMIT),
                ev_s_abort: t.trace_tag(names::EV_SHADOW_ABORT),
                ev_s_resume: t.trace_tag(names::EV_SHADOW_RESUME),
                ev_s_abandon: t.trace_tag(names::EV_SHADOW_ABANDON),
                ev_s_rejoin: t.trace_tag(names::EV_SHADOW_REJOIN),
                ev_s_recover: t.trace_tag(names::EV_SHADOW_RECOVER),
                ev_crash: t.trace_tag(names::EV_COORD_CRASH),
            }
        })
    }

    /// Makes one durable epoch transition: appends `rec` to the WAL, then
    /// applies it.
    fn log(&mut self, rec: WalRecord) {
        self.wal.append(&rec);
        self.apply(&rec);
    }

    /// What one WAL record does to the protocol state: the one reading of
    /// the log, taken live through [`Coordinator::log`] and at recovery
    /// by replaying the whole log. It changes state only — no telemetry,
    /// trace instants, events, randomness or crash points.
    fn apply(&mut self, rec: &WalRecord) {
        match *rec {
            WalRecord::RoundOpen {
                at_ns,
                group,
                epoch,
                hold,
                notify_at_clock_ns,
                ref participants,
                ref forced_full,
                trace: (trace_id, span_id),
            } => {
                let trace = TraceCtx { trace_id, span_id };
                let notify = match notify_at_clock_ns {
                    Some(at_clock_ns) => {
                        BusMsg::CheckpointAt { epoch, at_clock_ns, full: false, trace }
                    }
                    None => BusMsg::CheckpointNow { epoch, full: false, trace },
                };
                let participants: Vec<NodeAddr> = participants.iter().map(|&n| NodeAddr(n)).collect();
                let all: HashSet<NodeAddr> = participants.iter().copied().collect();
                self.epoch = self.epoch.max(epoch);
                self.pending.insert(
                    GroupId(group),
                    Round {
                        epoch,
                        notify,
                        await_ack: all.clone(),
                        await_done: all,
                        excluded: HashSet::new(),
                        forced_full: forced_full.iter().map(|&n| NodeAddr(n)).collect(),
                        participants,
                        hold,
                        span: None,
                    },
                );
                self.records.push(EpochRecord {
                    epoch,
                    group: GroupId(group),
                    published: SimTime::from_nanos(at_ns),
                    acked: None,
                    barrier_done: None,
                    resumed: None,
                    captured_bytes: 0,
                    outcome: None,
                    retries: 0,
                    excluded: 0,
                });
            }
            WalRecord::Ack { at_ns, group, epoch, node }
            | WalRecord::Done { at_ns, group, epoch, node, .. } => {
                let image_bytes = match *rec {
                    WalRecord::Done { image_bytes, .. } => Some(image_bytes),
                    _ => None,
                };
                let Some(r) = self.round_mut(group, epoch) else {
                    return;
                };
                // A done report is an implicit ack.
                r.await_ack.remove(&NodeAddr(node));
                let covered = r.await_ack.is_empty();
                if image_bytes.is_some() {
                    r.await_done.remove(&NodeAddr(node));
                }
                if let Some(rec) = self.record_mut(epoch) {
                    rec.captured_bytes += image_bytes.unwrap_or(0);
                    if covered {
                        rec.acked.get_or_insert(SimTime::from_nanos(at_ns));
                    }
                }
            }
            WalRecord::Retry { group, epoch, .. } => {
                if self.round_mut(group, epoch).is_some() {
                    if let Some(rec) = self.record_mut(epoch) {
                        rec.retries += 1;
                    }
                }
            }
            WalRecord::Exclude { group, epoch, node, .. } => {
                if let Some(r) = self.round_mut(group, epoch) {
                    r.await_done.remove(&NodeAddr(node));
                    r.excluded.insert(NodeAddr(node));
                }
            }
            WalRecord::Commit { at_ns, epoch, excluded, .. } => {
                if let Some(rec) = self.record_mut(epoch) {
                    rec.barrier_done = Some(SimTime::from_nanos(at_ns));
                    rec.outcome = Some(if excluded == 0 {
                        EpochOutcome::Committed
                    } else {
                        EpochOutcome::Degraded
                    });
                    rec.excluded = excluded;
                }
            }
            WalRecord::Resume { at_ns, group, epoch } => {
                self.close_round(group, epoch);
                if let Some(rec) = self.record_mut(epoch) {
                    rec.resumed = Some(SimTime::from_nanos(at_ns));
                }
            }
            WalRecord::Abort { group, epoch, .. } => {
                self.close_round(group, epoch);
                if let Some(rec) = self.record_mut(epoch) {
                    rec.outcome = Some(EpochOutcome::Aborted);
                }
            }
            WalRecord::Abandon { group, epoch, .. } => self.close_round(group, epoch),
            WalRecord::Evict { group, node, .. } => {
                self.unsubscribe(NodeAddr(node));
                self.evicted.push((NodeAddr(node), GroupId(group)));
            }
            WalRecord::Rejoin { group, node, .. } => {
                self.evicted.retain(|&(n, _)| n != NodeAddr(node));
                self.subscribe_in(NodeAddr(node), GroupId(group));
                self.force_full.insert(NodeAddr(node));
            }
            WalRecord::ForceFull { node, .. } => {
                self.force_full.insert(NodeAddr(node));
            }
            WalRecord::ForceFullHealed { node, .. } => {
                self.force_full.remove(&NodeAddr(node));
            }
        }
    }

    /// `group`'s open round, if it is `epoch`'s.
    fn round_mut(&mut self, group: u32, epoch: u64) -> Option<&mut Round> {
        self.pending.get_mut(&GroupId(group)).filter(|r| r.epoch == epoch)
    }

    /// Closes `group`'s open round if it is `epoch`'s.
    fn close_round(&mut self, group: u32, epoch: u64) {
        if self.round_mut(group, epoch).is_some() {
            self.pending.remove(&GroupId(group));
        }
    }

    /// Records one shadow-protocol instant on the coordinator track.
    fn shadow_instant(
        &mut self,
        ctx: &mut Ctx<'_>,
        tag: fn(&CoordTele) -> TraceTag,
        group: GroupId,
        epoch: u64,
        node: u32,
    ) {
        let t = self.tele(ctx);
        ctx.telemetry().trace_instant(
            t.track,
            tag(&t),
            ctx.now(),
            shadow::pack(group.0, epoch, node),
        );
    }

    /// The causal context of `group`'s in-flight round
    /// ([`TraceCtx::NONE`] when the group is idle). Control paths that
    /// act on behalf of a held round — e.g. swap-out image puts — fetch
    /// the context here to link their work into the round's flow.
    pub fn trace_ctx_in(&self, group: GroupId) -> TraceCtx {
        self.pending
            .get(&group)
            .map(|r| TraceCtx::for_round(group.0, r.epoch))
            .unwrap_or(TraceCtx::NONE)
    }

    /// True once every node of `group` reported done for its round.
    pub fn barrier_complete_in(&self, group: GroupId) -> bool {
        self.pending
            .get(&group)
            .map(|r| r.await_done.is_empty())
            .unwrap_or(false)
    }

    /// True once the default group's barrier completed.
    pub fn barrier_complete(&self) -> bool {
        self.barrier_complete_in(GroupId::DEFAULT)
    }

    /// Publishes the held resume for `group`.
    ///
    /// # Panics
    ///
    /// Panics if that group's barrier has not completed.
    pub fn release_resume_in(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        assert!(
            self.barrier_complete_in(group),
            "release before barrier completion"
        );
        let round = self.pending.get_mut(&group).expect("checked");
        let (epoch, span) = (round.epoch, round.span.take());
        let now = ctx.now();
        let hold = self
            .record(epoch)
            .and_then(|rec| rec.barrier_done)
            .map_or(SimDuration::ZERO, |b| now.saturating_duration_since(b));
        let t = self.tele(ctx);
        ctx.telemetry().record_duration(t.barrier_hold, hold);
        if let Some(span) = span {
            ctx.telemetry().span_exit(span, now);
        }
        let trace = TraceCtx::for_round(group.0, epoch);
        ctx.telemetry()
            .trace_instant(t.track, t.ev_resume_released, now, epoch as i64);
        ctx.telemetry()
            .flow_end(t.track, t.ev_flow_resume, now, trace);
        ctx.telemetry()
            .trace_end(t.track, t.ev_epoch, now, epoch as i64);
        self.shadow_instant(ctx, |t| t.ev_s_resume, group, epoch, 0);
        self.log(WalRecord::Resume { at_ns: now.as_nanos(), group: group.0, epoch });
        self.publish_repeated(ctx, group, BusMsg::Resume { epoch, trace });
    }

    /// Publishes the held resume (default group).
    pub fn release_resume(&mut self, ctx: &mut Ctx<'_>) {
        self.release_resume_in(ctx, GroupId::DEFAULT);
    }

    /// Drops `group`'s held (or in-flight) round without resuming: the
    /// suspended state was replaced behind the coordinator's back (time
    /// travel installs a restored image and resumes the hosts directly).
    /// The epoch keeps its record but never resumes; its telemetry span
    /// is discarded so abandoned epochs leave no duration sample.
    pub fn abandon_round_in(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        let Some(round) = self.pending.get_mut(&group) else {
            return;
        };
        let (epoch, span) = (round.epoch, round.span.take());
        if let Some(span) = span {
            ctx.telemetry().span_discard(span);
        }
        let t = self.tele(ctx);
        let now = ctx.now();
        ctx.telemetry()
            .trace_instant(t.track, t.ev_abandoned, now, epoch as i64);
        ctx.telemetry()
            .trace_end(t.track, t.ev_epoch, now, epoch as i64);
        self.shadow_instant(ctx, |t| t.ev_s_abandon, group, epoch, 0);
        self.log(WalRecord::Abandon { at_ns: now.as_nanos(), group: group.0, epoch });
    }

    /// Subscribes a node to the bus in the default group.
    pub fn subscribe(&mut self, node: NodeAddr) {
        self.subscribe_in(node, GroupId::DEFAULT);
    }

    /// Subscribes a node to the bus in `group`.
    pub fn subscribe_in(&mut self, node: NodeAddr, group: GroupId) {
        if let Entry::Vacant(slot) = self.by_addr.entry(node) {
            slot.insert(group);
            self.members.push((node, group));
        }
    }

    /// Unsubscribes a node (swap-out teardown).
    pub fn unsubscribe(&mut self, node: NodeAddr) {
        if self.by_addr.remove(&node).is_some() {
            self.members.retain(|&(n, _)| n != node);
        }
    }

    fn group_of(&self, node: NodeAddr) -> Option<GroupId> {
        self.by_addr.get(&node).copied()
    }

    /// The coordinator's control address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Completed and in-progress epoch records, in publication order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Number of completed checkpoints.
    pub fn completed(&self) -> u64 {
        self.records.iter().filter(|r| r.resumed.is_some()).count() as u64
    }

    /// (committed, aborted, degraded) epoch counts.
    pub fn outcome_counts(&self) -> (u64, u64, u64) {
        tally_outcomes(&self.records)
    }

    /// (committed, aborted, degraded) epoch counts for one group.
    pub fn outcome_counts_in(&self, group: GroupId) -> (u64, u64, u64) {
        tally_outcomes(self.records.iter().filter(|r| r.group == group))
    }

    /// Total notification retries across all epochs.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.retries)).sum()
    }

    /// True if no checkpoint round is mid-flight in any group.
    pub fn idle(&self) -> bool {
        self.pending.values().all(|r| r.await_done.is_empty())
    }

    /// True if `group` has no round in flight.
    pub fn idle_in(&self, group: GroupId) -> bool {
        self.pending
            .get(&group)
            .map(|r| r.await_done.is_empty())
            .unwrap_or(true)
    }

    fn record(&self, epoch: u64) -> Option<&EpochRecord> {
        self.records.iter().rev().find(|r| r.epoch == epoch)
    }

    fn record_mut(&mut self, epoch: u64) -> Option<&mut EpochRecord> {
        self.records.iter_mut().rev().find(|r| r.epoch == epoch)
    }

    fn publish(&mut self, ctx: &mut Ctx<'_>, group: GroupId, msg: BusMsg) {
        for &(m, g) in &self.members {
            if g == group {
                // A member with a broken incremental chain (rejoined
                // after eviction) gets its notification upgraded to a
                // full capture; other message kinds pass through.
                let msg = if self.force_full.contains(&m) { msg.with_full() } else { msg };
                let frame = Frame::new(self.addr, m, BUS_MSG_BYTES, msg);
                ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
            }
        }
    }

    /// Publishes `msg` once plus `resume_repeats` extra copies: each copy
    /// sees an independent loss draw on a faulty LAN.
    fn publish_repeated(&mut self, ctx: &mut Ctx<'_>, group: GroupId, msg: BusMsg) {
        for _ in 0..=self.policy.resume_repeats {
            self.publish(ctx, group, msg);
        }
    }

    /// Triggers one checkpoint round for the default group.
    pub fn trigger(&mut self, ctx: &mut Ctx<'_>) {
        self.trigger_in(ctx, GroupId::DEFAULT);
    }

    /// Triggers one checkpoint round for `group`.
    ///
    /// # Panics
    ///
    /// Panics if that group has a round in flight or no members.
    pub fn trigger_in(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        self.trigger_round(ctx, group, false);
    }

    /// Triggers a round for `group` whose resume is withheld at the
    /// barrier — the system stays suspended until [`Coordinator::release_resume_in`]
    /// (stateful swap-out §5, time travel §6).
    ///
    /// # Panics
    ///
    /// Panics if that group has a round in flight or no members.
    pub fn suspend_in(&mut self, ctx: &mut Ctx<'_>, group: GroupId) {
        self.trigger_round(ctx, group, true);
    }

    /// [`Coordinator::suspend_in`] for the default group.
    pub fn suspend(&mut self, ctx: &mut Ctx<'_>) {
        self.suspend_in(ctx, GroupId::DEFAULT);
    }

    fn trigger_round(&mut self, ctx: &mut Ctx<'_>, group: GroupId, hold: bool) {
        assert!(!self.crashed, "trigger on a crashed coordinator");
        assert!(self.idle_in(group), "checkpoint round already in flight");
        // In address order, so seeded traces and the WAL are byte-stable.
        let mut sorted: Vec<NodeAddr> = self
            .members
            .iter()
            .filter(|&&(_, g)| g == group)
            .map(|&(n, _)| n)
            .collect();
        sorted.sort_by_key(|a| a.0);
        assert!(!sorted.is_empty(), "no subscribed nodes in group");
        let epoch = self.epoch + 1;
        let trace = TraceCtx::for_round(group.0, epoch);
        let msg = match self.mode {
            TriggerMode::Scheduled { lead } => BusMsg::CheckpointAt {
                epoch,
                at_clock_ns: self.clock.read_ns(ctx.now()) + lead.as_nanos() as f64,
                full: false,
                trace,
            },
            TriggerMode::EventDriven => BusMsg::CheckpointNow { epoch, full: false, trace },
        };
        let t = self.tele(ctx);
        let span = ctx.telemetry().span_enter(t.epoch_span, ctx.now());
        let e = epoch as i64;
        ctx.telemetry().trace_begin(t.track, t.ev_epoch, ctx.now(), e);
        ctx.telemetry().trace_instant(t.track, t.ev_notify, ctx.now(), e);
        ctx.telemetry()
            .flow_start(t.track, t.ev_flow_notify, ctx.now(), trace);
        // Per-node join instants for the shadow checker.
        for n in &sorted {
            self.shadow_instant(ctx, |t| t.ev_s_join, group, epoch, n.0);
        }
        let forced_full = sorted.iter().filter(|n| self.force_full.contains(n));
        let forced_full = forced_full.map(|n| n.0).collect();
        self.log(WalRecord::RoundOpen {
            at_ns: ctx.now().as_nanos(),
            group: group.0,
            epoch,
            hold,
            notify_at_clock_ns: match msg {
                BusMsg::CheckpointAt { at_clock_ns, .. } => Some(at_clock_ns),
                _ => None,
            },
            participants: sorted.iter().map(|n| n.0).collect(),
            forced_full,
            trace: (trace.trace_id, trace.span_id),
        });
        if let Some(round) = self.pending.get_mut(&group) {
            round.span = Some(span);
        }
        if self.maybe_crash(ctx, buggify_points::COORD_CRASH_PRE_NOTIFY) {
            return; // Round durable, notification never left the process.
        }
        self.publish(ctx, group, msg);
        let gen = self.gen;
        ctx.post_self(
            self.policy.ack_timeout,
            CoordMsg::AckTimeout { group, epoch, attempt: 1, gen },
        );
        let deadline = if hold {
            SUSPEND_DEADLINE
        } else {
            self.policy.epoch_deadline
        };
        ctx.post_self(deadline, CoordMsg::EpochDeadline { group, epoch, gen });
    }

    /// Starts periodic checkpointing of the default group.
    pub fn start_periodic(&mut self, ctx: &mut Ctx<'_>, interval: SimDuration) {
        self.start_periodic_in(ctx, GroupId::DEFAULT, interval);
    }

    /// Starts (or retargets) periodic checkpointing of `group`. An
    /// already-running schedule keeps its timer and switches groups.
    pub fn start_periodic_in(&mut self, ctx: &mut Ctx<'_>, group: GroupId, interval: SimDuration) {
        let running = self.periodic.is_some();
        self.periodic = Some((group, interval));
        if !running {
            ctx.post_self(interval, CoordMsg::PeriodicKick { gen: self.gen });
        }
    }

    /// Stops periodic checkpointing after the current round.
    pub fn stop_periodic(&mut self) {
        self.periodic = None;
    }

    /// Records the notify→all-acks latency sample once a logged ack has
    /// emptied `group`'s ack set. The caller saw the acking node in the
    /// set before logging, so an empty set now means this record
    /// completed it.
    fn mark_all_acked(&mut self, ctx: &mut Ctx<'_>, group: GroupId, epoch: u64) {
        if !self.pending.get(&group).is_some_and(|r| r.await_ack.is_empty()) {
            return;
        }
        let Some(latency) = self.record(epoch).and_then(EpochRecord::notify_to_acks) else {
            return;
        };
        let t = self.tele(ctx);
        ctx.telemetry().record_duration(t.notify_to_acks, latency);
        ctx.telemetry()
            .trace_instant(t.track, t.ev_all_acked, ctx.now(), epoch as i64);
    }

    /// For a report from `node` about `epoch`: the node's group, and
    /// whether that group's open round still awaits the node's ack and
    /// its done report. `None` when the node is not subscribed or the
    /// open round is not `epoch`'s.
    fn awaited(&self, epoch: u64, node: NodeAddr) -> Option<(GroupId, bool, bool)> {
        let group = self.group_of(node)?;
        let round = self.pending.get(&group).filter(|r| r.epoch == epoch)?;
        Some((group, round.await_ack.contains(&node), round.await_done.contains(&node)))
    }

    fn on_notify_ack(&mut self, ctx: &mut Ctx<'_>, epoch: u64, node: NodeAddr) {
        let Some((group, true, _)) = self.awaited(epoch, node) else {
            return; // Stale (e.g. for a retried, already-aborted round) or repeated.
        };
        self.shadow_instant(ctx, |t| t.ev_s_ack, group, epoch, node.0);
        let at_ns = ctx.now().as_nanos();
        self.log(WalRecord::Ack { at_ns, group: group.0, epoch, node: node.0 });
        self.mark_all_acked(ctx, group, epoch);
        self.maybe_crash(ctx, buggify_points::COORD_CRASH_MID_ACKS);
    }

    fn on_node_done(&mut self, ctx: &mut Ctx<'_>, epoch: u64, node: NodeAddr, image_bytes: u64) {
        // Unsubscribed mid-round (swap-out), or a stale report.
        let Some((group, unacked, undone)) = self.awaited(epoch, node) else {
            return;
        };
        let at_ns = ctx.now().as_nanos();
        if !undone {
            // Duplicate report (don't double-count bytes) or an excluded
            // node surfacing late; the implicit ack still counts.
            if unacked {
                self.log(WalRecord::Ack { at_ns, group: group.0, epoch, node: node.0 });
                self.mark_all_acked(ctx, group, epoch);
            }
            return;
        }
        let t = self.tele(ctx);
        ctx.telemetry().add(t.captured_bytes, image_bytes);
        self.shadow_instant(ctx, |t| t.ev_s_done, group, epoch, node.0);
        self.log(WalRecord::Done { at_ns, group: group.0, epoch, node: node.0, image_bytes });
        // A done report is an implicit ack.
        if unacked {
            self.mark_all_acked(ctx, group, epoch);
        }
        if self.barrier_complete_in(group) {
            self.complete_barrier(ctx, group, epoch);
        } else {
            self.maybe_crash(ctx, buggify_points::COORD_CRASH_MID_ACKS);
        }
    }

    /// Finishes a round whose `await_done` just emptied: records the
    /// outcome and publishes the resume (unless held).
    fn complete_barrier(&mut self, ctx: &mut Ctx<'_>, group: GroupId, epoch: u64) {
        if self.maybe_crash(ctx, buggify_points::COORD_CRASH_PRE_RESUME) {
            return; // Barrier complete, commit not durable: recovery rolls forward.
        }
        let round = &self.pending[&group];
        let (excluded, hold) = (round.excluded.len() as u32, round.hold);
        // A forced-full participant whose capture commits now has a fresh
        // full image: its incremental chain is whole again.
        let healed = round.forced_full.iter().filter(|n| !round.excluded.contains(n));
        let mut healed: Vec<u32> = healed.map(|n| n.0).collect();
        healed.sort_unstable();
        let mut expelled: Vec<u32> = round.excluded.iter().map(|n| n.0).collect();
        expelled.sort_unstable();
        let outcome = if excluded == 0 {
            EpochOutcome::Committed
        } else {
            EpochOutcome::Degraded
        };
        let now = ctx.now();
        let at_ns = now.as_nanos();
        let t = self.tele(ctx);
        match outcome {
            EpochOutcome::Committed => ctx.telemetry().inc(t.committed),
            EpochOutcome::Degraded => ctx.telemetry().inc(t.degraded),
            EpochOutcome::Aborted => unreachable!("barrier completion cannot abort"),
        }
        ctx.telemetry().add(t.excluded, u64::from(excluded));
        let trace = TraceCtx::for_round(group.0, epoch);
        ctx.telemetry()
            .trace_instant(t.track, t.ev_barrier, now, epoch as i64);
        ctx.telemetry()
            .flow_step(t.track, t.ev_flow_barrier, now, trace);
        self.shadow_instant(ctx, |t| t.ev_s_commit, group, epoch, excluded);
        self.log(WalRecord::Commit { at_ns, group: group.0, epoch, excluded });
        for node in healed {
            self.log(WalRecord::ForceFullHealed { at_ns, node });
        }
        // Under the eviction policy, degraded commits expel the presumed
        // corpses from membership so later epochs barrier on survivors.
        if self.policy.evict_excluded {
            for node in expelled {
                self.log(WalRecord::Evict { at_ns, group: group.0, node });
            }
        }
        if hold {
            return; // Span and barrier-hold sample close at release time.
        }
        if self.maybe_crash(ctx, buggify_points::COORD_CRASH_POST_COMMIT) {
            return; // Commit durable, resume never published: recovery releases.
        }
        let span = self.pending.get_mut(&group).and_then(|r| r.span.take());
        ctx.telemetry().record_duration(t.barrier_hold, SimDuration::ZERO);
        if let Some(span) = span {
            ctx.telemetry().span_exit(span, now);
        }
        ctx.telemetry()
            .flow_end(t.track, t.ev_flow_resume, now, trace);
        ctx.telemetry()
            .trace_end(t.track, t.ev_epoch, now, epoch as i64);
        self.shadow_instant(ctx, |t| t.ev_s_resume, group, epoch, 0);
        self.log(WalRecord::Resume { at_ns, group: group.0, epoch });
        self.publish_repeated(ctx, group, BusMsg::Resume { epoch, trace });
    }

    fn on_ack_timeout(&mut self, ctx: &mut Ctx<'_>, group: GroupId, epoch: u64, attempt: u32) {
        if attempt > self.policy.max_notify_retries {
            return;
        }
        let Some(round) = self.pending.get(&group) else {
            return;
        };
        if round.epoch != epoch || round.await_ack.is_empty() {
            return;
        }
        let notify = round.notify;
        // Deterministic retry order: HashSet iteration order is not.
        let mut targets: Vec<NodeAddr> = round.await_ack.iter().copied().collect();
        targets.sort_by_key(|a| a.0);
        self.log(WalRecord::Retry { at_ns: ctx.now().as_nanos(), group: group.0, epoch });
        let t = self.tele(ctx);
        ctx.telemetry().inc(t.retries);
        for m in targets {
            let msg = if self.force_full.contains(&m) { notify.with_full() } else { notify };
            let frame = Frame::new(self.addr, m, BUS_MSG_BYTES, msg);
            ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
        }
        let mut backoff =
            SimDuration::from_nanos(self.policy.ack_timeout.as_nanos() << attempt.min(16));
        let bg = ctx.buggify().clone();
        if buggify!(bg, buggify_points::COORD_RETRY_SKEW) {
            // A late failure-detector timer: the retry round slips by up
            // to one extra base timeout.
            backoff += SimDuration::from_nanos(bg.magnitude(
                    buggify_points::COORD_RETRY_SKEW,
                    0,
                    self.policy.ack_timeout.as_nanos().max(2),
                ));
        }
        ctx.post_self(
            backoff,
            CoordMsg::AckTimeout { group, epoch, attempt: attempt + 1, gen: self.gen },
        );
    }

    fn on_epoch_deadline(&mut self, ctx: &mut Ctx<'_>, group: GroupId, epoch: u64) {
        let Some(round) = self.pending.get(&group) else {
            return;
        };
        if round.epoch != epoch || round.await_done.is_empty() {
            return; // Round already finished (possibly held at the barrier).
        }
        // Degrade only when every missing node never acked (presumed
        // crashed) and at least one participant completed; a missing node
        // that *did* ack is alive-but-slow, and excluding live state would
        // break global consistency — abort instead.
        let missing_never_acked = round.await_done.is_subset(&round.await_ack);
        let some_completed =
            round.await_done.len() + round.excluded.len() < round.participants.len();
        if self.policy.allow_degraded && missing_never_acked && some_completed {
            let mut missing: Vec<u32> = round.await_done.iter().map(|n| n.0).collect();
            missing.sort_unstable();
            for node in missing {
                self.shadow_instant(ctx, |t| t.ev_s_exclude, group, epoch, node);
                let at_ns = ctx.now().as_nanos();
                self.log(WalRecord::Exclude { at_ns, group: group.0, epoch, node });
            }
            self.complete_barrier(ctx, group, epoch);
        } else {
            self.abort_round(ctx, group, epoch);
        }
    }

    /// Aborts `group`'s in-flight round: participants roll back their
    /// local checkpoint sequence and resume as if the epoch had never
    /// been triggered. Shared by the deadline path and WAL recovery.
    fn abort_round(&mut self, ctx: &mut Ctx<'_>, group: GroupId, epoch: u64) {
        let span = self.pending.get_mut(&group).and_then(|r| r.span.take());
        let t = self.tele(ctx);
        ctx.telemetry().inc(t.aborted);
        if let Some(span) = span {
            // No duration sample for an epoch that never resumed.
            ctx.telemetry().span_discard(span);
        }
        let now = ctx.now();
        ctx.telemetry()
            .trace_instant(t.track, t.ev_abandoned, now, epoch as i64);
        ctx.telemetry()
            .trace_end(t.track, t.ev_epoch, now, epoch as i64);
        self.shadow_instant(ctx, |t| t.ev_s_abort, group, epoch, 0);
        self.log(WalRecord::Abort { at_ns: now.as_nanos(), group: group.0, epoch });
        // Aborted rounds deliberately leave their causal flow without a
        // FlowEnd: an unterminated flow in the export *is* the signal
        // that the round never resumed.
        let trace = TraceCtx::for_round(group.0, epoch);
        self.publish_repeated(ctx, group, BusMsg::Abort { epoch, trace });
    }

    /// Re-admits a previously evicted (crashed, now recovered) node: it
    /// rejoins its old group's bus subscription, and its next checkpoint
    /// notification is upgraded to demand a **full** capture — the
    /// node's incremental chain broke while it was excluded, so an
    /// incremental image would checkpoint against a base the store never
    /// committed for it. Returns false if the node was never evicted.
    pub fn rejoin(&mut self, ctx: &mut Ctx<'_>, node: NodeAddr) -> bool {
        let Some(&(_, group)) = self.evicted.iter().find(|&&(n, _)| n == node) else {
            return false;
        };
        let epoch = self.epoch;
        self.shadow_instant(ctx, |t| t.ev_s_rejoin, group, epoch, node.0);
        self.log(WalRecord::Rejoin { at_ns: ctx.now().as_nanos(), group: group.0, node: node.0 });
        true
    }

    /// Nodes currently evicted from their groups, in eviction order.
    pub fn evicted(&self) -> &[(NodeAddr, GroupId)] {
        &self.evicted
    }

    /// True while `node`'s next notification will demand a full capture.
    pub fn full_capture_pending(&self, node: NodeAddr) -> bool {
        self.force_full.contains(&node)
    }

    /// True while the coordinator process is down.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Process crashes injected so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }

    /// Restarts that replayed the WAL so far.
    pub fn recovery_count(&self) -> u64 {
        self.recoveries
    }

    /// The durable epoch WAL. It outlives a [`Coordinator::crash`];
    /// clone the handle to read or rewrite the log from outside.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Evaluates one coordinator-crash buggify point. Returns true when
    /// the process crashed; the caller must stop touching round state.
    /// Crash points never re-enter during recovery itself.
    fn maybe_crash(&mut self, ctx: &mut Ctx<'_>, point: &'static str) -> bool {
        if self.recovering {
            return false;
        }
        let bg = ctx.buggify().clone();
        if !buggify!(bg, point) {
            return false;
        }
        // 5 ms – 400 ms of control-plane downtime: long enough for acks,
        // dones and deadline timers of the dead incarnation to pile up,
        // short enough that suspended guests survive to be released.
        let downtime =
            SimDuration::from_nanos(bg.magnitude(point, 5_000_000, 400_000_000));
        self.crash(ctx, downtime);
        true
    }

    /// Crashes the coordinator process for `downtime`: all volatile
    /// protocol state is lost (the WAL is not), every message — bus
    /// traffic, NTP requests, timers of the dead incarnation — is
    /// dropped until the restart, then the recovery path replays
    /// the log. No-op if already down.
    pub fn crash(&mut self, ctx: &mut Ctx<'_>, downtime: SimDuration) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.gen += 1;
        self.crashes += 1;
        // Volatile state dies with the process: open rounds, epoch
        // records, the epoch counter. Telemetry spans of in-flight
        // epochs are discarded (their trace rows re-terminate when
        // recovery classifies them).
        let mut groups: Vec<GroupId> = self.pending.keys().copied().collect();
        groups.sort_by_key(|g| g.0);
        for g in groups {
            if let Some(span) = self.pending.remove(&g).and_then(|r| r.span) {
                ctx.telemetry().span_discard(span);
            }
        }
        self.records.clear();
        self.epoch = 0;
        // The roster is experiment configuration — the testbed database
        // survives the process — while eviction and force-full deltas
        // are protocol state that re-derives from the WAL at recovery.
        for (n, g) in std::mem::take(&mut self.evicted) {
            self.subscribe_in(n, g);
        }
        self.force_full.clear();
        let t = self.tele(ctx);
        ctx.telemetry().inc(t.crashes);
        ctx.telemetry()
            .trace_instant(t.track, t.ev_crash, ctx.now(), downtime.as_nanos() as i64);
        ctx.post_self(downtime, CoordMsg::Restart { gen: self.gen });
    }

    /// Restart path: replays the WAL through `apply`, which rebuilds the
    /// records, the open rounds and the membership deltas, then
    /// classifies each round left open at the crash — committed-but-
    /// unresumed rounds release their barrier, rounds whose barrier had
    /// silently completed roll forward and commit, everything else
    /// aborts (conservatively force-fulling any node that had already
    /// captured, since its incremental chain now spans a rolled-back
    /// epoch).
    fn recover(&mut self, ctx: &mut Ctx<'_>) {
        self.crashed = false;
        self.recovering = true;
        self.recoveries += 1;
        let t = self.tele(ctx);
        ctx.telemetry().inc(t.recoveries);
        for rec in self.wal.replay() {
            self.apply(&rec);
        }

        // Classify every round the crash left open, in group order so
        // recovery traffic is byte-stable across same-seed runs.
        let mut groups: Vec<GroupId> = self.pending.keys().copied().collect();
        groups.sort_by_key(|g| g.0);
        let now = ctx.now();
        for group in groups {
            let r = &self.pending[&group];
            let (epoch, hold) = (r.epoch, r.hold);
            // The participants that captured, in address order.
            let done: Vec<u32> = r
                .participants
                .iter()
                .filter(|n| !r.await_done.contains(n) && !r.excluded.contains(n))
                .map(|n| n.0)
                .collect();
            let barrier_complete = r.await_done.is_empty();
            let mid_flight = r.await_ack.len() < r.participants.len();
            // An open round's outcome can only be a commit: an abort
            // closes the round.
            let committed = self.record(epoch).is_some_and(|rec| rec.outcome.is_some());
            if committed {
                // The decision is durable; only the release was lost.
                self.shadow_instant(ctx, |t| t.ev_s_recover, group, epoch, recover_code::RELEASE);
                if !hold {
                    self.release_resume_in(ctx, group);
                }
                // A held committed round stays pending: the testbed
                // releases it through the normal barrier API.
            } else if barrier_complete && !done.is_empty() {
                // Every participant reported (or was excluded) before the
                // crash: the checkpoint exists in full, so roll forward.
                self.shadow_instant(
                    ctx,
                    |t| t.ev_s_recover,
                    group,
                    epoch,
                    recover_code::ROLL_FORWARD,
                );
                self.complete_barrier(ctx, group, epoch);
            } else if !mid_flight {
                // Nothing ever happened: plain abort (nodes that got the
                // notification are released by the Abort publication).
                self.shadow_instant(ctx, |t| t.ev_s_recover, group, epoch, recover_code::ABORT);
                self.abort_round(ctx, group, epoch);
            } else {
                // Mid-flight: some nodes captured, some did not. Abort,
                // and force the capturers' next checkpoint to be full —
                // their rollback leaves the incremental chain spanning an
                // epoch the store never committed.
                self.shadow_instant(
                    ctx,
                    |t| t.ev_s_recover,
                    group,
                    epoch,
                    recover_code::ABORT_FORCE_FULL,
                );
                for node in done {
                    self.log(WalRecord::ForceFull { at_ns: now.as_nanos(), node });
                }
                self.abort_round(ctx, group, epoch);
            }
        }
        // Timers of the dead incarnation are gen-stale; re-arm the
        // periodic trigger under the new generation.
        if let Some((_, interval)) = self.periodic {
            ctx.post_self(interval, CoordMsg::PeriodicKick { gen: self.gen });
        }
        self.recovering = false;
    }
}

// The scale lab runs the coordinator on a shard of the sharded engine,
// which takes only `Send` components.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Coordinator>();
};

impl Component for Coordinator {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        if self.crashed {
            // A dead process answers nothing — not even NTP. The only
            // event that reaches it is its own restart; everything else
            // (bus traffic, stale timers) is silently dropped, exactly
            // like frames to a powered-off ops node.
            if let Ok(CoordMsg::Restart { gen }) = payload.downcast::<CoordMsg>() {
                if gen == self.gen {
                    self.recover(ctx);
                }
            }
            return;
        }
        let payload = match payload.downcast::<LinkDeliver>() {
            Ok(del) => {
                if let Some(req) = del.frame.payload::<NtpRequest>() {
                    let t = self.clock.read_ns(ctx.now());
                    let resp = self.ntp.respond(*req, t, t);
                    let frame = Frame::new(self.addr, del.frame.src, 90, resp);
                    ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
                } else if let Some(&msg) = del.frame.payload::<BusMsg>() {
                    match msg {
                        BusMsg::NotifyAck { epoch, .. } => {
                            self.on_notify_ack(ctx, epoch, del.frame.src);
                        }
                        BusMsg::NodeDone { epoch, image_bytes, .. } => {
                            self.on_node_done(ctx, epoch, del.frame.src, image_bytes);
                        }
                        BusMsg::RequestCheckpoint => {
                            // Event-driven trigger from a node: checkpoint
                            // its whole group now (if idle).
                            if let Some(group) = self.group_of(del.frame.src) {
                                if self.idle_in(group) {
                                    let saved = self.mode;
                                    self.mode = TriggerMode::EventDriven;
                                    self.trigger_in(ctx, group);
                                    self.mode = saved;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                return;
            }
            Err(p) => p,
        };
        if let Ok(msg) = payload.downcast::<CoordMsg>() {
            match msg {
                CoordMsg::PeriodicKick { gen } => {
                    if gen != self.gen {
                        return; // A dead incarnation's tick; recovery re-armed its own.
                    }
                    if let Some((group, interval)) = self.periodic {
                        if self.idle_in(group) {
                            self.trigger_in(ctx, group);
                        }
                        let mut next = interval;
                        let bg = ctx.buggify().clone();
                        if buggify!(bg, buggify_points::COORD_KICK_SKEW) {
                            // The scheduler tick drifts: up to half an
                            // interval of extra cadence jitter.
                            next += SimDuration::from_nanos(bg.magnitude(
                                    buggify_points::COORD_KICK_SKEW,
                                    0,
                                    (interval.as_nanos() / 2).max(2),
                                ));
                        }
                        ctx.post_self(next, CoordMsg::PeriodicKick { gen: self.gen });
                    }
                }
                CoordMsg::AckTimeout { group, epoch, attempt, gen } => {
                    if gen == self.gen {
                        self.on_ack_timeout(ctx, group, epoch, attempt);
                    }
                }
                CoordMsg::EpochDeadline { group, epoch, gen } => {
                    if gen == self.gen {
                        self.on_epoch_deadline(ctx, group, epoch);
                    }
                }
                CoordMsg::Restart { .. } => {
                    // Already recovered (or never crashed): stale restart.
                }
            }
        }
    }

    sim::component_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{profile, ControlLan, Frame, LanTransmit};
    use sim::{Component, Engine, FaultPlan};

    /// A fake node agent: records notifications, reports done after a
    /// fixed local delay; optionally acks notifications explicitly.
    struct FakeNode {
        addr: NodeAddr,
        lan: ComponentId,
        coord_addr: NodeAddr,
        capture_ms: u64,
        ack: bool,
        pub notified: u64,
        /// Notifications that demanded a full (non-incremental) capture.
        pub full_notified: u64,
        pub resumed: u64,
        pub aborted: u64,
    }

    struct CaptureDone {
        epoch: u64,
        trace: TraceCtx,
    }

    impl Component for FakeNode {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let payload = match payload.downcast::<hwsim::LinkDeliver>() {
                Ok(del) => {
                    if let Some(&msg) = del.frame.payload::<BusMsg>() {
                        match msg {
                            BusMsg::CheckpointAt { epoch, full, trace, .. }
                            | BusMsg::CheckpointNow { epoch, full, trace } => {
                                self.notified += 1;
                                if full {
                                    self.full_notified += 1;
                                }
                                if self.ack {
                                    let frame = Frame::new(
                                        self.addr,
                                        self.coord_addr,
                                        BUS_MSG_BYTES,
                                        BusMsg::NotifyAck { epoch, trace },
                                    );
                                    ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
                                }
                                ctx.post_self(
                                    SimDuration::from_millis(self.capture_ms),
                                    CaptureDone { epoch, trace },
                                );
                            }
                            BusMsg::Resume { .. } => self.resumed += 1,
                            BusMsg::Abort { .. } => self.aborted += 1,
                            _ => {}
                        }
                    }
                    return;
                }
                Err(p) => p,
            };
            if let Ok(done) = payload.downcast::<CaptureDone>() {
                let frame = Frame::new(
                    self.addr,
                    self.coord_addr,
                    BUS_MSG_BYTES,
                    BusMsg::NodeDone {
                        epoch: done.epoch,
                        image_bytes: 1 << 20,
                        trace: done.trace,
                    },
                );
                ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
            }
        }
        sim::component_boilerplate!();
    }

    fn rig(capture_ms: &[u64]) -> (Engine, ComponentId, Vec<ComponentId>) {
        rig_full(capture_ms, false, None)
    }

    fn rig_full(
        capture_ms: &[u64],
        ack: bool,
        policy: Option<FailurePolicy>,
    ) -> (Engine, ComponentId, Vec<ComponentId>) {
        let mut e = Engine::new(9);
        let lan = e.add_component(Box::new(ControlLan::new(
            profile::CTRL_LAN_BPS,
            profile::CTRL_LAN_LATENCY,
            profile::CTRL_LAN_JITTER,
        )));
        let coord_addr = NodeAddr(100);
        let mut b = Coordinator::builder(coord_addr, lan).mode(TriggerMode::EventDriven);
        if let Some(policy) = policy {
            b = b.policy(policy);
        }
        let coord = e.add_component(Box::new(b.build()));
        let mut nodes = Vec::new();
        for (i, &ms) in capture_ms.iter().enumerate() {
            let addr = NodeAddr(i as u32 + 1);
            let n = e.add_component(Box::new(FakeNode {
                addr,
                lan,
                coord_addr,
                capture_ms: ms,
                ack,
                notified: 0,
                full_notified: 0,
                resumed: 0,
                aborted: 0,
            }));
            e.with_component::<ControlLan, _>(lan, |l, _| {
                l.attach(addr, hwsim::Endpoint { component: n, iface: hwsim::IfaceId::CONTROL });
            });
            e.with_component::<Coordinator, _>(coord, |c, _| c.subscribe(addr));
            nodes.push(n);
        }
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.attach(coord_addr, hwsim::Endpoint { component: coord, iface: hwsim::IfaceId::CONTROL });
        });
        (e, coord, nodes)
    }

    /// Replays `coord`'s WAL into a fresh coordinator over the live
    /// roster plus the evicted nodes, and checks that it rebuilds the
    /// live protocol state field by field.
    fn assert_replay_matches(e: &Engine, coord: ComponentId) {
        let live = e.component_ref::<Coordinator>(coord).unwrap();
        assert!(!live.is_crashed(), "a crashed coordinator holds no state");
        let mut fresh = Coordinator::builder(live.addr, live.lan).build();
        for &(n, g) in live.members.iter().chain(&live.evicted) {
            fresh.subscribe_in(n, g);
        }
        for rec in live.wal.replay() {
            fresh.apply(&rec);
        }
        assert_eq!(format!("{:?}", fresh.records), format!("{:?}", live.records));
        assert_eq!(fresh.evicted, live.evicted);
        assert_eq!(fresh.force_full, live.force_full);
        assert_eq!(fresh.epoch, live.epoch);
        let groups = |c: &Coordinator| {
            let mut g: Vec<u32> = c.pending.keys().map(|g| g.0).collect();
            g.sort_unstable();
            g
        };
        assert_eq!(groups(&fresh), groups(live));
        for (g, l) in &live.pending {
            let f = &fresh.pending[g];
            assert_eq!(
                (f.epoch, f.notify, &f.await_ack, &f.await_done, &f.excluded),
                (l.epoch, l.notify, &l.await_ack, &l.await_done, &l.excluded),
                "group {}",
                g.0
            );
            assert_eq!(
                (&f.forced_full, &f.participants, f.hold),
                (&l.forced_full, &l.participants, l.hold),
                "group {}",
                g.0
            );
        }
    }

    #[test]
    fn barrier_waits_for_the_slowest_node() {
        let (mut e, coord, nodes) = rig(&[5, 50, 20]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        // After 30 ms: two nodes done, barrier incomplete, no resume.
        e.run_for(SimDuration::from_millis(30));
        assert!(!e.component_ref::<Coordinator>(coord).unwrap().barrier_complete());
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 0);
        }
        // After the slowest (50 ms) reports: everyone resumes.
        e.run_for(SimDuration::from_millis(40));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.completed(), 1);
        assert_eq!(
            c.records()[0].captured_bytes,
            3 << 20,
            "each node reports 1 MiB of captured image"
        );
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Committed));
        assert!(c.records()[0].notify_to_acks().is_some(), "implicit acks recorded");
        assert_eq!(
            c.records()[0].barrier_hold(),
            Some(SimDuration::ZERO),
            "resume published at barrier completion when not held"
        );
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 1);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn resubscribed_member_is_found_again_and_only_once() {
        let (mut e, coord, nodes) = rig(&[5, 5, 5]);
        e.with_component::<Coordinator, _>(coord, |c, _| {
            c.unsubscribe(NodeAddr(2));
            c.unsubscribe(NodeAddr(1));
            c.subscribe(NodeAddr(2));
            c.subscribe(NodeAddr(2)); // Already a member: no-op.
        });
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(100));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Committed));
        assert_eq!(c.records()[0].captured_bytes, 2 << 20, "nodes 2 and 3, once each");
        let notified: Vec<u64> =
            nodes.iter().map(|&n| e.component_ref::<FakeNode>(n).unwrap().notified).collect();
        assert_eq!(notified, [0, 1, 1]);
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn hold_resume_blocks_until_released() {
        let (mut e, coord, nodes) = rig(&[5, 10]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.suspend(ctx));
        e.run_for(SimDuration::from_millis(100));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert!(c.barrier_complete());
        assert_eq!(c.completed(), 0, "resume withheld");
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.release_resume(ctx));
        e.run_for(SimDuration::from_millis(10));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert!(c.records()[0].barrier_hold().unwrap() >= SimDuration::from_millis(50));
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 1);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn held_round_outlives_the_epoch_deadline() {
        // Regression (tab_swap): a suspend round under disk-intensive
        // load — the frozen guest's in-flight I/O drain pushes the local
        // capture far past the 2 s epoch deadline — must NOT be
        // deadline-aborted. Held rounds run against the much longer
        // suspend deadline; only the resume-path deadline is tight.
        let (mut e, coord, nodes) = rig(&[3_000, 5]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.suspend(ctx));
        e.run_for(SimDuration::from_secs(4));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert!(
            c.barrier_complete(),
            "slow capture must still reach the barrier (outcomes {:?})",
            c.outcome_counts()
        );
        assert_eq!(c.outcome_counts().1, 0, "no deadline abort on a held round");
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.release_resume(ctx));
        e.run_for(SimDuration::from_millis(10));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Committed));
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 1);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn periodic_mode_keeps_triggering() {
        let (mut e, coord, nodes) = rig(&[5, 5]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.start_periodic(ctx, SimDuration::from_millis(200))
        });
        e.run_for(SimDuration::from_millis(1100));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert!(c.completed() >= 4, "completed {}", c.completed());
        e.with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
        let before = e.component_ref::<Coordinator>(coord).unwrap().completed();
        e.run_for(SimDuration::from_millis(600));
        assert_eq!(
            e.component_ref::<Coordinator>(coord).unwrap().completed(),
            before,
            "kept triggering after stop"
        );
        let _ = nodes;
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn request_checkpoint_from_a_node_triggers_a_round() {
        let (mut e, coord, nodes) = rig(&[5, 5]);
        // A node publishes RequestCheckpoint on the bus.
        let lan = {
            // Reach into the rig: the LAN is component 0 by construction.
            sim::ComponentId(0)
        };
        e.post(
            lan,
            SimDuration::from_millis(1),
            LanTransmit {
                frame: Frame::new(NodeAddr(1), NodeAddr(100), BUS_MSG_BYTES, BusMsg::RequestCheckpoint),
            },
        );
        e.run_for(SimDuration::from_millis(100));
        assert_eq!(e.component_ref::<Coordinator>(coord).unwrap().completed(), 1);
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().notified, 1);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn lost_notifications_are_retried_until_acked() {
        let (mut e, coord, nodes) = rig(&[5, 5]);
        let lan = sim::ComponentId(0);
        // Total loss at first: the initial notification and the 25 ms
        // retry both vanish (draw-free at p=1, so swapping plans below
        // cannot shift any rng stream).
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.inject_faults(FaultPlan::new(1).with_loss(1.0));
        });
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(60));
        assert_eq!(
            e.component_ref::<Coordinator>(coord).unwrap().completed(),
            0,
            "nothing can complete while the LAN eats every frame"
        );
        // Heal the LAN: the next backoff retry (75 ms) gets through.
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.inject_faults(FaultPlan::new(1));
        });
        e.run_for(SimDuration::from_millis(200));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.completed(), 1);
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Committed));
        assert!(c.records()[0].retries >= 2, "retries {}", c.records()[0].retries);
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 1);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn crashed_node_degrades_the_epoch() {
        let (mut e, coord, nodes) = rig_full(
            &[5, 5, 5],
            false,
            Some(FailurePolicy {
                ack_timeout: SimDuration::from_millis(10),
                epoch_deadline: SimDuration::from_millis(100),
                ..FailurePolicy::default()
            }),
        );
        let lan = sim::ComponentId(0);
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.inject_faults(FaultPlan::new(2).with_crash(2, SimTime::ZERO));
        });
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(200));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Degraded));
        assert_eq!(c.records()[0].excluded, 1);
        assert!(c.records()[0].retries >= 1, "crashed node was re-notified");
        assert_eq!(c.completed(), 1, "degraded epochs still resume");
        assert_eq!(c.outcome_counts(), (0, 0, 1));
        assert_eq!(e.component_ref::<FakeNode>(nodes[0]).unwrap().resumed, 1);
        assert_eq!(e.component_ref::<FakeNode>(nodes[1]).unwrap().resumed, 0, "crashed");
        assert_eq!(e.component_ref::<FakeNode>(nodes[2]).unwrap().resumed, 1);
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn unacked_straggler_aborts_when_degraded_commits_are_disallowed() {
        let (mut e, coord, nodes) = rig_full(
            &[5, 400],
            false,
            Some(FailurePolicy {
                epoch_deadline: SimDuration::from_millis(100),
                allow_degraded: false,
                ..FailurePolicy::default()
            }),
        );
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(600));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Aborted));
        assert_eq!(c.completed(), 0);
        assert!(c.idle(), "aborted round fully cleared");
        assert_eq!(e.component_ref::<FakeNode>(nodes[0]).unwrap().aborted, 1);
        for &n in &nodes {
            assert_eq!(e.component_ref::<FakeNode>(n).unwrap().resumed, 0);
        }
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn acked_straggler_forces_abort_not_degrade() {
        // The slow node acks (it is alive): excluding it would discard
        // live state, so the epoch must abort even though degraded commits
        // are allowed.
        let (mut e, coord, nodes) = rig_full(
            &[5, 400],
            true,
            Some(FailurePolicy {
                epoch_deadline: SimDuration::from_millis(100),
                allow_degraded: true,
                ..FailurePolicy::default()
            }),
        );
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(600));
        let c = e.component_ref::<Coordinator>(coord).unwrap();
        assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Aborted));
        assert!(
            c.records()[0].notify_to_acks().unwrap() < SimDuration::from_millis(5),
            "both nodes acked promptly"
        );
        assert_eq!(c.outcome_counts(), (0, 1, 0));
        let _ = nodes;
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn evicted_node_rejoins_with_a_forced_full_capture() {
        // Crash → degraded commit evicts the corpse → survivors commit
        // cleanly without retrying it → the node recovers, rejoins, and
        // its next notification demands a full capture; once that epoch
        // commits the chain is healed and notifications go incremental
        // again. The shadow checker replays the whole run and must find
        // nothing wrong.
        let (mut e, coord, nodes) = rig_full(
            &[5, 5, 5],
            false,
            Some(FailurePolicy {
                ack_timeout: SimDuration::from_millis(10),
                epoch_deadline: SimDuration::from_millis(100),
                evict_excluded: true,
                ..FailurePolicy::default()
            }),
        );
        let lan = sim::ComponentId(0);
        let crashed = NodeAddr(2);
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.inject_faults(FaultPlan::new(2).with_crash(crashed.0, SimTime::ZERO));
        });

        // Epoch 1: degraded, the corpse is expelled.
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(200));
        {
            let c = e.component_ref::<Coordinator>(coord).unwrap();
            assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Degraded));
            assert_eq!(c.evicted(), &[(crashed, GroupId(0))]);
        }

        // Epoch 2: the survivors barrier cleanly — no retries against the
        // corpse, no degradation.
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(200));
        {
            let c = e.component_ref::<Coordinator>(coord).unwrap();
            assert_eq!(c.records()[1].outcome, Some(EpochOutcome::Committed));
            assert_eq!(c.records()[1].excluded, 0);
            assert_eq!(c.records()[1].retries, 0, "nobody retries a corpse");
        }

        // The node recovers (LAN heals) and is re-admitted.
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.inject_faults(FaultPlan::new(2));
        });
        e.with_component::<Coordinator, _>(coord, |c, ctx| {
            assert!(c.rejoin(ctx, crashed), "was evicted, must re-admit");
            assert!(!c.rejoin(ctx, crashed), "second rejoin is a no-op");
            assert!(c.full_capture_pending(crashed));
        });

        // Epoch 3: all three commit; exactly the rejoined node saw a
        // full-capture demand, and the commit heals its chain.
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(200));
        {
            let c = e.component_ref::<Coordinator>(coord).unwrap();
            assert_eq!(c.records()[2].outcome, Some(EpochOutcome::Committed));
            assert_eq!(c.records()[2].excluded, 0);
            assert_eq!(
                c.records()[2].captured_bytes,
                3 << 20,
                "all three nodes reported at the barrier"
            );
            assert!(!c.full_capture_pending(crashed), "commit healed the chain");
        }
        assert_eq!(e.component_ref::<FakeNode>(nodes[1]).unwrap().full_notified, 1);
        assert_eq!(e.component_ref::<FakeNode>(nodes[0]).unwrap().full_notified, 0);
        assert_eq!(e.component_ref::<FakeNode>(nodes[2]).unwrap().full_notified, 0);

        // Epoch 4: back to incremental for everyone.
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(200));
        assert_eq!(e.component_ref::<FakeNode>(nodes[1]).unwrap().full_notified, 1);

        // The shadow checker agrees with everything that happened.
        let mut shadow = crate::shadow::ShadowEpochState::new();
        for ev in e.telemetry().trace_view().iter() {
            shadow.step(&ev);
        }
        shadow.finish();
        assert!(
            shadow.violations().is_empty(),
            "shadow violations: {:?}",
            shadow.violations()
        );
        assert_eq!(shadow.epochs_checked, 4);
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn telemetry_records_epoch_lifecycle() {
        let (mut e, coord, _nodes) = rig(&[5, 10]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        e.run_for(SimDuration::from_millis(100));
        let t = e.telemetry();
        assert_eq!(t.counter_value("coordinator.epochs_committed"), Some(1));
        assert_eq!(t.counter_value("coordinator.epochs_aborted"), Some(0));
        assert_eq!(
            t.counter_value("coordinator.captured_bytes"),
            Some(2 << 20),
            "both fake nodes report 1 MiB"
        );
        let acks = t.histogram_summary("coordinator.notify_to_acks_ns").unwrap();
        assert_eq!(acks.count, 1);
        assert!(acks.max > 0.0, "implicit acks take LAN time");
        let hold = t.histogram_summary("coordinator.barrier_hold_ns").unwrap();
        assert_eq!(hold.count, 1);
        assert_eq!(hold.max, 0.0, "non-held rounds resume at the barrier");
        let span = t.span_summary("coordinator", "epoch").unwrap();
        assert_eq!(span.count, 1);
        assert!(span.min >= 10_000_000.0, "epoch spans the slowest capture");
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn telemetry_records_held_round_hold_time() {
        let (mut e, coord, _nodes) = rig(&[5, 5]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.suspend(ctx));
        e.run_for(SimDuration::from_millis(80));
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.release_resume(ctx));
        let t = e.telemetry();
        let hold = t.histogram_summary("coordinator.barrier_hold_ns").unwrap();
        assert_eq!(hold.count, 1);
        assert!(
            hold.max >= 50_000_000.0,
            "held round's barrier hold is the suspension window, got {}",
            hold.max
        );
        assert_replay_matches(&e, coord);
    }

    #[test]
    fn late_done_from_an_excluded_node_is_a_durable_ack() {
        // A held round commits degraded with the slow node excluded; its
        // done report, arriving long after, is its implicit ack. That ack
        // must reach the WAL: after a crash, the recovered record and ack
        // set equal the live ones.
        let (mut e, coord, _nodes) = rig(&[5, 200_000]);
        e.with_component::<Coordinator, _>(coord, |c, ctx| c.suspend(ctx));
        e.run_for(SimDuration::from_secs(130));
        {
            let c = e.component_ref::<Coordinator>(coord).unwrap();
            assert_eq!(c.records()[0].outcome, Some(EpochOutcome::Degraded));
            assert_eq!(c.records()[0].acked, None, "node 2 never acked");
            assert_eq!(c.pending[&GroupId::DEFAULT].excluded, HashSet::from([NodeAddr(2)]));
        }
        // Node 2's done reports land from 200 s on.
        e.run_for(SimDuration::from_secs(71));
        let state = |e: &Engine| {
            let c = e.component_ref::<Coordinator>(coord).unwrap();
            (format!("{:?}", c.records()), c.pending[&GroupId::DEFAULT].await_ack.clone())
        };
        let live = state(&e);
        assert!(live.0.contains("acked: Some("), "the late done acked: {}", live.0);
        assert!(live.1.is_empty());
        e.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.crash(ctx, SimDuration::from_millis(1));
        });
        e.run_for(SimDuration::from_millis(10));
        assert_eq!(e.component_ref::<Coordinator>(coord).unwrap().recovery_count(), 1);
        assert_eq!(state(&e), live);
        assert_replay_matches(&e, coord);
    }
}
