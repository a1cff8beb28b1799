//! The delay-node host: Dummynet shaping plus its live checkpoint (§4.4).
//!
//! A delay node is a dedicated testbed machine interposed on experiment
//! links, shaping traffic with Dummynet. Checkpointing the set of delay
//! nodes checkpoints the *network core*: all bandwidth-delay-product
//! packets live in their pipes, so endpoints never need a delay-accurate
//! replay mechanism. The paper implements this natively (no Xen) because
//! "the overhead of virtualization seems to be prohibitive for
//! implementing an accurate, high-speed delay emulation" — so this
//! component drives the `dummynet` state machine directly.

use clocksync::{NtpClient, NtpResponse};
use dummynet::{Dummynet, DummynetImage, PipeConfig, PipeId, PipeLog};
use hwsim::{Frame, HardwareClock, IfaceId, LanTransmit, LinkDeliver, NodeAddr, Wire};
use sim::buggify;
use sim::buggify::points as bg_points;
use sim::telemetry::names;
use sim::{
    transmission_time, Component, ComponentId, Ctx, EventId, Payload, SimDuration, SimTime,
    TraceCtx,
};

use crate::bus::{BusMsg, BUS_MSG_BYTES};
use crate::participant::{NodeHooks, Participant};

enum DnMsg {
    NtpPoll,
    PipeWake,
    AgentWake { token: u64 },
    /// The serialization begun as capture number `capture` finished.
    CaptureDone { capture: u64 },
    /// Re-enqueue `frame` on pipe `PipeId(pipe)`. The index rides as a
    /// `u32` so a replayed frame stays inline in its event slot like any
    /// other per-packet event (see `sim::fits_inline`); a `usize` would not.
    Replay { pipe: u32, frame: Frame },
}

const _: () = assert!(sim::fits_inline::<DnMsg>());

impl DnMsg {
    fn replay(pipe: PipeId, frame: Frame) -> Self {
        let pipe = u32::try_from(pipe.0).expect("pipe index fits u32");
        DnMsg::Replay { pipe, frame }
    }
}

/// One shaped unidirectional path through the node.
struct Path {
    in_iface: IfaceId,
    pipe: PipeId,
    /// The wire shaped frames leave on; the node is its only sender.
    out: Wire,
}

/// Per-node statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayNodeStats {
    pub forwarded: u64,
    pub checkpoints: u64,
    pub logged_in_flight: u64,
}

/// A delay node participating in coordinated checkpoints: the epoch
/// protocol is its [`Participant`]; this component is the hook table
/// over its Dummynet (suspend + serialize, drain + replay, image
/// roll-back) plus the shaping data path.
pub struct DelayNodeHost {
    addr: NodeAddr,
    lan: ComponentId,
    coordinator: NodeAddr,
    clock: HardwareClock,
    ntp: NtpClient,
    dn: Dummynet,
    /// The node's paths in the order they were added — a handful, found
    /// by scanning: by `in_iface` on arrival, by `pipe` on emission.
    paths: Vec<Path>,
    wake: Option<(SimTime, EventId)>,
    /// End of the post-resume replay window: new arrivals queue behind the
    /// replayed in-flight packets to preserve order (§3.2).
    replay_until: SimTime,
    /// Captures begun so far; a completion timer that is not the latest
    /// capture's is stale (its suspension was released early).
    captures: u64,
    /// Serialization throughput for the checkpoint (bytes/s of pipe state).
    capture_bps: u64,
    last_image: Option<DummynetImage>,
    /// Image displaced by an in-flight capture, kept until the epoch
    /// commits so an abort can roll the local sequence back.
    prev_image: Option<DummynetImage>,
    /// Causal context of the round the latest capture was begun for;
    /// suspend/drain flow steps link this node into that round's
    /// cross-host flow.
    trace: TraceCtx,
    /// The epoch-protocol state (and its fault-tolerance settings; the
    /// suspend watchdog stays off for held swap-out/time-travel rounds,
    /// which legitimately stay suspended for arbitrarily long).
    pub participant: Participant,
    /// Counters.
    pub stats: DelayNodeStats,
}

impl DelayNodeHost {
    /// Creates a delay node.
    pub fn new(
        addr: NodeAddr,
        lan: ComponentId,
        coordinator: NodeAddr,
        clock_offset_ns: i64,
        clock_drift_ppm: f64,
    ) -> Self {
        DelayNodeHost {
            addr,
            lan,
            coordinator,
            clock: HardwareClock::new(clock_offset_ns, clock_drift_ppm),
            ntp: NtpClient::emulab_default(),
            dn: Dummynet::new(),
            paths: Vec::new(),
            wake: None,
            replay_until: SimTime::ZERO,
            captures: 0,
            capture_bps: 500_000_000,
            last_image: None,
            prev_image: None,
            trace: TraceCtx::NONE,
            participant: Participant::default(),
            stats: DelayNodeStats::default(),
        }
    }

    /// Adds a shaped unidirectional path: frames arriving on `in_iface`
    /// pass through a new pipe with `cfg` and leave on `out` (see
    /// `emulab::splice_shaped_link`).
    pub fn add_path(&mut self, in_iface: IfaceId, cfg: PipeConfig, out: Wire) {
        let pipe = self.dn.add_pipe(cfg);
        let path = Path { in_iface, pipe, out };
        match self.paths.iter_mut().find(|p| p.in_iface == in_iface) {
            Some(p) => *p = path,
            None => self.paths.push(path),
        }
    }

    /// The node's control address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The shaping instance (pipes, stats).
    pub fn dummynet(&self) -> &Dummynet {
        &self.dn
    }

    /// The last captured image (swap-out / time-travel).
    pub fn last_image(&self) -> Option<&DummynetImage> {
        self.last_image.as_ref()
    }

    /// Resumes a restored, suspended instance outside the bus protocol
    /// (stateful swap-in, time travel): shifts deadlines and schedules the
    /// replay.
    pub fn resume_from_restore(&mut self, ctx: &mut Ctx<'_>) {
        if self.dn.suspended() {
            self.resume(ctx);
        }
    }

    /// The suspension-window arrival log, copied (§3.2; swap-out and
    /// snapshots preserve it).
    ///
    /// # Panics
    ///
    /// Panics if the node is not suspended.
    pub fn suspended_log(&self) -> PipeLog {
        self.dn.log()
    }

    /// Installs restored pipes and their arrival log (stateful swap-in,
    /// time travel); a held suspension is dropped with its log. Pipe ids
    /// keep their meaning because paths are re-added in spec order. The
    /// instance arrives suspended and resumes with
    /// [`DelayNodeHost::resume_from_restore`], which replays `log`.
    pub fn restore(&mut self, ctx: &mut Ctx<'_>, image: &DummynetImage, log: PipeLog) {
        let now = ctx.now();
        if self.dn.suspended() {
            let _ = self.dn.resume(now);
        }
        if let Some((_, ev)) = self.wake.take() {
            ctx.cancel(ev);
        }
        self.dn = Dummynet::restore(image, now);
        self.dn.suspend(now);
        self.dn.install_log(log);
        // Restored instances arrive without telemetry; re-attach.
        self.dn.attach_telemetry(ctx.telemetry(), self.addr.0);
    }

    /// Boots the node (NTP).
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.dn.attach_telemetry(ctx.telemetry(), self.addr.0);
        let d = SimDuration::from_millis(ctx.rng().range_u64(50, 500));
        ctx.post_self(d, DnMsg::NtpPoll);
    }

    fn reschedule_wake(&mut self, ctx: &mut Ctx<'_>) {
        if self.dn.suspended() {
            // Queued packets keep their (stale) deadlines while suspended;
            // emission restarts at resume, which shifts them by the
            // downtime. Re-arming here would spin on a past deadline.
            return;
        }
        let next = self.dn.next_ready();
        match (next, self.wake) {
            (None, _) => {}
            (Some(t), Some((wt, _))) if wt <= t => {}
            (Some(t), prev) => {
                if let Some((_, ev)) = prev {
                    ctx.cancel(ev);
                }
                let at = t.max(ctx.now());
                let ev = ctx.post_at(ctx.self_id(), at, DnMsg::PipeWake);
                self.wake = Some((at, ev));
            }
        }
    }

    fn emit_ready(&mut self, ctx: &mut Ctx<'_>) {
        self.dn.drain_ready(ctx.now(), |pipe, frame| {
            let path = self
                .paths
                .iter_mut()
                .find(|p| p.pipe == pipe)
                .expect("pipe has a path");
            self.stats.forwarded += 1;
            path.out.send(ctx, frame);
        });
        self.wake = None;
        self.reschedule_wake(ctx);
    }

    fn on_exp_rx(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: Frame) {
        let Some(pipe) = self.paths.iter().find(|p| p.in_iface == iface).map(|p| p.pipe) else {
            return;
        };
        let now = ctx.now();
        if !self.dn.suspended() && now < self.replay_until {
            // Replay in progress: queue the fresh arrival behind it, paced
            // at roughly wire speed so the replay tail does not become an
            // instantaneous burst that overfills the pipe queue (§3.2).
            self.replay_until += SimDuration::from_micros(12);
            ctx.post_at(ctx.self_id(), self.replay_until, DnMsg::replay(pipe, frame));
            return;
        }
        let _outcome = self.dn.enqueue(now, pipe, frame, ctx.rng());
        if self.dn.suspended() {
            self.stats.logged_in_flight += 1;
        }
        self.reschedule_wake(ctx);
    }

    fn on_ctrl(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        if let Some(resp) = frame.payload::<NtpResponse>() {
            let t4 = self.clock.read_ns(ctx.now());
            let action = self.ntp.on_response(*resp, t4);
            let now = ctx.now();
            self.ntp.apply(&mut self.clock, now, action);
            return;
        }
        if let Some(&msg) = frame.payload::<BusMsg>() {
            self.drive(ctx, |p, io| p.on_msg(io, msg));
        }
    }

    /// Runs one participant entry point over this node's hooks. Out of
    /// line: inlined, the control path grew `handle`, which every packet
    /// goes through, from 2.4 to 3.7 KiB, and `iperf_ckpt` ran ~3 % slower
    /// (10 of 10 alternating pairs).
    #[inline(never)]
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut Participant, &mut DnIo<'_, '_>),
    ) {
        let mut p = self.participant;
        f(&mut p, &mut DnIo { node: self, ctx });
        self.participant = p;
    }

    /// Delay nodes always serialize their complete state (§4.4), so the
    /// full-capture demand (`request_full`) keeps its no-op default.
    fn begin_checkpoint(&mut self, ctx: &mut Ctx<'_>, trace: TraceCtx) -> bool {
        if self.dn.suspended() {
            return false;
        }
        self.trace = trace;
        // Suspend Dummynet and serialize non-destructively.
        self.dn.suspend(ctx.now());
        {
            let t = ctx.telemetry();
            let track = t.track(self.addr.0, names::TRACK_DUMMYNET);
            let tag = t.trace_tag(names::FLOW_DN_SUSPEND);
            t.flow_step(track, tag, ctx.now(), self.trace);
        }
        if let Some((_, ev)) = self.wake.take() {
            ctx.cancel(ev);
        }
        let image = self.dn.serialize(ctx.now());
        let mut cost = SimDuration::from_millis(1)
            + transmission_time(image.byte_size(), self.capture_bps * 8);
        // Buggified suspend stall: the serialization hiccups (page-outs,
        // a contended disk) and the done report arrives late — the kind
        // of straggler that stresses the coordinator's deadline logic.
        let bg = ctx.buggify().clone();
        if buggify!(bg, bg_points::DN_SUSPEND_STALL) {
            cost += SimDuration::from_micros(bg.magnitude(bg_points::DN_SUSPEND_STALL, 500, 50_000));
        }
        self.prev_image = self.last_image.take();
        self.last_image = Some(image);
        self.stats.checkpoints += 1;
        self.captures += 1;
        ctx.post_self(cost, DnMsg::CaptureDone { capture: self.captures });
        true
    }

    /// Rolls the captured image back and resumes through the firewall
    /// as if the epoch had never been triggered.
    fn rollback(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if !self.dn.suspended() {
            return false;
        }
        self.last_image = self.prev_image.take();
        self.stats.checkpoints = self.stats.checkpoints.saturating_sub(1);
        self.resume(ctx);
        true
    }

    fn resume(&mut self, ctx: &mut Ctx<'_>) {
        // The epoch outlives its rollback window once traffic flows again.
        self.prev_image = None;
        let actions = self.dn.resume(ctx.now());
        // Replay preserving inter-arrival pacing, gap-clamped so dead time
        // (skew-to-resume) does not stall delivery; new arrivals queue
        // behind via `replay_until`.
        let mut at = ctx.now();
        // Buggified drain stall: the whole replay window slips, so fresh
        // arrivals queue behind a later tail (order still preserved).
        let bg = ctx.buggify().clone();
        if buggify!(bg, bg_points::DN_DRAIN_STALL) {
            at += SimDuration::from_micros(bg.magnitude(bg_points::DN_DRAIN_STALL, 500, 20_000));
        }
        let mut prev: Option<SimTime> = None;
        for a in actions {
            let gap = match prev {
                Some(p) => a
                    .at
                    .saturating_duration_since(p)
                    .min(SimDuration::from_millis(1)),
                None => SimDuration::ZERO,
            };
            prev = Some(a.at);
            at += gap;
            ctx.post_at(ctx.self_id(), at, DnMsg::replay(a.pipe, a.frame));
        }
        self.replay_until = at;
        // The drain's end: stamped at the replay window's close (the ring
        // tolerates near-future stamps) so the flow arrow lands where the
        // node actually rejoins live traffic.
        {
            let t = ctx.telemetry();
            let track = t.track(self.addr.0, names::TRACK_DUMMYNET);
            let tag = t.trace_tag(names::FLOW_DN_DRAIN);
            t.flow_step(track, tag, at, self.trace);
        }
        self.reschedule_wake(ctx);
    }

    fn send_ctrl(&mut self, ctx: &mut Ctx<'_>, msg: BusMsg) {
        let frame = Frame::new(self.addr, self.coordinator, BUS_MSG_BYTES, msg);
        ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
    }
}

/// [`NodeHooks`] over a delay node and the event context it is handling.
struct DnIo<'a, 'c> {
    node: &'a mut DelayNodeHost,
    ctx: &'a mut Ctx<'c>,
}

impl NodeHooks for DnIo<'_, '_> {
    fn send(&mut self, msg: BusMsg) {
        self.node.send_ctrl(self.ctx, msg);
    }

    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64) {
        // Clamp: a retried notification may target the past.
        let now = self.ctx.now();
        let at = self.node.clock.when_reads(now, clock_ns).max(now);
        self.ctx.post_at(self.ctx.self_id(), at, DnMsg::AgentWake { token });
    }

    fn wake_after(&mut self, d: SimDuration, token: u64) {
        self.ctx.post_self(d, DnMsg::AgentWake { token });
    }

    fn begin_capture(&mut self, trace: TraceCtx) -> bool {
        self.node.begin_checkpoint(self.ctx, trace)
    }

    fn held(&self) -> bool {
        self.node.dn.suspended()
    }

    fn release(&mut self) {
        self.node.resume(self.ctx);
    }

    fn rollback(&mut self) -> bool {
        self.node.rollback(self.ctx)
    }

    fn image_bytes(&self) -> u64 {
        self.node.last_image().map(|i| i.byte_size()).unwrap_or(0)
    }
}

impl Component for DelayNodeHost {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.downcast::<LinkDeliver>() {
            Ok(del) => {
                if del.iface == IfaceId::CONTROL {
                    self.on_ctrl(ctx, del.frame);
                } else {
                    self.on_exp_rx(ctx, del.iface, del.frame);
                }
                return;
            }
            Err(p) => p,
        };
        let msg = match payload.downcast::<DnMsg>() {
            Ok(m) => m,
            Err(_) => panic!("DelayNodeHost received an unknown message"),
        };
        match msg {
            DnMsg::NtpPoll => {
                let t1 = self.clock.read_ns(ctx.now());
                let req = self.ntp.begin_poll(t1);
                let frame = Frame::new(self.addr, self.coordinator, 90, req);
                ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
                ctx.post_self(self.ntp.next_poll_in(), DnMsg::NtpPoll);
            }
            DnMsg::PipeWake => self.emit_ready(ctx),
            DnMsg::AgentWake { token } => self.drive(ctx, |p, io| p.on_wake(io, token)),
            DnMsg::CaptureDone { capture } => {
                if capture == self.captures {
                    self.drive(ctx, |p, io| p.on_captured(io));
                }
            }
            DnMsg::Replay { pipe, frame } => {
                let now = ctx.now();
                let _ = self.dn.enqueue(now, PipeId(pipe as usize), frame, ctx.rng());
                self.reschedule_wake(ctx);
            }
        }
    }

    sim::component_boilerplate!();
}
