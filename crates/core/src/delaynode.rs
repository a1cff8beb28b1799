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
use std::collections::VecDeque;

use dummynet::{Dummynet, DummynetImage, EnqueueOutcome, PipeConfig, PipeId, PipeLog};
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
    /// Per frame in `pipe` that may not have left, in FIFO order: its ready
    /// instant and what `Wire::send_at` returned for it.
    posted: VecDeque<(SimTime, EventId, SimTime)>,
}

impl Path {
    /// Posts `frame`'s delivery, sent on `out` at its `ready` instant.
    fn post(&mut self, ctx: &mut Ctx<'_>, ready: SimTime, frame: Frame) {
        let (ev, wire_was) = self.out.send_at(ctx, ready, frame);
        self.posted.push_back((ready, ev, wire_was));
    }

    /// Forgets the frames that left by `now`.
    fn retire(&mut self, now: SimTime) {
        while self.posted.front().is_some_and(|p| p.0 <= now) {
            self.posted.pop_front();
        }
    }
}

/// Per-node statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayNodeStats {
    /// Frames whose delivery is posted and not taken back: a read taken
    /// mid-run includes those still in the pipes (about 9 on Fig 6's link).
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
    /// by scanning: by `in_iface` on arrival, by `pipe` on a replay.
    paths: Vec<Path>,
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
        self.paths.push(Path { in_iface, pipe, out, posted: VecDeque::new() });
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
        } else {
            self.take_back(ctx);
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

    /// Offers `frame` to path `i`'s pipe, posting its delivery if taken;
    /// first drops what has left, which happens only here and at a take-back.
    fn shape(&mut self, ctx: &mut Ctx<'_>, i: usize, frame: Frame) {
        let now = ctx.now();
        self.dn.drain_ready(now, |_, _| {});
        let path = &mut self.paths[i];
        path.retire(now);
        let outcome = self.dn.enqueue(now, path.pipe, frame.clone(), ctx.rng());
        if let EnqueueOutcome::Queued { ready } = outcome {
            self.stats.forwarded += 1;
            path.post(ctx, ready, frame);
        }
    }

    /// Takes back every delivery whose frame has not left (cancels it and
    /// rolls the wire back), which needs the plain engine's event ids: the
    /// pipes then hold exactly those frames, and no wire or event has them.
    fn take_back(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.dn.drain_ready(now, |_, _| {});
        for path in &mut self.paths {
            path.retire(now);
            if let Some(&(_, _, wire_was)) = path.posted.front() {
                path.out.rewind(wire_was);
            }
            for (_, ev, _) in path.posted.drain(..) {
                self.stats.forwarded -= 1;
                assert!(ctx.cancel(ev), "a delivery not cancelled: delay nodes need the plain engine");
            }
        }
    }

    /// Posts what a take-back cancelled, shifted by the downtime: every
    /// frame in the pipes, path by path in FIFO order.
    fn post_queued(&mut self, ctx: &mut Ctx<'_>) {
        for path in &mut self.paths {
            for (ready, frame) in self.dn.pipe(path.pipe).queued() {
                self.stats.forwarded += 1;
                path.post(ctx, ready, frame.clone());
            }
        }
    }

    fn on_exp_rx(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: Frame) {
        let Some(i) = self.paths.iter().position(|p| p.in_iface == iface) else {
            return;
        };
        let now = ctx.now();
        if self.dn.suspended() {
            self.stats.logged_in_flight += 1;
        } else if now < self.replay_until {
            // Replay in progress: queue the fresh arrival behind it, paced
            // at roughly wire speed so the replay tail does not become an
            // instantaneous burst that overfills the pipe queue (§3.2).
            self.replay_until += SimDuration::from_micros(12);
            ctx.post_at(ctx.self_id(), self.replay_until, DnMsg::replay(self.paths[i].pipe, frame));
            return;
        }
        self.shape(ctx, i, frame);
    }

    fn on_ctrl(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        if let Some(resp) = frame.payload::<NtpResponse>() {
            let now = ctx.now();
            let action = self.ntp.on_response(*resp, self.clock.read_ns(now));
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
        self.take_back(ctx);
        self.dn.suspend(ctx.now());
        self.flow_step(ctx, names::FLOW_DN_SUSPEND, ctx.now());
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
            let gap = prev.map_or(SimDuration::ZERO, |p| a.at.saturating_duration_since(p));
            prev = Some(a.at);
            at += gap.min(SimDuration::from_millis(1));
            ctx.post_at(ctx.self_id(), at, DnMsg::replay(a.pipe, a.frame));
        }
        self.replay_until = at;
        // The drain's end: stamped at the replay window's close (the ring
        // tolerates near-future stamps) so the flow arrow lands where the
        // node actually rejoins live traffic.
        self.flow_step(ctx, names::FLOW_DN_DRAIN, at);
        self.post_queued(ctx);
    }

    /// Links this node into the current round's cross-host flow at `at`.
    fn flow_step(&self, ctx: &Ctx<'_>, tag: &'static str, at: SimTime) {
        let t = ctx.telemetry();
        let track = t.track(self.addr.0, names::TRACK_DUMMYNET);
        t.flow_step(track, t.trace_tag(tag), at, self.trace);
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
            DnMsg::AgentWake { token } => self.drive(ctx, |p, io| p.on_wake(io, token)),
            DnMsg::CaptureDone { capture } => {
                if capture == self.captures {
                    self.drive(ctx, |p, io| p.on_captured(io));
                }
            }
            DnMsg::Replay { pipe, frame } => {
                let i = self.paths.iter().position(|p| p.pipe.0 == pipe as usize);
                self.shape(ctx, i.expect("pipe has a path"), frame);
            }
        }
    }

    sim::component_boilerplate!();
}

#[cfg(test)]
mod tests {
    use hwsim::Endpoint;
    use sim::Engine;

    use super::*;

    /// Records each delivered frame's tag with its arrival time.
    struct Sink {
        got: Vec<(SimTime, u32)>,
    }

    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if let Ok(d) = payload.downcast::<LinkDeliver>() {
                self.got.push((ctx.now(), *d.frame.payload::<u32>().expect("a tagged frame")));
            }
        }
        sim::component_boilerplate!();
    }

    /// Four 1,000-byte frames per path.
    const FRAMES: u32 = 4;
    /// The out-wires' rate: 2 ms a frame, slower than the pipes' 1 ms, so
    /// frames that have left a pipe still queue on its wire.
    const WIRE_BPS: u64 = 4_000_000;
    const PROPAGATION: SimDuration = SimDuration::from_micros(5);

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    /// Path `p`'s frame `k`.
    fn tag(p: u32, k: u32) -> u32 {
        100 * p + k
    }

    /// A delay node with two paths, each a pipe of 8 Mbps (1 µs a byte)
    /// plus 100 µs onto its own wire to its own sink, and [`FRAMES`]
    /// frames arriving on each at 0: they are ready at 1.1, 2.1, 3.1 and
    /// 4.1 ms.
    fn lab() -> (Engine, ComponentId, [ComponentId; 2]) {
        let mut e = Engine::new(1);
        let sinks = [0, 1].map(|_| e.add_component(Box::new(Sink { got: Vec::new() })));
        let mut node = DelayNodeHost::new(NodeAddr(9), sinks[0], NodeAddr(1), 0, 0.0);
        let cfg = PipeConfig {
            bandwidth_bps: Some(8_000_000),
            delay: SimDuration::from_micros(100),
            plr: 0.0,
            queue_slots: 50,
        };
        for (p, &sink) in sinks.iter().enumerate() {
            let out = Wire::new(Endpoint { component: sink, iface: IfaceId(1) }, WIRE_BPS, PROPAGATION);
            node.add_path(IfaceId(p as u8 + 1), cfg, out);
        }
        let dn = e.add_component(Box::new(node));
        for p in 0..2 {
            for k in 0..FRAMES {
                let frame = Frame::new(NodeAddr(1), NodeAddr(2), 1_000, tag(p, k));
                e.post(dn, SimDuration::ZERO, LinkDeliver { iface: IfaceId(p as u8 + 1), frame });
            }
        }
        (e, dn, sinks)
    }

    /// What a wire delivers for frames sent at `sent` in order: each
    /// serializes behind the previous one, as `Wire::send_at` computes.
    fn on_the_wire(sent: &[(SimTime, u32)]) -> Vec<(SimTime, u32)> {
        let mut busy = SimTime::ZERO;
        let tx = sim::transmission_time(1_000, WIRE_BPS);
        sent.iter()
            .map(|&(at, tag)| {
                busy = busy.max(at) + tx;
                (busy + PROPAGATION, tag)
            })
            .collect()
    }

    fn got(e: &Engine, sink: ComponentId) -> &[(SimTime, u32)] {
        &e.component_ref::<Sink>(sink).expect("sink").got
    }

    #[test]
    fn a_suspension_takes_back_exactly_the_frames_that_have_not_left() {
        let (mut e, dn, sinks) = lab();
        // Between the second and third ready instants: the first two
        // frames of each path have left their pipe, though the second
        // is still queued on the wire.
        let (suspend, downtime) = (us(2_500), SimDuration::from_millis(1));
        e.run_until(suspend);
        e.with_component::<DelayNodeHost, _>(dn, |n, ctx| {
            assert!(n.begin_checkpoint(ctx, TraceCtx::NONE));
            assert_eq!(n.last_image().expect("an image").packets(), 4);
            for p in 0..2 {
                let held: Vec<u32> = n
                    .dummynet()
                    .pipe(PipeId(p as usize))
                    .queued()
                    .map(|(_, f)| *f.payload::<u32>().unwrap())
                    .collect();
                assert_eq!(held, [tag(p, 2), tag(p, 3)], "the image holds what has not left");
            }
            assert_eq!(n.stats.forwarded, 4, "the taken-back frames are uncounted");
        });
        e.run_until(suspend + downtime);
        e.with_component::<DelayNodeHost, _>(dn, |n, ctx| n.resume(ctx));
        e.run_to_completion();

        for (p, &sink) in sinks.iter().enumerate() {
            let p = p as u32;
            // Frames that left by the suspension keep their instants; the
            // others leave the downtime later, behind those on the wire.
            let sent: Vec<(SimTime, u32)> = (0..FRAMES)
                .map(|k| {
                    let ready = us(1_100 + 1_000 * k as u64);
                    let ready = if ready <= suspend { ready } else { ready + downtime };
                    (ready, tag(p, k))
                })
                .collect();
            assert_eq!(got(&e, sink), on_the_wire(&sent), "path {p}");
        }
        let n = e.component_ref::<DelayNodeHost>(dn).unwrap();
        assert_eq!(n.stats.forwarded, 2 * FRAMES as u64);
    }

    #[test]
    fn a_restore_mid_stream_drops_what_had_not_left_and_frees_its_wire_time() {
        let (mut e, dn, sinks) = lab();
        let mut empty = Dummynet::new();
        for _ in 0..2 {
            empty.add_pipe(PipeConfig::passthrough());
        }
        empty.suspend(SimTime::ZERO);
        let empty = empty.serialize(SimTime::ZERO);
        let at = us(2_500);
        e.run_until(at);
        e.with_component::<DelayNodeHost, _>(dn, |n, ctx| {
            n.restore(ctx, &empty, Vec::new());
            n.resume_from_restore(ctx);
        });
        // A frame through each restored (unshaped) pipe at once: ready
        // now, it starts on the wire where the last frame that left ends.
        for p in 0..2 {
            let frame = Frame::new(NodeAddr(1), NodeAddr(2), 1_000, tag(p, 9));
            e.post(dn, SimDuration::ZERO, LinkDeliver { iface: IfaceId(p as u8 + 1), frame });
        }
        e.run_to_completion();

        for (p, &sink) in sinks.iter().enumerate() {
            let p = p as u32;
            let sent = [(us(1_100), tag(p, 0)), (us(2_100), tag(p, 1)), (at, tag(p, 9))];
            assert_eq!(got(&e, sink), on_the_wire(&sent), "path {p}");
        }
    }
}
