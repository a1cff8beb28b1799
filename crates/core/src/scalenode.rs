//! The scale lab's node: the shipped [`Participant`] over a fourth hook
//! table, cheap enough to run ten thousand of on the sharded engine.

use std::any::Any;

use hwsim::{Frame, LanTransmit, LinkDeliver, NodeAddr};
use sim::telemetry::names;
use sim::{Component, ComponentId, CounterId, Ctx, Payload, SimDuration, SimTime, TraceCtx};

use crate::bus::{BusMsg, BUS_MSG_BYTES};
use crate::participant::{NodeHooks, Participant};

/// Mean gossip interval; each tick adds up to a quarter of it as jitter.
pub const GOSSIP_PERIOD: SimDuration = SimDuration::from_millis(20);
/// Self-posted steps one capture takes.
const CAPTURE_STEPS: u32 = 4;
/// Mean captured image, KiB (drawn uniformly from half to 1.5× of it).
const DIRTY_KB_MEAN: u64 = 256;
/// Wire size of a gossip frame.
const GOSSIP_BYTES: u32 = 64;

/// A node of the scale lab (`emulab::ScaleLab`): the shipped
/// [`Participant`] over a fourth hook table, cheap enough to run ten
/// thousand of on the sharded engine.
///
/// The local world is what the protocol needs and no more: a capture is
/// a chain of four self-posted steps of 20–120 µs, its image a dirty-size
/// draw of 128–384 KiB; `held`, `release` and `rollback` are one flag,
/// raised from the capture's start; a scheduled wake reads true time
/// (scale nodes model no NTP clock). Between rounds each node gossips with
/// the next node of its group every [`GOSSIP_PERIOD`] or so, and stays
/// quiet while held. Every frame, bus traffic and gossip alike, leaves on
/// the group's LAN; notifications and resumes arrive on whichever LAN the
/// coordinator publishes on.
pub struct ScaleNode {
    /// The epoch-protocol state.
    pub participant: Participant,
    addr: NodeAddr,
    coordinator: NodeAddr,
    /// The group's LAN: every frame this node sends goes there.
    lan: ComponentId,
    /// Gossip partner, on the same LAN.
    neighbor: NodeAddr,
    held: bool,
    /// Captures begun; a step of an earlier capture is stale.
    captures: u64,
    image_bytes: u64,
    /// Lazily registered `(bytes, pings)` counters (a `Send` component
    /// holds ids, never the registry handle).
    counters: Option<(CounterId, CounterId)>,
}

/// The node's own events.
pub enum ScaleMsg {
    /// A participant wake comes due.
    Wake { token: u64 },
    /// One step of capture number `capture`, `left` steps to go.
    Step { capture: u64, left: u32 },
    /// Gossip tick; the lab posts the first.
    Gossip,
}

/// The gossip frame's payload.
struct Ping;

impl ScaleNode {
    /// A node at `addr` reporting to `coordinator` over `lan`, gossiping
    /// with `neighbor`.
    pub fn new(addr: NodeAddr, coordinator: NodeAddr, lan: ComponentId, neighbor: NodeAddr) -> Self {
        ScaleNode {
            participant: Participant::default(),
            addr,
            coordinator,
            lan,
            neighbor,
            held: false,
            captures: 0,
            image_bytes: 0,
            counters: None,
        }
    }

    fn counters(&mut self, ctx: &Ctx<'_>) -> (CounterId, CounterId) {
        *self.counters.get_or_insert_with(|| {
            let t = ctx.telemetry();
            (t.counter(names::SCALE_NODE_BYTES), t.counter(names::SCALE_NODE_PINGS))
        })
    }

    fn send(&self, ctx: &mut Ctx<'_>, dst: NodeAddr, bytes: u32, payload: impl Any + Send + Sync) {
        let frame = Frame::new(self.addr, dst, bytes, payload);
        ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
    }

    /// Posts the next capture step after a 20–120 µs draw.
    fn step(&self, ctx: &mut Ctx<'_>, left: u32) {
        let d = SimDuration::from_nanos(ctx.rng().range_u64(20_000, 120_000));
        ctx.post_self(d, ScaleMsg::Step { capture: self.captures, left });
    }

    /// Runs one participant entry point over this node's hooks.
    fn drive(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Participant, &mut Io<'_, '_>)) {
        let mut p = self.participant;
        f(&mut p, &mut Io { node: self, ctx });
        self.participant = p;
    }
}

/// [`NodeHooks`] over a scale node and the event being handled.
struct Io<'a, 'c> {
    node: &'a mut ScaleNode,
    ctx: &'a mut Ctx<'c>,
}

impl NodeHooks for Io<'_, '_> {
    fn send(&mut self, msg: BusMsg) {
        self.node.send(self.ctx, self.node.coordinator, BUS_MSG_BYTES, msg);
    }

    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64) {
        let at = SimTime::from_nanos(clock_ns as u64).max(self.ctx.now());
        self.ctx.post_at(self.ctx.self_id(), at, ScaleMsg::Wake { token });
    }

    fn wake_after(&mut self, d: SimDuration, token: u64) {
        self.ctx.post_self(d, ScaleMsg::Wake { token });
    }

    fn begin_capture(&mut self, _trace: TraceCtx) -> bool {
        if self.node.held {
            return false;
        }
        self.node.held = true;
        self.node.captures += 1;
        self.node.step(self.ctx, CAPTURE_STEPS);
        true
    }

    fn held(&self) -> bool {
        self.node.held
    }

    fn release(&mut self) {
        self.node.held = false;
    }

    fn rollback(&mut self) -> bool {
        std::mem::take(&mut self.node.held)
    }

    fn image_bytes(&self) -> u64 {
        self.node.image_bytes
    }
}

impl Component for ScaleNode {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.downcast::<LinkDeliver>() {
            Ok(del) => {
                if let Some(&msg) = del.frame.payload::<BusMsg>() {
                    self.drive(ctx, |p, io| p.on_msg(io, msg));
                } else if del.frame.payload::<Ping>().is_some() {
                    let (_, pings) = self.counters(ctx);
                    ctx.telemetry().inc(pings);
                }
                return;
            }
            Err(p) => p,
        };
        match payload.downcast::<ScaleMsg>() {
            Ok(ScaleMsg::Wake { token }) => self.drive(ctx, |p, io| p.on_wake(io, token)),
            Ok(ScaleMsg::Step { capture, left }) if capture == self.captures && self.held => {
                if left > 1 {
                    self.step(ctx, left - 1);
                    return;
                }
                let kb = ctx.rng().range_u64(DIRTY_KB_MEAN / 2, DIRTY_KB_MEAN * 3 / 2);
                self.image_bytes = kb * 1024;
                let (bytes, _) = self.counters(ctx);
                ctx.telemetry().add(bytes, self.image_bytes);
                self.drive(ctx, |p, io| p.on_captured(io));
            }
            Ok(ScaleMsg::Step { .. }) => {} // Released or rolled back mid-chain.
            Ok(ScaleMsg::Gossip) => {
                if !self.held {
                    self.send(ctx, self.neighbor, GOSSIP_BYTES, Ping);
                }
                let period = GOSSIP_PERIOD.as_nanos();
                let jitter = ctx.rng().range_u64(0, period / 4);
                ctx.post_self(SimDuration::from_nanos(period + jitter), ScaleMsg::Gossip);
            }
            Err(_) => panic!("ScaleNode received an unknown message"),
        }
    }

    sim::component_boilerplate!();
}
