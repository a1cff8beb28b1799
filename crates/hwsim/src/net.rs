//! Frames, point-to-point wires, and the Emulab control LAN.
//!
//! An experiment link is two [`Wire`]s, one per direction, each with
//! serialization at line rate and a propagation delay. A wire is state
//! owned by the one component that sends on it, not a component of its
//! own: the sender serializes the frame and posts its arrival itself, so
//! a hop costs one event, the [`LinkDeliver`] at the far end.
//! Traffic *shaping* (the bandwidth/latency/loss an experimenter asks for)
//! is not done here: as in Emulab, it happens in interposed delay nodes
//! (the `dummynet` crate), and the raw wire stays fast and dumb.

use std::any::Any;
use std::sync::Arc;

use sim::buggify;
use sim::buggify::points as bg_points;
use sim::{
    transmission_time, Component, ComponentId, Ctx, FaultPlan, IntMap, LineRate, Payload,
    SimDuration, SimRng, SimTime,
};

/// A testbed-wide interface address (plays the role of a MAC address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The broadcast address.
    pub const BROADCAST: NodeAddr = NodeAddr(u32::MAX);
}

/// Distinguishes the several NICs of one host (experiment vs control).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IfaceId(pub u8);

impl IfaceId {
    /// Conventional id for a host's control-network interface.
    pub const CONTROL: IfaceId = IfaceId(0);
    /// Conventional id for a host's first experiment interface.
    pub const EXPERIMENT: IfaceId = IfaceId(1);
}

/// A layer-2 frame.
///
/// The payload is an immutable, shared, type-erased message (TCP segment,
/// control-plane RPC, …); `wire_bytes` is what the wire and shapers charge
/// for it. Frames are cheap to clone, which the delay-node checkpoint uses
/// to serialize queued packets non-destructively (paper §4.4).
#[derive(Clone)]
pub struct Frame {
    pub src: NodeAddr,
    pub dst: NodeAddr,
    pub wire_bytes: u32,
    payload: Arc<dyn Any + Send + Sync>,
}

impl Frame {
    /// Builds a frame around a typed payload.
    pub fn new<T: Any + Send + Sync>(src: NodeAddr, dst: NodeAddr, wire_bytes: u32, payload: T) -> Self {
        Frame::shared(src, dst, wire_bytes, Arc::new(payload))
    }

    /// Builds a frame around a payload that is already shared, keeping
    /// its allocation: the payload is not moved again.
    pub fn shared<T: Any + Send + Sync>(
        src: NodeAddr,
        dst: NodeAddr,
        wire_bytes: u32,
        payload: Arc<T>,
    ) -> Self {
        Frame { src, dst, wire_bytes, payload }
    }

    /// Downcasts the payload.
    pub fn payload<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Frame({:?} -> {:?}, {}B)",
            self.src, self.dst, self.wire_bytes
        )
    }
}

/// Message: a frame arrives at a component's interface.
pub struct LinkDeliver {
    pub iface: IfaceId,
    pub frame: Frame,
}

// Every packet hop posts one of these: each must ride inline in its event
// slot (see `sim::fits_inline`), or the hop is back on the boxed path.
const _: () = assert!(sim::fits_inline::<LinkDeliver>());
const _: () = assert!(sim::fits_inline::<LanTransmit>());

/// One endpoint of a wire or LAN: the component and which of its NICs is
/// attached.
#[derive(Clone, Copy, Debug)]
pub struct Endpoint {
    pub component: ComponentId,
    pub iface: IfaceId,
}

/// One direction of a point-to-point wire, owned by the only component
/// that sends on it.
///
/// Frames serialize at `bw_bps`, FIFO behind the previous frame, and
/// arrive at `dst` after `propagation`. Deliberately neither `Copy` nor
/// `Clone`: a frame sent on a copy would not queue behind the frames on
/// the original, so the wire's one `busy_until` must stay in one place.
#[derive(Debug)]
pub struct Wire {
    dst: Endpoint,
    rate: LineRate,
    propagation: SimDuration,
    busy_until: SimTime,
}

impl Wire {
    /// An idle wire to `dst`.
    ///
    /// # Panics
    ///
    /// Panics on a zero rate.
    pub fn new(dst: Endpoint, bw_bps: u64, propagation: SimDuration) -> Self {
        Wire {
            dst,
            rate: LineRate::new(bw_bps),
            propagation,
            busy_until: SimTime::ZERO,
        }
    }

    /// Serializes `frame` behind whatever is already on the wire and
    /// posts its arrival at the far end.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        let start = self.busy_until.max(ctx.now());
        self.busy_until = start + self.rate.transmission_time(frame.wire_bytes as u64);
        let arrive = self.busy_until + self.propagation;
        ctx.post_at(self.dst.component, arrive, LinkDeliver { iface: self.dst.iface, frame });
    }
}

/// The shared Emulab control LAN: a switched star joining every host and
/// the testbed servers.
///
/// Each member's uplink serializes at the port rate; the switch adds a base
/// forwarding latency plus exponential queueing jitter. This jitter is what
/// limits NTP accuracy (paper §4.3: "under perfect LAN conditions, NTP
/// provides ... error of 200 µs"), so it is modeled explicitly.
pub struct ControlLan {
    port_bps: u64,
    base_latency: SimDuration,
    jitter_mean: SimDuration,
    /// Members in attach order (the broadcast order), beside the address
    /// → position index every frame looks its source and destination up
    /// in: a scan made a 10,000-node LAN quadratic.
    members: Vec<(NodeAddr, Endpoint)>,
    index: IntMap<NodeAddr, usize>,
    busy_until: Vec<SimTime>,
    /// Frames with no matching destination member.
    pub undeliverable: u64,
    /// Injected control-plane faults, with their own random stream so
    /// fault decisions never consume draws from the LAN's jitter stream.
    faults: Option<(FaultPlan, SimRng)>,
    /// Frames dropped by injected loss or a crashed endpoint.
    pub fault_drops: u64,
    /// Frames delivered twice by the `lan.send_dup` buggify point.
    pub fault_duplicates: u64,
    /// Frames delivered late by the `lan.send_delay` buggify point.
    pub fault_delays: u64,
}

/// Message: transmit a frame onto the control LAN.
pub struct LanTransmit {
    pub frame: Frame,
}

/// Salt for the LAN's fault-decision stream (see [`FaultPlan::stream`]).
const FAULT_STREAM_SALT: u32 = 0xFA01;

impl ControlLan {
    /// Creates an empty LAN.
    pub fn new(port_bps: u64, base_latency: SimDuration, jitter_mean: SimDuration) -> Self {
        assert!(port_bps > 0, "zero-bandwidth LAN");
        ControlLan {
            port_bps,
            base_latency,
            jitter_mean,
            members: Vec::new(),
            index: IntMap::default(),
            busy_until: Vec::new(),
            undeliverable: 0,
            faults: None,
            fault_drops: 0,
            fault_duplicates: 0,
            fault_delays: 0,
        }
    }

    /// Arms control-plane fault injection. Drops and crash windows come
    /// from `plan`, drawn from the plan's own stream — injecting a plan
    /// whose loss is 0 or 1 leaves the LAN's jitter stream untouched.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        let rng = plan.stream(FAULT_STREAM_SALT);
        self.faults = Some((plan, rng));
    }

    /// Attaches a member with the given address.
    pub fn attach(&mut self, addr: NodeAddr, ep: Endpoint) {
        let prev = self.index.insert(addr, self.members.len());
        assert!(prev.is_none(), "duplicate LAN address {addr:?}");
        self.members.push((addr, ep));
        self.busy_until.push(SimTime::ZERO);
    }

    /// Detaches a member (e.g. experiment swap-out).
    pub fn detach(&mut self, addr: NodeAddr) {
        if let Some(i) = self.index.remove(&addr) {
            self.members.remove(i);
            self.busy_until.remove(i);
            for (a, _) in &self.members[i..] {
                *self.index.get_mut(a).expect("every member is indexed") -= 1;
            }
        }
    }

    fn member_index(&self, addr: NodeAddr) -> Option<usize> {
        self.index.get(&addr).copied()
    }
}

/// Posts `frame`'s arrival at `ep` and, when the `lan.send_dup` point
/// fired, its duplicate. The duplicate trails by a switch-requeue delay;
/// it is deliberately jitter-free so duplication alone does not shift the
/// jitter stream for unrelated traffic.
fn deliver(ctx: &mut Ctx<'_>, ep: Endpoint, arrive: SimTime, frame: Frame, dup: bool) {
    let iface = ep.iface;
    if dup {
        let copy = frame.clone();
        ctx.post_at(ep.component, arrive, LinkDeliver { iface, frame: copy });
        let at = arrive + SimDuration::from_micros(10);
        ctx.post_at(ep.component, at, LinkDeliver { iface, frame });
    } else {
        ctx.post_at(ep.component, arrive, LinkDeliver { iface, frame });
    }
}

impl Component for ControlLan {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let tx = match payload.downcast::<LanTransmit>() {
            Ok(t) => t,
            Err(_) => panic!("ControlLan received a non-LanTransmit message"),
        };
        let Some(src_idx) = self.member_index(tx.frame.src) else {
            self.undeliverable += 1;
            return;
        };
        // Buggified faults first: the randomized-exploration layer draws
        // from its own per-point streams (never from the LAN's jitter
        // stream), and a disarmed registry draws nothing at all.
        let bg = ctx.buggify().clone();
        if buggify!(bg, bg_points::LAN_SEND_DROP) {
            self.fault_drops += 1;
            return;
        }
        let fault_dup = buggify!(bg, bg_points::LAN_SEND_DUP);
        if fault_dup {
            self.fault_duplicates += 1;
        }
        let fault_extra = if buggify!(bg, bg_points::LAN_SEND_DELAY) {
            self.fault_delays += 1;
            // Enough to blow past ack timeouts and skew NTP exchanges.
            SimDuration::from_micros(bg.magnitude(bg_points::LAN_SEND_DELAY, 50, 5_000))
        } else {
            SimDuration::ZERO
        };
        // Injected faults act before the LAN's own physics: a dropped
        // frame never serializes and never draws jitter, so a plan with a
        // draw-free loss (0 or 1) leaves healthy traffic's timing
        // untouched.
        if let Some((plan, rng)) = self.faults.as_mut() {
            let now = ctx.now();
            if plan.crashed(tx.frame.src.0, now)
                || (tx.frame.dst != NodeAddr::BROADCAST && plan.crashed(tx.frame.dst.0, now))
                || rng.chance(plan.loss())
            {
                self.fault_drops += 1;
                return;
            }
        }
        // Serialize on the source port.
        let ser = transmission_time(tx.frame.wire_bytes as u64, self.port_bps);
        let start = self.busy_until[src_idx].max(ctx.now());
        let done = start + ser;
        self.busy_until[src_idx] = done;

        // Unicast: the one member with that address. Broadcast: every
        // member but the sender and any crashed by an injected plan, in
        // attach order. Each delivery is posted once the next one is
        // known, so the last (a unicast's only one) takes the frame
        // itself and only the others clone it.
        let broadcast = tx.frame.dst == NodeAddr::BROADCAST;
        let targets = if broadcast {
            0..self.members.len()
        } else {
            match self.member_index(tx.frame.dst) {
                Some(i) => i..i + 1,
                None => {
                    self.undeliverable += 1;
                    return;
                }
            }
        };
        let now = ctx.now();
        let mut pending: Option<(Endpoint, SimTime)> = None;
        for i in targets {
            let (addr, ep) = self.members[i];
            if broadcast
                && (addr == tx.frame.src
                    || self
                        .faults
                        .as_ref()
                        .is_some_and(|(p, _)| p.crashed(addr.0, now)))
            {
                continue;
            }
            let jitter =
                SimDuration::from_nanos(ctx.rng().exponential(self.jitter_mean.as_nanos() as f64)
                    as u64);
            let arrive = done + self.base_latency + jitter + fault_extra;
            if let Some((ep, at)) = pending.replace((ep, arrive)) {
                deliver(ctx, ep, at, tx.frame.clone(), fault_dup);
            }
        }
        if let Some((ep, at)) = pending {
            deliver(ctx, ep, at, tx.frame, fault_dup);
        }
    }

    sim::component_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Engine;

    /// Collects delivered frames with timestamps.
    struct Sink {
        got: Vec<(SimTime, IfaceId, Frame)>,
    }

    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let d = payload.downcast::<LinkDeliver>().expect("LinkDeliver");
            self.got.push((ctx.now(), d.iface, d.frame));
        }
        sim::component_boilerplate!();
    }

    /// A sender that owns one wire and hears what arrives for it.
    struct Node {
        out: Wire,
        sink: Sink,
    }

    impl Component for Node {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            self.sink.handle(ctx, payload);
        }
        sim::component_boilerplate!();
    }

    const GBPS: u64 = 1_000_000_000;

    fn frame(bytes: u32) -> Frame {
        Frame::new(NodeAddr(1), NodeAddr(2), bytes, ())
    }

    /// A node with a wire to a sink on the sink's interface 1.
    fn setup_wire(prop: SimDuration) -> (Engine, ComponentId, ComponentId) {
        let mut e = Engine::new(1);
        let sink = e.add_component(Box::new(Sink { got: vec![] }));
        let out = Wire::new(Endpoint { component: sink, iface: IfaceId(1) }, GBPS, prop);
        let node = e.add_component(Box::new(Node { out, sink: Sink { got: vec![] } }));
        (e, sink, node)
    }

    fn send(e: &mut Engine, node: ComponentId, bytes: u32) {
        e.with_component::<Node, _>(node, |n, ctx| n.out.send(ctx, frame(bytes)));
    }

    fn arrivals(got: &[(SimTime, IfaceId, Frame)]) -> Vec<u64> {
        got.iter().map(|g| g.0.as_nanos()).collect()
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let (mut e, sink, node) = setup_wire(SimDuration::from_micros(50));
        send(&mut e, node, 1500);
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        // 12 µs serialization + 50 µs propagation.
        assert_eq!(got[0].0.as_nanos(), 62_000);
        assert_eq!(got[0].1, IfaceId(1));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let (mut e, sink, node) = setup_wire(SimDuration::from_micros(5));
        for _ in 0..3 {
            send(&mut e, node, 1500);
        }
        e.run_for(SimDuration::from_micros(100));
        // A frame sent once the wire has drained starts at once.
        send(&mut e, node, 1500);
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(arrivals(got), [17_000, 29_000, 41_000, 117_000]);
    }

    #[test]
    fn the_two_directions_of_a_shaped_link_do_not_contend() {
        // Host and delay node, each the only sender on its own wire.
        let mut e = Engine::new(1);
        let (host, dn) = (ComponentId(0), ComponentId(1));
        let wire = |to, iface| {
            Wire::new(Endpoint { component: to, iface }, GBPS, SimDuration::from_micros(5))
        };
        for (id, to, iface) in [(host, dn, IfaceId(1)), (dn, host, IfaceId::EXPERIMENT)] {
            let node = Node { out: wire(to, iface), sink: Sink { got: vec![] } };
            assert_eq!(e.add_component(Box::new(node)), id, "ids are handed out in order");
        }
        for _ in 0..2 {
            send(&mut e, host, 1500);
            send(&mut e, dn, 1500);
        }
        e.run_to_completion();
        for (id, iface) in [(dn, IfaceId(1)), (host, IfaceId::EXPERIMENT)] {
            let got = &e.component_ref::<Node>(id).unwrap().sink.got;
            assert_eq!(arrivals(got), [17_000, 29_000], "each direction queues only itself");
            assert!(got.iter().all(|g| g.1 == iface));
        }
    }

    #[test]
    fn cancelled_frame_event_releases_the_frame() {
        let (mut e, sink, _node) = setup_wire(SimDuration::ZERO);
        let probe = Arc::new(());
        let frame = Frame::new(NodeAddr(1), NodeAddr(2), 1500, probe.clone());
        let before = sim::payload_store_stats();
        let ev = e.post(sink, SimDuration::ZERO, LinkDeliver { iface: IfaceId(1), frame });
        let after = sim::payload_store_stats();
        assert_eq!(after.inline, before.inline + 1, "a frame event rides inline");
        assert_eq!(after.boxed, before.boxed);
        assert_eq!(Arc::strong_count(&probe), 2);
        assert!(e.cancel(ev));
        assert_eq!(Arc::strong_count(&probe), 1, "cancel drops the inline frame");
    }

    #[test]
    fn lan_unicast_and_broadcast() {
        let mut e = Engine::new(2);
        let s1 = e.add_component(Box::new(Sink { got: vec![] }));
        let s2 = e.add_component(Box::new(Sink { got: vec![] }));
        let s3 = e.add_component(Box::new(Sink { got: vec![] }));
        let mut lan = ControlLan::new(
            100_000_000,
            SimDuration::from_micros(20),
            SimDuration::from_micros(30),
        );
        lan.attach(NodeAddr(1), Endpoint { component: s1, iface: IfaceId::CONTROL });
        lan.attach(NodeAddr(2), Endpoint { component: s2, iface: IfaceId::CONTROL });
        lan.attach(NodeAddr(3), Endpoint { component: s3, iface: IfaceId::CONTROL });
        let lan = e.add_component(Box::new(lan));

        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(1), NodeAddr(2), 100, ()),
        });
        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(3), NodeAddr::BROADCAST, 100, ()),
        });
        e.run_to_completion();
        assert_eq!(e.component_ref::<Sink>(s1).unwrap().got.len(), 1, "s1: broadcast only");
        assert_eq!(e.component_ref::<Sink>(s2).unwrap().got.len(), 2, "s2: unicast + broadcast");
        assert_eq!(e.component_ref::<Sink>(s3).unwrap().got.len(), 0, "s3 sent the broadcast");
    }

    #[test]
    fn lan_index_survives_detaching_a_middle_member() {
        let mut e = Engine::new(2);
        let sinks: Vec<ComponentId> =
            (0..4).map(|_| e.add_component(Box::new(Sink { got: vec![] }))).collect();
        let ep = |i: usize| Endpoint { component: sinks[i], iface: IfaceId(i as u8) };
        let mut lan = ControlLan::new(100_000_000, SimDuration::ZERO, SimDuration::from_nanos(1));
        for i in 0..3 {
            lan.attach(NodeAddr(i as u32 + 1), ep(i));
        }
        // Out goes 2, in comes 4; then 2 is back, on a new endpoint.
        lan.detach(NodeAddr(2));
        lan.attach(NodeAddr(4), ep(3));
        lan.attach(NodeAddr(2), ep(1));
        lan.detach(NodeAddr(9)); // Not a member: no-op.
        let lan = e.add_component(Box::new(lan));
        for (src, dst) in [(1, 3), (3, 4), (4, 2), (2, 1), (1, u32::MAX)] {
            e.post(lan, SimDuration::ZERO, LanTransmit {
                frame: Frame::new(NodeAddr(src), NodeAddr(dst), 100, src),
            });
        }
        e.run_to_completion();
        // Per sink: the sources it heard from, in arrival order.
        let heard = |i: usize| -> Vec<u32> {
            let got = &e.component_ref::<Sink>(sinks[i]).unwrap().got;
            assert!(got.iter().all(|(_, iface, _)| *iface == IfaceId(i as u8)));
            got.iter().map(|(_, _, f)| *f.payload::<u32>().unwrap()).collect()
        };
        assert_eq!(heard(0), [2], "node 1: unicast from 2, not its own broadcast");
        assert_eq!(heard(1), [4, 1], "node 2: unicast from 4, then the broadcast");
        assert_eq!(heard(2), [1, 1], "node 3: unicast from 1, then the broadcast");
        assert_eq!(heard(3), [3, 1], "node 4: unicast from 3, then the broadcast");
        assert_eq!(e.component_ref::<ControlLan>(lan).unwrap().undeliverable, 0);
    }

    #[test]
    fn lan_to_unknown_address_counts_undeliverable() {
        let mut e = Engine::new(3);
        let s1 = e.add_component(Box::new(Sink { got: vec![] }));
        let mut lan = ControlLan::new(100_000_000, SimDuration::ZERO, SimDuration::from_nanos(1));
        lan.attach(NodeAddr(1), Endpoint { component: s1, iface: IfaceId::CONTROL });
        let lan = e.add_component(Box::new(lan));
        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(1), NodeAddr(99), 100, ()),
        });
        e.run_to_completion();
        assert_eq!(e.component_ref::<ControlLan>(lan).unwrap().undeliverable, 1);
    }
}
