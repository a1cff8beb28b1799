//! Frames, point-to-point links, and the Emulab control LAN.
//!
//! Experiment links are modeled as full-duplex wires with per-direction
//! serialization at line rate, propagation delay, and optional random loss.
//! Traffic *shaping* (the bandwidth/latency/loss an experimenter asks for)
//! is not done here: as in Emulab, it happens in interposed delay nodes
//! (the `dummynet` crate), and the raw wire stays fast and dumb.

use std::any::Any;
use std::sync::Arc;

use sim::buggify;
use sim::buggify::points as bg_points;
use sim::{
    transmission_time, Component, ComponentId, Ctx, FaultPlan, IntMap, Payload, SimDuration,
    SimRng, SimTime,
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
        Frame {
            src,
            dst,
            wire_bytes,
            payload: Arc::new(payload),
        }
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

/// Message: hand a frame to a link for transmission.
///
/// `from_end` identifies which side of the link is sending (0 or 1).
pub struct LinkTransmit {
    pub from_end: usize,
    pub frame: Frame,
}

/// Message: a frame arrives at a component's interface.
pub struct LinkDeliver {
    pub iface: IfaceId,
    pub frame: Frame,
}

// Every packet hop posts one of these: each must ride inline in its event
// slot (see `sim::fits_inline`), or the hop is back on the boxed path.
const _: () = assert!(sim::fits_inline::<LinkTransmit>());
const _: () = assert!(sim::fits_inline::<LinkDeliver>());
const _: () = assert!(sim::fits_inline::<LanTransmit>());

/// One endpoint of a link: the component and which of its NICs is attached.
#[derive(Clone, Copy, Debug)]
pub struct Endpoint {
    pub component: ComponentId,
    pub iface: IfaceId,
}

/// A full-duplex point-to-point wire.
///
/// Each direction serializes frames at `bw_bps` (FIFO behind the previous
/// frame), then delivers after `propagation`. `loss` drops frames i.i.d.
pub struct Link {
    ends: [Endpoint; 2],
    bw_bps: u64,
    propagation: SimDuration,
    loss: f64,
    busy_until: [SimTime; 2],
    /// Frames dropped by random loss.
    pub drops: u64,
    /// Frames delivered per direction.
    pub delivered: [u64; 2],
    /// Whether the link is administratively up.
    pub up: bool,
}

impl Link {
    /// Creates a link between two endpoints.
    pub fn new(a: Endpoint, b: Endpoint, bw_bps: u64, propagation: SimDuration, loss: f64) -> Self {
        assert!(bw_bps > 0, "zero-bandwidth link");
        assert!((0.0..=1.0).contains(&loss), "loss out of range");
        Link {
            ends: [a, b],
            bw_bps,
            propagation,
            loss,
            busy_until: [SimTime::ZERO; 2],
            drops: 0,
            delivered: [0; 2],
            up: true,
        }
    }

    /// The endpoint on side `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn endpoint(&self, i: usize) -> Endpoint {
        self.ends[i]
    }
}

impl Component for Link {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let tx = match payload.downcast::<LinkTransmit>() {
            Ok(t) => t,
            Err(_) => panic!("Link received a non-LinkTransmit message"),
        };
        assert!(tx.from_end < 2, "bad link end");
        if !self.up {
            self.drops += 1;
            return;
        }
        let dir = tx.from_end;
        let ser = transmission_time(tx.frame.wire_bytes as u64, self.bw_bps);
        let start = self.busy_until[dir].max(ctx.now());
        let done = start + ser;
        self.busy_until[dir] = done;
        if self.loss > 0.0 && ctx.rng().chance(self.loss) {
            self.drops += 1;
            return;
        }
        let arrive = done + self.propagation;
        let dst = self.ends[1 - dir];
        self.delivered[dir] += 1;
        ctx.post_at(
            dst.component,
            arrive,
            LinkDeliver {
                iface: dst.iface,
                frame: tx.frame,
            },
        );
    }

    sim::component_boilerplate!();
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
    /// Frames delivered twice by injected duplication.
    pub fault_duplicates: u64,
    /// Frames delivered late by injected extra delay.
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

    /// Arms control-plane fault injection. Drops, duplicates, extra
    /// delays, and crash windows come from `plan`, drawn from the plan's
    /// own stream — injecting a plan whose probabilities are all 0 or 1
    /// leaves the LAN's jitter stream untouched.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        let rng = plan.stream(FAULT_STREAM_SALT);
        self.faults = Some((plan, rng));
    }

    /// The injected fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|(p, _)| p)
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
        let mut fault_dup = buggify!(bg, bg_points::LAN_SEND_DUP);
        if fault_dup {
            self.fault_duplicates += 1;
        }
        let mut fault_extra = if buggify!(bg, bg_points::LAN_SEND_DELAY) {
            self.fault_delays += 1;
            // Enough to blow past ack timeouts and skew NTP exchanges.
            SimDuration::from_micros(bg.magnitude(bg_points::LAN_SEND_DELAY, 50, 5_000))
        } else {
            SimDuration::ZERO
        };
        // Injected faults act before the LAN's own physics: a dropped
        // frame never serializes and never draws jitter, so a plan with
        // draw-free probabilities (0 or 1) leaves healthy traffic's
        // timing untouched.
        if let Some((plan, rng)) = self.faults.as_mut() {
            let now = ctx.now();
            if plan.crashed(tx.frame.src.0, now)
                || (tx.frame.dst != NodeAddr::BROADCAST && plan.crashed(tx.frame.dst.0, now))
                || rng.chance(plan.loss())
            {
                self.fault_drops += 1;
                return;
            }
            if rng.chance(plan.duplication()) {
                fault_dup = true;
                self.fault_duplicates += 1;
            }
            let (p, extra) = plan.extra_delay();
            if rng.chance(p) {
                fault_extra = extra;
                self.fault_delays += 1;
            }
        }
        // Serialize on the source port.
        let ser = transmission_time(tx.frame.wire_bytes as u64, self.port_bps);
        let start = self.busy_until[src_idx].max(ctx.now());
        let done = start + ser;
        self.busy_until[src_idx] = done;

        // Unicast: the one member with that address. Broadcast: every
        // member but the sender and any crashed by an injected plan, in
        // attach order.
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
            ctx.post_at(
                ep.component,
                arrive,
                LinkDeliver {
                    iface: ep.iface,
                    frame: tx.frame.clone(),
                },
            );
            if fault_dup {
                // The duplicate trails by a switch-requeue delay; it is
                // deliberately jitter-free so duplication alone does not
                // shift the jitter stream for unrelated traffic.
                ctx.post_at(
                    ep.component,
                    arrive + SimDuration::from_micros(10),
                    LinkDeliver {
                        iface: ep.iface,
                        frame: tx.frame.clone(),
                    },
                );
            }
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

    fn setup_link(bw: u64, prop: SimDuration, loss: f64) -> (Engine, ComponentId, ComponentId) {
        let mut e = Engine::new(1);
        let sink = e.add_component(Box::new(Sink { got: vec![] }));
        let link = e.add_component(Box::new(Link::new(
            Endpoint { component: sink, iface: IfaceId(9) }, // end 0 (unused as dst here)
            Endpoint { component: sink, iface: IfaceId(1) }, // end 1
            bw,
            prop,
            loss,
        )));
        (e, sink, link)
    }

    fn frame(bytes: u32) -> Frame {
        Frame::new(NodeAddr(1), NodeAddr(2), bytes, ())
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::from_micros(50), 0.0);
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        // 12 µs serialization + 50 µs propagation.
        assert_eq!(got[0].0.as_nanos(), 62_000);
        assert_eq!(got[0].1, IfaceId(1));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        for _ in 0..3 {
            e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        }
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        let times: Vec<u64> = got.iter().map(|g| g.0.as_nanos()).collect();
        assert_eq!(times, vec![12_000, 24_000, 36_000]);
    }

    #[test]
    fn full_duplex_directions_do_not_contend() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 1, frame: frame(1500) });
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_nanos(), 12_000);
        assert_eq!(got[1].0.as_nanos(), 12_000, "directions are independent");
    }

    #[test]
    fn lossy_link_drops_some_frames() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.5);
        for _ in 0..200 {
            e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(100) });
        }
        e.run_to_completion();
        let n = e.component_ref::<Sink>(sink).unwrap().got.len();
        assert!(n > 50 && n < 150, "got {n} of 200 at 50% loss");
        assert_eq!(e.component_ref::<Link>(link).unwrap().drops as usize, 200 - n);
    }

    #[test]
    fn downed_link_drops_everything() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        e.component_mut::<Link>(link).unwrap().up = false;
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(100) });
        e.run_to_completion();
        assert!(e.component_ref::<Sink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn cancelled_frame_event_releases_the_frame() {
        let (mut e, _sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        let probe = Arc::new(());
        let frame = Frame::new(NodeAddr(1), NodeAddr(2), 1500, probe.clone());
        let before = sim::payload_store_stats();
        let ev = e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame });
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
