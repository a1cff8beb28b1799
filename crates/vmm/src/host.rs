//! The physical-host component: Xen + dom0 + one guest domain.
//!
//! `VmHost` owns the hardware models (clock, shared CPU, disks, NICs),
//! runs the NTP client, drives the guest kernel through its entry points,
//! and implements the paper's *local* live checkpoint (§4.1–4.2):
//!
//! 1. `begin_checkpoint` — the suspend path runs for a few tens of
//!    microseconds (temporal-firewall entry) while the guest still runs;
//! 2. freeze — guest time pins, ticks stop, the kernel closes the
//!    firewall; in-flight block I/O drains through the allowed IRQ path;
//! 3. capture — dom0 snapshots the dirty state (concealed from the guest);
//! 4. the host's [`Participant`] reports done and waits at the
//!    coordinator's barrier, then `resume_guest` — time
//!    unfreezes continuously, the first tick pays a small re-delivery
//!    latency, frames that arrived during the freeze are redelivered with
//!    their original pacing, and the *residual* dom0 work (writing out the
//!    image) steals CPU from the running guest — the only externally
//!    induced disturbances, and exactly the ones §7.1 measures.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use checkpoint::{BusMsg, NodeHooks, Participant, BUS_MSG_BYTES};
use clocksync::{NtpClient, NtpResponse};
use cowstore::{BlockData, BranchingStore, Direction, MirrorTransfer};
use guestos::prog::{CtrlReq, CtrlResp};
use guestos::{ClockEventKind, ClockObservation, GuestAction, Kernel, TcpSegment};
use hwsim::{
    profile, DiskProfile, DiskQueue, Frame, HardwareClock, IfaceId, LanTransmit, LinkDeliver,
    NodeAddr, SharedCpu, Wire,
};
use sim::telemetry::names;
use sim::{
    transmission_time, ActiveSpan, Component, ComponentId, CounterId, Ctx, EventId, HistogramId,
    Payload, SimDuration, SimTime, SpanId, TraceCtx, TraceTag, TrackId,
};

use crate::domain::{Domain, DomainImage};
use crate::tuning::{self, Dom0Job};

/// Where frames for a destination leave this host.
#[derive(Debug)]
pub enum ExpPort {
    /// This host's direction of a point-to-point wire: the host is its
    /// only sender, so the route is where the wire's state lives.
    Wire(Wire),
    /// A shared experiment LAN.
    Lan { lan: ComponentId },
}

/// Internal hypervisor events.
enum VmMsg {
    /// Guest timer tick is due.
    Tick,
    /// Time to send the next NTP poll.
    NtpPoll,
    /// The network backend finished processing one outbound packet.
    NetTxDone,
    /// A block batch completed; carries read results.
    BlockDone {
        batch: u64,
        reads: Vec<(u64, BlockData)>,
    },
    /// A guest CPU burst completed.
    ComputeDone { burst: u64 },
    /// The temporal-firewall entry path finished: freeze now.
    FreezeEntryDone,
    /// Dom0 finished capturing the snapshot.
    CaptureDone,
    /// Redelivery of a frame logged during suspension. Boxed: replays
    /// are rare, and an inline segment would set the size every `Tick`
    /// and `NetTxDone` pays for.
    RxReplay { src: NodeAddr, seg: Box<TcpSegment> },
    /// A wakeup the participant requested.
    Wake { token: u64 },
    /// One background mirror-sync extent finished.
    MirrorBatch { vbas: Vec<u64> },
    /// Idle-priority sync backoff expired; try again.
    MirrorRetry,
}

// One of every packet hop's four events is a `VmMsg` (`NetTxDone`): keep
// it inline in the event slot (see `sim::fits_inline`).
const _: () = assert!(sim::fits_inline::<VmMsg>());

/// Checkpoint progress of the host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CkptPhase {
    /// Guest running normally.
    Idle,
    /// Suspend path running, guest still live.
    Entering,
    /// Frozen; waiting for in-flight block I/O to drain.
    Draining,
    /// Frozen; dom0 capturing the image.
    Capturing,
    /// Frozen; captured, waiting for a resume command.
    AwaitResume,
}

/// A guest control-service request forwarded by its host to the ops node.
#[derive(Clone, Copy, Debug)]
pub struct GuestRpc {
    pub id: u64,
    pub req: CtrlReq,
}

/// The ops node's reply, addressed back to the guest's host.
#[derive(Clone, Copy, Debug)]
pub struct GuestRpcReply {
    pub id: u64,
    pub resp: CtrlResp,
}

/// Posted to the configured component when a mirror transfer drains.
#[allow(dead_code)] // Read by the emulab swap manager via downcast.
pub struct MirrorDrained {
    pub node: NodeAddr,
}

/// Parameters of a mirror synchronization (LVM mirror across NFS, §5.3).
#[derive(Clone, Copy, Debug)]
pub struct MirrorConfig {
    /// One-way latency to the file server on the control net.
    pub latency: SimDuration,
    /// Control-network bandwidth available to sync traffic, bits/s.
    pub net_bps: u64,
    /// Component notified (with [`MirrorDrained`]) when the queue drains.
    pub notify: Option<ComponentId>,
    /// Defer sync ops while the guest's disk is busy — the paper's
    /// rate-limiting function that "slows synchronization activity
    /// relative to normal system I/O". The lazy copy-in path lacked an
    /// effective version of this ("more aggressive prefetching"), which is
    /// why Fig 9's copy-in hurts more than its copy-out.
    pub idle_priority: bool,
}

struct MirrorState {
    transfer: MirrorTransfer,
    cfg: MirrorConfig,
    /// An op is in flight.
    busy: bool,
    notified: bool,
    /// Physical placement cursor: sync I/O against the delta region is
    /// sequential (the mirror leg mirrors a contiguous volume), seeking
    /// only when guest I/O moved the head.
    cursor: u64,
}

/// Statistics for experiment post-processing.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    pub checkpoints: u64,
    /// True time of every temporal-firewall freeze (suspend-skew metric).
    pub freeze_history: Vec<SimTime>,
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub frames_rx_logged: u64,
    pub block_batches: u64,
    pub total_downtime: SimDuration,
}

/// Configuration for one host.
pub struct VmHostConfig {
    pub node: NodeAddr,
    /// The control LAN component.
    pub lan: ComponentId,
    /// Control address of the NTP server (ops node).
    pub ntp_server: NodeAddr,
    /// Control address of the file/name services (guest NFS/DNS RPCs).
    pub services: NodeAddr,
    /// Initial hardware-clock offset from true time, ns.
    pub clock_offset_ns: i64,
    /// Hardware-clock drift, ppm.
    pub clock_drift_ppm: f64,
    /// Control address of the checkpoint coordinator the host's
    /// [`Participant`] reports to. `None` is a standalone host: no
    /// participant runs, and every capture resumes as soon as it is taken.
    pub coordinator: Option<NodeAddr>,
    /// Mean of the exponential processing delay between an event-driven
    /// ("checkpoint now") notification and the capture start: the
    /// stack/VMM delays of §4.3 that make such triggers imprecise. Zero
    /// starts the capture on receipt.
    pub trigger_jitter_mean: SimDuration,
    /// Conceal checkpoint downtime from the guest (the paper's
    /// transparency). `false` gives the conventional stop-and-copy
    /// baseline: time leaks, timers fire late, TCP may retransmit.
    pub conceal_downtime: bool,
}

/// A host's §3.2 in-flight log as [`VmHost::rx_log`] hands it out and
/// [`VmHost::restore`] takes it back: `(offset from the freeze, source,
/// segment)` per frame that arrived while the guest was frozen.
pub type RxLog = Vec<(SimDuration, NodeAddr, TcpSegment)>;

/// One simulated pc3000 machine hosting a guest.
pub struct VmHost {
    cfg: VmHostConfig,
    clock: HardwareClock,
    cpu: SharedCpu,
    disk: DiskQueue,
    /// Second local disk absorbing snapshot images in the background.
    snap_disk_free_at: SimTime,
    store: BranchingStore,
    ntp: NtpClient,
    domain: Option<Domain>,
    /// Experiment-network routes, sorted by destination: a host has a
    /// handful, looked up once per transmitted packet.
    exp_routes: Vec<(NodeAddr, ExpPort)>,
    /// The buffers traded with the kernel's action queue and clock
    /// witness on every pump, so neither side allocates per drain.
    actions: Vec<GuestAction>,
    witnessed: Vec<ClockObservation>,

    // Network backend: segments in transmit order, each already in the
    // shared allocation its frame will keep. Two words an entry, so a
    // push stores them from registers.
    tx_q: VecDeque<(NodeAddr, Arc<TcpSegment>)>,
    tx_busy: bool,
    tx_free_at: SimTime,
    rx_log: Vec<(SimTime, NodeAddr, TcpSegment)>,
    /// End of the in-flight replay window after a resume: new arrivals
    /// queue behind the replayed packets until this instant (§3.2: "to
    /// avoid out-of-order delivery, these new packets must be queued
    /// behind the in-flight packets logged during the checkpoint").
    replay_until: SimTime,

    // Compute backend.
    active_burst: Option<ActiveBurst>,
    burst_q: VecDeque<(u64, u64)>,

    // Checkpoint.
    phase: CkptPhase,
    freeze_real: SimTime,
    last_image: Option<DomainImage>,
    /// Image displaced by the in-flight capture, kept until the epoch
    /// commits so an abort can roll the local sequence back.
    prev_image: Option<DomainImage>,
    /// An abort arrived while the freeze/capture was still in progress;
    /// the in-flight machinery unwinds at its next step.
    abort_pending: bool,
    /// The next capture must be full (non-incremental): the node's
    /// incremental chain is broken — e.g. it was evicted after a crash and
    /// re-admitted — so the stored base its deltas build on is stale.
    full_pending: bool,
    /// Causal context of the in-flight coordinated round; the capture
    /// completion records a flow step against it so Perfetto links this
    /// host's capture into the epoch's cross-host flow.
    flow_ctx: TraceCtx,

    // Ticks.
    next_tick_guest_ns: u64,
    tick_ev: Option<EventId>,

    mirror: Option<MirrorState>,
    /// The epoch-protocol state (and its fault-tolerance settings); it
    /// runs only when the host has a coordinator.
    pub participant: Participant,
    /// Counters.
    pub stats: HostStats,

    tele: Option<HostTele>,
    /// Span opened at the freeze, closed when the guest resumes.
    freeze_span: Option<ActiveSpan>,
    /// Guest clock reads witnessed so far; workloads read the clock per
    /// packet, so only every [`CLOCK_READ_STRIDE`]-th read is traced
    /// (ticks and firewall edges are never sampled away).
    clock_read_seq: u64,
}

/// Trace one guest clock read out of this many (observability sampling;
/// the audit's monotonicity checks hold on any subsequence).
const CLOCK_READ_STRIDE: u64 = 64;

/// Telemetry instrument handles, registered lazily on first use.
#[derive(Clone, Copy)]
struct HostTele {
    downtime: HistogramId,
    freezes: CounterId,
    freeze_span: SpanId,
    /// Dom0/hypervisor timeline row of this host.
    track: TrackId,
    /// Guest-observable clock timeline row of this host's domain.
    guest_track: TrackId,
    ev_freeze: TraceTag,
    ev_capture: TraceTag,
    ev_rx_replay: TraceTag,
    ev_clock_read: TraceTag,
    ev_tick: TraceTag,
    ev_fw: TraceTag,
    ev_flow_capture: TraceTag,
}

#[derive(Clone, Copy, Debug)]
struct ActiveBurst {
    id: u64,
    start: SimTime,
    work: SimDuration,
    ev: EventId,
}

impl VmHost {
    /// Builds a host around a booted kernel and its virtual-disk store.
    pub fn new(cfg: VmHostConfig, store: BranchingStore, kernel: Kernel) -> Self {
        let clock = HardwareClock::new(cfg.clock_offset_ns, cfg.clock_drift_ppm);
        let disk = DiskQueue::new(hwsim::Disk::new(DiskProfile::pc3000_scsi()));
        let mem = profile::GUEST_MEM_BYTES;
        VmHost {
            clock,
            cpu: SharedCpu::new(),
            disk,
            snap_disk_free_at: SimTime::ZERO,
            store,
            ntp: NtpClient::emulab_default(),
            domain: Some(Domain::new(kernel, mem)),
            exp_routes: Vec::new(),
            actions: Vec::new(),
            witnessed: Vec::new(),
            tx_q: VecDeque::new(),
            tx_busy: false,
            tx_free_at: SimTime::ZERO,
            rx_log: Vec::new(),
            replay_until: SimTime::ZERO,
            active_burst: None,
            burst_q: VecDeque::new(),
            phase: CkptPhase::Idle,
            freeze_real: SimTime::ZERO,
            last_image: None,
            prev_image: None,
            abort_pending: false,
            full_pending: false,
            flow_ctx: TraceCtx::NONE,
            next_tick_guest_ns: 0,
            tick_ev: None,
            mirror: None,
            participant: Participant::default(),
            stats: HostStats::default(),
            tele: None,
            freeze_span: None,
            clock_read_seq: 0,
            cfg,
        }
    }

    fn tele(&mut self, ctx: &Ctx<'_>) -> HostTele {
        let node = self.cfg.node.0;
        *self.tele.get_or_insert_with(|| {
            let t = ctx.telemetry();
            HostTele {
                downtime: t.histogram(names::VMHOST_DOWNTIME_NS),
                freezes: t.counter(names::VMHOST_FREEZES),
                freeze_span: t.span(names::SPAN_VMHOST, names::SPAN_FREEZE),
                track: t.track(node, names::TRACK_VMHOST),
                guest_track: t.track(node, names::TRACK_GUEST),
                ev_freeze: t.trace_tag(names::EV_VM_FREEZE),
                ev_capture: t.trace_tag(names::EV_VM_CAPTURE),
                ev_rx_replay: t.trace_tag(names::EV_VM_RX_REPLAY),
                ev_clock_read: t.trace_tag(names::EV_GUEST_CLOCK_READ),
                ev_tick: t.trace_tag(names::EV_GUEST_TICK),
                ev_fw: t.trace_tag(names::EV_GUEST_FW_CLOSED),
                ev_flow_capture: t.trace_tag(names::FLOW_CAPTURE),
            }
        })
    }

    /// Adds (or replaces) an experiment-network route.
    pub fn add_exp_route(&mut self, dst: NodeAddr, port: ExpPort) {
        match self.exp_routes.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => self.exp_routes[i].1 = port,
            Err(i) => self.exp_routes.insert(i, (dst, port)),
        }
    }

    /// This host's address.
    pub fn node(&self) -> NodeAddr {
        self.cfg.node
    }

    /// Attaches the causal context of the coordinated round about to
    /// freeze this host; the capture completion records a flow step
    /// against it. Pass [`TraceCtx::NONE`] to detach (standalone
    /// checkpoints flow nowhere).
    pub fn set_flow_ctx(&mut self, ctx: TraceCtx) {
        self.flow_ctx = ctx;
    }

    /// The guest kernel (panics if no domain is installed).
    pub fn kernel(&self) -> &Kernel {
        &self.domain.as_ref().expect("no domain").kernel
    }

    /// Mutable guest kernel access (spawning programs before start).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.domain.as_mut().expect("no domain").kernel
    }

    /// The domain, if one is installed.
    pub fn domain(&self) -> Option<&Domain> {
        self.domain.as_ref()
    }

    /// The virtual-disk store.
    pub fn store(&self) -> &BranchingStore {
        &self.store
    }

    /// Mutable store access (installing aggregates, snoops).
    pub fn store_mut(&mut self) -> &mut BranchingStore {
        &mut self.store
    }

    /// The hardware clock.
    pub fn clock(&self) -> &HardwareClock {
        &self.clock
    }

    /// The local clock reading (ns) at true time `now`.
    pub fn clock_ns(&self, now: SimTime) -> f64 {
        self.clock.read_ns(now)
    }

    /// Guest-visible time at true time `now`.
    pub fn guest_ns(&self, now: SimTime) -> u64 {
        self.domain
            .as_ref()
            .expect("no domain")
            .guest_ns(self.clock.read_ns(now))
    }

    /// The last captured checkpoint image.
    pub fn last_image(&self) -> Option<&DomainImage> {
        self.last_image.as_ref()
    }

    /// True while the guest is frozen.
    pub fn frozen(&self) -> bool {
        self.phase != CkptPhase::Idle && self.phase != CkptPhase::Entering
    }

    /// True while a captured (or restored) frozen domain awaits resume.
    pub fn awaiting_resume(&self) -> bool {
        self.phase == CkptPhase::AwaitResume
    }

    /// True from [`VmHost::begin_checkpoint`] until the guest runs again
    /// (including an aborted capture that is still unwinding); a second
    /// `begin_checkpoint` in this window would panic.
    pub fn checkpoint_running(&self) -> bool {
        self.phase != CkptPhase::Idle
    }

    /// Boots the host: first tick, NTP. A host whose domain was installed
    /// frozen (stateful swap-in) starts only its NTP side; the guest's
    /// ticks begin at [`VmHost::resume_guest`].
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.store.attach_telemetry(ctx.telemetry(), self.cfg.node.0);
        if !self.frozen() {
            let g = self.guest_ns(ctx.now());
            let tick = self.tick_ns();
            self.next_tick_guest_ns = (g / tick + 1) * tick;
            self.schedule_tick(ctx, SimDuration::ZERO);
        }
        // Stagger the first NTP poll a little per node.
        let d = SimDuration::from_millis(ctx.rng().range_u64(50, 500));
        ctx.post_self(d, VmMsg::NtpPoll);
        if !self.frozen() {
            self.pump_kernel(ctx);
        }
    }

    fn tick_ns(&self) -> u64 {
        1_000_000_000 / profile::GUEST_HZ as u64
    }

    /// Real time at which the guest clock will read `guest_target_ns`.
    fn when_guest(&self, now: SimTime, guest_target_ns: u64) -> SimTime {
        let d = self.domain.as_ref().expect("no domain");
        assert!(!d.frozen(), "no guest-time mapping while frozen");
        let clock_target = d.clock_ns_when_guest(guest_target_ns);
        self.clock.when_reads(now, clock_target)
    }

    /// Sets the guest's time-dilation factor (§6's replay knob): guest
    /// time advances at `1/dilation` of real time from now on, without a
    /// discontinuity. Tick delivery is rescheduled to the dilated scale.
    ///
    /// # Panics
    ///
    /// Panics while frozen or on a non-positive factor.
    pub fn set_time_dilation(&mut self, ctx: &mut Ctx<'_>, dilation: f64) {
        let clock_ns = self.clock.read_ns(ctx.now());
        self.domain
            .as_mut()
            .expect("no domain")
            .set_dilation(clock_ns, dilation);
        if let Some(ev) = self.tick_ev.take() {
            ctx.cancel(ev);
        }
        self.schedule_tick(ctx, SimDuration::ZERO);
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx<'_>, extra_latency: SimDuration) {
        let jitter = ctx
            .rng()
            .exponential(tuning::TICK_JITTER_MEAN.as_nanos() as f64)
            as u64;
        let target = self.next_tick_guest_ns + jitter + extra_latency.as_nanos();
        let at = self.when_guest(ctx.now(), target).max(ctx.now());
        let ev = ctx.post_at(ctx.self_id(), at, VmMsg::Tick);
        self.tick_ev = Some(ev);
    }

    // ------------------------------------------------------------------
    // Kernel action pump.
    // ------------------------------------------------------------------

    fn pump_kernel(&mut self, ctx: &mut Ctx<'_>) {
        if self.domain.is_none() {
            return;
        }
        // Republish the kernel's clock witness as guest-track trace
        // events: the transparency auditor works from what the guest
        // actually observed, not from what the vmm intended.
        let tele = self.tele(ctx);
        let domain = self.domain.as_mut().expect("domain present");
        if !domain.kernel.witness.is_empty() {
            let t = ctx.telemetry();
            let now = ctx.now();
            domain.kernel.witness.drain(&mut self.witnessed);
            for obs in &self.witnessed {
                let g = obs.guest_ns as i64;
                match obs.kind {
                    ClockEventKind::ClockRead => {
                        if self.clock_read_seq.is_multiple_of(CLOCK_READ_STRIDE) {
                            t.trace_instant(tele.guest_track, tele.ev_clock_read, now, g);
                        }
                        self.clock_read_seq += 1;
                    }
                    ClockEventKind::Tick => {
                        t.trace_instant(tele.guest_track, tele.ev_tick, now, g)
                    }
                    ClockEventKind::FirewallClosed => {
                        t.trace_begin(tele.guest_track, tele.ev_fw, now, g)
                    }
                    ClockEventKind::FirewallOpened => {
                        t.trace_end(tele.guest_track, tele.ev_fw, now, g)
                    }
                }
            }
            self.witnessed.clear();
        }
        let mut actions = std::mem::take(&mut self.actions);
        domain.kernel.drain_actions(&mut actions);
        for a in actions.drain(..) {
            match a {
                GuestAction::NetTx { dst, seg } => {
                    self.tx_q.push_back((dst, seg));
                    self.kick_tx(ctx);
                }
                GuestAction::BlockIo(batch) => {
                    self.stats.block_batches += 1;
                    let now = ctx.now();
                    let mut reads = Vec::new();
                    let mut bytes = 0u64;
                    let bs = self.store.block_size() as u64;
                    let mut done = now;
                    // Split borrow: rng comes from ctx, store+disk from self.
                    for op in &batch.ops {
                        bytes += bs;
                        if op.write {
                            let data = op.data.clone().expect("write carries data");
                            done = self.store.write_block(now, op.vba, data, &mut self.disk, ctx.rng());
                            if let Some(m) = self.mirror.as_mut() {
                                if m.transfer.direction() == Direction::CopyOut {
                                    m.transfer.enqueue_or_dirty(op.vba);
                                    m.notified = false;
                                }
                            }
                        } else {
                            // Lazy copy-in: a read of a block that has not
                            // been synchronized yet redirects to the remote
                            // mirror leg (network cost) and is promoted.
                            let mut remote = SimDuration::ZERO;
                            if let Some(m) = self.mirror.as_mut() {
                                if m.transfer.direction() == Direction::CopyIn
                                    && m.transfer.promote(op.vba)
                                {
                                    m.transfer.mark_copied(op.vba);
                                    remote = m.cfg.latency * 2
                                        + transmission_time(bs, m.cfg.net_bps);
                                }
                            }
                            let (data, t) = self.store.read_block(now, op.vba, &mut self.disk, ctx.rng());
                            reads.push((op.vba, data));
                            done = t + remote;
                        }
                    }
                    if batch.ops.is_empty() {
                        done = self.disk.free_at().max(now);
                    }
                    self.domain
                        .as_mut()
                        .expect("domain present")
                        .note_dirty(bytes);
                    ctx.post_at(
                        ctx.self_id(),
                        done,
                        VmMsg::BlockDone {
                            batch: batch.id,
                            reads,
                        },
                    );
                }
                GuestAction::Compute { id, ns } => {
                    self.burst_q.push_back((id, ns));
                    self.kick_compute(ctx);
                }
                GuestAction::CtrlRpc { id, req } => {
                    let services = self.cfg.services;
                    self.send_ctrl(ctx, services, 160, GuestRpc { id, req });
                }
                GuestAction::TriggerCheckpoint => {
                    if let Some(coord) = self.cfg.coordinator {
                        self.send_ctrl(ctx, coord, BUS_MSG_BYTES, BusMsg::RequestCheckpoint);
                    }
                }
            }
        }
        self.actions = actions;
    }

    // ------------------------------------------------------------------
    // Network backend.
    // ------------------------------------------------------------------

    fn kick_tx(&mut self, ctx: &mut Ctx<'_>) {
        if self.tx_busy || self.tx_q.is_empty() {
            return;
        }
        self.tx_busy = true;
        // Per-packet processing cost, stretched by dom0 contention.
        let start = ctx.now().max(self.tx_free_at);
        let done = self.cpu.guest_completion(start, tuning::TX_PROC_COST);
        self.tx_free_at = done;
        ctx.post_at(ctx.self_id(), done, VmMsg::NetTxDone);
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>) {
        self.tx_busy = false;
        if let Some((dst, seg)) = self.tx_q.pop_front() {
            // The port is used in place: a wire's state is in the route.
            // Unroutable frames are dropped and never count as sent.
            if let Ok(i) = self.exp_routes.binary_search_by_key(&dst, |&(d, _)| d) {
                let frame = Frame::shared(self.cfg.node, dst, seg.wire_bytes(), seg);
                match &mut self.exp_routes[i].1 {
                    ExpPort::Wire(wire) => wire.send(ctx, frame),
                    ExpPort::Lan { lan } => {
                        ctx.post(*lan, SimDuration::ZERO, LanTransmit { frame });
                    }
                }
                self.stats.frames_tx += 1;
            }
        }
        self.kick_tx(ctx);
    }

    fn on_exp_rx(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        let Some(seg) = frame.payload::<TcpSegment>() else {
            return; // Not TCP traffic; ignore.
        };
        self.stats.frames_rx += 1;
        if self.frozen() {
            // Physically in flight during the checkpoint: log for replay
            // with original pacing (§3.2).
            self.rx_log.push((ctx.now(), frame.src, seg.clone()));
            self.stats.frames_rx_logged += 1;
            return;
        }
        if ctx.now() < self.replay_until {
            // The replay log is still draining: queue behind it so logged
            // and fresh packets stay in order.
            let wire = SimDuration::from_micros(2);
            self.replay_until += wire;
            let src = frame.src;
            let seg = Box::new(seg.clone());
            ctx.post_at(ctx.self_id(), self.replay_until, VmMsg::RxReplay { src, seg });
            return;
        }
        let g = self.guest_ns(ctx.now());
        if let Some(d) = self.domain.as_mut() {
            // Streamed network data recycles socket-buffer pages; it does
            // not grow the dirty set the way file I/O does, so it is not
            // counted here.
            d.kernel.on_net_rx(g, frame.src, seg);
        }
        self.pump_kernel(ctx);
    }

    // ------------------------------------------------------------------
    // Compute backend.
    // ------------------------------------------------------------------

    fn kick_compute(&mut self, ctx: &mut Ctx<'_>) {
        if self.active_burst.is_some() || self.frozen() {
            return;
        }
        let Some((id, ns)) = self.burst_q.pop_front() else {
            return;
        };
        let start = ctx.now();
        let work = SimDuration::from_nanos(ns);
        let done = self.cpu.guest_completion(start, work);
        let ev = ctx.post_at(ctx.self_id(), done, VmMsg::ComputeDone { burst: id });
        self.active_burst = Some(ActiveBurst {
            id,
            start,
            work,
            ev,
        });
    }

    /// Reserves dom0 CPU and restretches the active guest compute burst
    /// around it. The frame in the netback keeps its departure: its
    /// `NetTxDone` was posted when `kick_tx` took it, and only the frames
    /// kicked after this wait for dom0.
    fn reserve_dom0(&mut self, ctx: &mut Ctx<'_>, work: SimDuration) {
        self.cpu.reserve_dom0(ctx.now(), work);
        if let Some(b) = self.active_burst {
            let done = self.cpu.guest_completion(b.start, b.work);
            ctx.cancel(b.ev);
            let ev = ctx.post_at(ctx.self_id(), done.max(ctx.now()), VmMsg::ComputeDone { burst: b.id });
            self.active_burst = Some(ActiveBurst { ev, ..b });
        }
    }

    /// Runs a dom0 management job (§7.1's ls / sum / xm list experiment).
    pub fn run_dom0_job(&mut self, ctx: &mut Ctx<'_>, job: Dom0Job) {
        let (lo, hi) = job.cost_range();
        let cost =
            SimDuration::from_nanos(ctx.rng().range_u64(lo.as_nanos(), hi.as_nanos() + 1));
        self.reserve_dom0(ctx, cost);
    }

    // ------------------------------------------------------------------
    // Control-service RPC boundary (§5.2 timestamp transduction).
    // ------------------------------------------------------------------

    /// Converts a real (testbed-clock) timestamp to guest virtual time:
    /// "We convert timestamps found in the inbound packets to the guest
    /// system's virtual time." The concealed downtime is subtracted, so a
    /// file written before a long swap-out shows an mtime consistent with
    /// the guest's own clock after swap-in.
    fn transduce_in(&self, mtime_real_ns: u64) -> u64 {
        let d = self.domain.as_ref().expect("no domain");
        (mtime_real_ns as f64 - d.concealed_clock_ns).max(0.0) as u64
    }

    fn on_guest_rpc_reply(&mut self, ctx: &mut Ctx<'_>, reply: GuestRpcReply) {
        if self.frozen() {
            // Rare race: the reply crossed the checkpoint; drop it — NFS
            // clients retry (the protocols are stateless by design, §5.2).
            return;
        }
        let resp = match reply.resp {
            CtrlResp::NfsAttr { size, mtime_ns } => CtrlResp::NfsAttr {
                size,
                mtime_ns: self.transduce_in(mtime_ns),
            },
            CtrlResp::NfsWriteOk { size, mtime_ns } => CtrlResp::NfsWriteOk {
                size,
                mtime_ns: self.transduce_in(mtime_ns),
            },
            CtrlResp::NfsData { bytes, mtime_ns } => CtrlResp::NfsData {
                bytes,
                mtime_ns: self.transduce_in(mtime_ns),
            },
            other => other,
        };
        let g = self.guest_ns(ctx.now());
        if let Some(d) = self.domain.as_mut() {
            d.kernel.on_ctrl_rpc(g, reply.id, resp);
        }
        self.pump_kernel(ctx);
    }

    // ------------------------------------------------------------------
    // NTP.
    // ------------------------------------------------------------------

    fn on_ntp_poll(&mut self, ctx: &mut Ctx<'_>) {
        let t1 = self.clock.read_ns(ctx.now());
        let req = self.ntp.begin_poll(t1);
        self.send_ctrl(ctx, self.cfg.ntp_server, 90, req);
        ctx.post_self(self.ntp.next_poll_in(), VmMsg::NtpPoll);
    }

    fn on_ntp_response(&mut self, ctx: &mut Ctx<'_>, resp: NtpResponse) {
        let t4 = self.clock.read_ns(ctx.now());
        let action = self.ntp.on_response(resp, t4);
        let now = ctx.now();
        self.ntp.apply(&mut self.clock, now, action);
    }

    /// Sends a payload over the control LAN.
    pub fn send_ctrl<T: Any + Send + Sync>(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: NodeAddr,
        wire_bytes: u32,
        payload: T,
    ) {
        let frame = Frame::new(self.cfg.node, dst, wire_bytes, payload);
        ctx.post(self.cfg.lan, SimDuration::ZERO, LanTransmit { frame });
    }

    // ------------------------------------------------------------------
    // The epoch-protocol participant (§4.3).
    // ------------------------------------------------------------------

    /// Runs one participant entry point over this host's hooks; a
    /// standalone host runs none. The participant is copied out for the
    /// call so the hooks can borrow the whole host.
    fn drive(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Participant, &mut HostIo<'_, '_>)) {
        let Some(coordinator) = self.cfg.coordinator else {
            return;
        };
        let mut p = self.participant;
        f(&mut p, &mut HostIo { host: self, ctx, coordinator });
        self.participant = p;
    }

    // ------------------------------------------------------------------
    // Local checkpoint (§4).
    // ------------------------------------------------------------------

    /// Demands that the next capture be full (non-incremental): the whole
    /// memory image ships instead of the dirty delta. Used when the
    /// incremental chain broke — a crashed node re-admitted to its group
    /// checkpoints against a stale stored base. The demand persists across
    /// aborted epochs and clears only when a capture commits locally.
    pub fn request_full_checkpoint(&mut self) {
        self.full_pending = true;
    }

    /// True while a full (non-incremental) capture is pending.
    pub fn full_capture_pending(&self) -> bool {
        self.full_pending
    }

    /// Starts the local checkpoint: the suspend path runs briefly before
    /// time freezes.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint is already in progress.
    pub fn begin_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(self.phase, CkptPhase::Idle, "checkpoint already running");
        self.phase = CkptPhase::Entering;
        let entry = ctx.rng().range_u64(
            tuning::FW_ENTRY_MIN.as_nanos(),
            tuning::FW_ENTRY_MAX.as_nanos() + 1,
        );
        ctx.post_self(SimDuration::from_nanos(entry), VmMsg::FreezeEntryDone);
    }

    fn on_freeze(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(self.phase, CkptPhase::Entering);
        if self.abort_pending {
            // The abort won the race with the firewall entry: nothing has
            // been frozen or canceled yet, so the checkpoint never starts.
            self.abort_pending = false;
            self.phase = CkptPhase::Idle;
            return;
        }
        self.freeze_real = ctx.now();
        self.stats.freeze_history.push(ctx.now());
        let t = self.tele(ctx);
        ctx.telemetry().inc(t.freezes);
        self.freeze_span = Some(ctx.telemetry().span_enter(t.freeze_span, ctx.now()));
        ctx.telemetry().trace_begin(t.track, t.ev_freeze, ctx.now(), 0);
        // Stop the tick source.
        if let Some(ev) = self.tick_ev.take() {
            ctx.cancel(ev);
        }
        // Pause an in-progress CPU burst, banking its remaining work.
        if let Some(b) = self.active_burst.take() {
            ctx.cancel(b.ev);
            let progressed = ctx
                .now()
                .saturating_duration_since(b.start)
                .saturating_sub(self.cpu.dom0_time_in(b.start, ctx.now()));
            let left = b.work.saturating_sub(progressed);
            if !left.is_zero() {
                self.burst_q.push_front((b.id, left.as_nanos()));
            } else {
                // Completed exactly at the boundary: deliver on resume.
                self.burst_q.push_front((b.id, 1));
            }
        }
        let clock_ns = self.clock.read_ns(ctx.now());
        let d = self.domain.as_mut().expect("no domain to checkpoint");
        let frozen = d.freeze(clock_ns);
        let ready = d.kernel.prepare_suspend(frozen);
        self.phase = CkptPhase::Draining;
        self.pump_kernel(ctx);
        if ready {
            self.start_capture(ctx);
        }
    }

    fn start_capture(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(self.phase, CkptPhase::Draining);
        self.phase = CkptPhase::Capturing;
        let t = self.tele(ctx);
        ctx.telemetry().trace_begin(t.track, t.ev_capture, ctx.now(), 0);
        let d = self.domain.as_ref().expect("domain present");
        let dirty = (d.dirty_since_ckpt + tuning::DIRTY_FLOOR).min(d.mem_bytes);
        let capture = transmission_time(dirty, tuning::CAPTURE_BPS * 8);
        ctx.post_self(capture, VmMsg::CaptureDone);
    }

    fn on_capture_done(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(self.phase, CkptPhase::Capturing);
        let t = self.tele(ctx);
        if self.abort_pending {
            // The epoch aborted mid-capture: discard the would-be image
            // (dirty tracking keeps accumulating toward the next committed
            // checkpoint) and resume as if nothing had been triggered.
            self.abort_pending = false;
            self.stats.freeze_history.pop();
            ctx.telemetry().trace_end(t.track, t.ev_capture, ctx.now(), 0);
            self.phase = CkptPhase::AwaitResume;
            self.resume_guest(ctx);
            return;
        }
        let d = self.domain.as_mut().expect("domain present");
        if self.full_pending {
            // The incremental chain is broken: mark every page dirty so
            // this capture ships the whole memory image. The latch clears
            // only when a capture actually happens — an abort leaves it
            // set (the abort path above returns before reaching here).
            let mem = d.mem_bytes;
            d.note_dirty(mem);
            self.full_pending = false;
        }
        let mut image = d.capture(tuning::DIRTY_FLOOR);
        ctx.telemetry()
            .trace_end(t.track, t.ev_capture, ctx.now(), image.dirty_bytes as i64);
        ctx.telemetry()
            .flow_step(t.track, t.ev_flow_capture, ctx.now(), self.flow_ctx);
        // The vCPU context: compute bursts banked at the freeze belong to
        // the image — a restored CPU-bound thread must keep computing.
        image.pending_bursts = self.burst_q.iter().copied().collect();
        // Background write of the image to the second local disk.
        let write = transmission_time(image.dirty_bytes, tuning::SNAPSHOT_DISK_BPS * 8);
        self.snap_disk_free_at = self.snap_disk_free_at.max(ctx.now()) + write;
        self.prev_image = self.last_image.take();
        self.last_image = Some(image);
        self.stats.checkpoints += 1;
        self.phase = CkptPhase::AwaitResume;
        match self.cfg.coordinator {
            Some(_) => self.drive(ctx, |p, io| p.on_captured(io)),
            None => self.resume_guest(ctx),
        }
    }

    /// Resumes the guest after a checkpoint (or a restore).
    ///
    /// # Panics
    ///
    /// Panics unless a captured, frozen domain is awaiting resume.
    pub fn resume_guest(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(self.phase, CkptPhase::AwaitResume, "nothing to resume");
        // The epoch outlives its rollback window once the guest runs again.
        self.prev_image = None;
        let now = ctx.now();
        let downtime = now.saturating_duration_since(self.freeze_real);
        self.stats.total_downtime += downtime;
        let t = self.tele(ctx);
        ctx.telemetry().record_duration(t.downtime, downtime);
        if let Some(span) = self.freeze_span.take() {
            ctx.telemetry().span_exit(span, now);
            ctx.telemetry()
                .trace_end(t.track, t.ev_freeze, now, downtime.as_nanos() as i64);
        }
        let clock_ns = self.clock.read_ns(now);
        let conceal = self.cfg.conceal_downtime;
        let d = self.domain.as_mut().expect("domain present");
        let resumed_guest_ns = if conceal {
            d.unfreeze(clock_ns)
        } else {
            d.unfreeze_leaking(clock_ns)
        };
        d.kernel.finish_resume(resumed_guest_ns);
        if !conceal {
            // Guest time jumped: realign the tick source to the new time.
            let tick = self.tick_ns();
            self.next_tick_guest_ns = (resumed_guest_ns / tick + 1) * tick;
        }
        self.phase = CkptPhase::Idle;

        // Dom0 history older than anything still asked about — the start
        // of a burst in progress (the freeze banked it, so normally none)
        // or this instant — goes: each round forgets the previous ones.
        let horizon = self.active_burst.map_or(now, |b| b.start.min(now));
        self.cpu.forget_before(horizon);

        // Residual dom0 work: compress + push out the captured image. The
        // credit scheduler spreads it in slices rather than monopolizing
        // the CPU, so running guests see a shallow dip (Fig 6), not a
        // stall; a CPU-bound loop absorbs the whole cost (Fig 5's ≤27 ms).
        let dirty = self.last_image.as_ref().map(|i| i.dirty_bytes).unwrap_or(0);
        let residual = tuning::RESIDUAL_FIXED
            + transmission_time(dirty, tuning::RESIDUAL_BPS * 8);
        self.cpu.reserve_dom0_sliced(
            now,
            residual,
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        if let Some(b) = self.active_burst {
            let done = self.cpu.guest_completion(b.start, b.work);
            ctx.cancel(b.ev);
            let ev = ctx.post_at(
                ctx.self_id(),
                done.max(ctx.now()),
                VmMsg::ComputeDone { burst: b.id },
            );
            self.active_burst = Some(ActiveBurst { ev, ..b });
        }

        // First tick pays the IRQ re-delivery latency.
        let extra = SimDuration::from_nanos(ctx.rng().range_u64(
            tuning::RESUME_IRQ_MIN.as_nanos(),
            tuning::RESUME_IRQ_MAX.as_nanos() + 1,
        ));
        self.schedule_tick(ctx, extra);

        // Restart banked CPU work.
        self.kick_compute(ctx);

        // Redeliver frames logged during the freeze, preserving their
        // inter-arrival pacing (clamped: the dead time between the skew
        // window and the resume boundary carries no information and would
        // otherwise stall delivery for the whole downtime).
        let log = std::mem::take(&mut self.rx_log);
        let frames = log.len() as i64;
        let mut at = now;
        let mut prev_arrival: Option<SimTime> = None;
        for (arrival, src, seg) in log {
            let gap = match prev_arrival {
                Some(p) => arrival
                    .saturating_duration_since(p)
                    .min(SimDuration::from_millis(1)),
                None => SimDuration::ZERO,
            };
            prev_arrival = Some(arrival);
            at += gap;
            let seg = Box::new(seg);
            ctx.post_at(ctx.self_id(), at, VmMsg::RxReplay { src, seg });
        }
        self.replay_until = at;
        if frames > 0 {
            // The replay window is fully scheduled here, so its end can
            // be stamped at the (future) last delivery time up front.
            ctx.telemetry().trace_begin(t.track, t.ev_rx_replay, now, frames);
            ctx.telemetry().trace_end(t.track, t.ev_rx_replay, at, frames);
        }
        self.pump_kernel(ctx);
    }

    /// Aborts the in-flight checkpoint epoch (coordinator `Abort`):
    /// whatever phase the local sequence is in, the host ends up running
    /// as if the checkpoint had never been triggered. Returns `true` when
    /// an already captured image was rolled back (the caller un-counts
    /// that checkpoint).
    pub fn abort_checkpoint(&mut self, ctx: &mut Ctx<'_>) -> bool {
        match self.phase {
            // Wake timer not fired yet; the participant suppresses the wake.
            CkptPhase::Idle => false,
            // Mid-flight: flag it and let the machinery unwind at its
            // next step (freeze entry or capture completion).
            CkptPhase::Entering | CkptPhase::Draining | CkptPhase::Capturing => {
                self.abort_pending = true;
                false
            }
            // Captured and waiting at the barrier: roll the local
            // checkpoint sequence back and resume through the firewall.
            CkptPhase::AwaitResume => {
                self.last_image = self.prev_image.take();
                self.stats.checkpoints = self.stats.checkpoints.saturating_sub(1);
                self.stats.freeze_history.pop();
                self.resume_guest(ctx);
                true
            }
        }
    }

    /// The in-flight packets logged during the current suspension, as
    /// offsets from the freeze instant, copied (§3.2's replay log — part
    /// of the preserved state of a swap-out or a snapshot).
    ///
    /// # Panics
    ///
    /// Panics unless the host is frozen.
    pub fn rx_log(&self) -> RxLog {
        assert!(self.frozen(), "rx log only exists while suspended");
        let freeze = self.freeze_real;
        self.rx_log
            .iter()
            .map(|(at, src, seg)| (at.saturating_duration_since(freeze), *src, seg.clone()))
            .collect()
    }

    /// Installs a restored frozen domain and its in-flight log (stateful
    /// swap-in, time travel). A held capture, if there is one, is dropped
    /// with the execution it froze. The domain arrives frozen and resumes
    /// via [`VmHost::resume_guest`], which replays `rx_log` with its
    /// original pacing.
    ///
    /// # Panics
    ///
    /// Panics if a capture is still in progress.
    pub fn restore(&mut self, ctx: &mut Ctx<'_>, image: &DomainImage, rx_log: RxLog) {
        assert!(
            matches!(self.phase, CkptPhase::Idle | CkptPhase::AwaitResume),
            "host busy"
        );
        if let Some(ev) = self.tick_ev.take() {
            ctx.cancel(ev);
        }
        self.active_burst = None;
        self.burst_q = image.pending_bursts.iter().copied().collect();
        self.tx_q.clear();
        self.tx_busy = false;
        self.domain = Some(image.restore());
        let freeze = ctx.now();
        self.freeze_real = freeze;
        self.rx_log = rx_log
            .into_iter()
            .map(|(off, src, seg)| (freeze + off, src, seg))
            .collect();
        self.next_tick_guest_ns = {
            let tick = self.tick_ns();
            (image.guest_ns / tick + 1) * tick
        };
        self.phase = CkptPhase::AwaitResume;
    }

    // ------------------------------------------------------------------
    // Mirror synchronization (background data transfer, §5.3).
    // ------------------------------------------------------------------

    /// Attaches a mirror transfer; background sync starts immediately.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already attached.
    pub fn attach_mirror(&mut self, ctx: &mut Ctx<'_>, transfer: MirrorTransfer, cfg: MirrorConfig) {
        assert!(self.mirror.is_none(), "mirror already attached");
        let cursor = self.store.blocks(); // The delta region of the disk.
        self.mirror = Some(MirrorState {
            transfer,
            cfg,
            busy: false,
            notified: false,
            cursor,
        });
        self.kick_mirror(ctx);
    }

    /// Detaches the mirror, returning its transfer state.
    pub fn detach_mirror(&mut self) -> Option<MirrorTransfer> {
        self.mirror.take().map(|m| m.transfer)
    }

    /// Blocks still pending synchronization.
    pub fn mirror_remaining(&self) -> Option<usize> {
        self.mirror.as_ref().map(|m| m.transfer.remaining())
    }

    /// The attached transfer (inspection).
    pub fn mirror_transfer(&self) -> Option<&MirrorTransfer> {
        self.mirror.as_ref().map(|m| &m.transfer)
    }

    fn kick_mirror(&mut self, ctx: &mut Ctx<'_>) {
        /// Blocks synced per operation: LVM mirror regions move in 1 MiB
        /// extents (and the elevator merges adjacent sync I/O), so the
        /// seek cost amortizes over a large sequential burst. Idle-priority
        /// sync uses small extents so a burst it starts in an idle window
        /// barely delays the foreground I/O that arrives next.
        const EXTENT: usize = 256;
        const EXTENT_IDLE: usize = 32;

        let now = ctx.now();
        let block_size = self.store.block_size() as u64;
        let disk_blocks = self.disk.disk().profile().blocks;
        let disk_idle = self.disk.idle(now);
        let Some(m) = self.mirror.as_mut() else {
            return;
        };
        if m.busy {
            return;
        }
        if m.cfg.idle_priority && !disk_idle {
            // Back off behind foreground I/O; retry shortly.
            m.busy = true;
            ctx.post_self(SimDuration::from_millis(25), VmMsg::MirrorRetry);
            return;
        }
        let extent = if m.cfg.idle_priority { EXTENT_IDLE } else { EXTENT };
        // Pop an extent's worth of blocks under the rate limit.
        let mut batch = Vec::new();
        let mut start = now;
        while batch.len() < extent {
            let Some((vba, s)) = m.transfer.pop_next(now) else {
                break;
            };
            start = start.max(s);
            batch.push(vba);
        }
        if batch.is_empty() {
            if !m.notified {
                m.notified = true;
                if let Some(dst) = m.cfg.notify {
                    let node = self.cfg.node;
                    ctx.post(dst, SimDuration::ZERO, MirrorDrained { node });
                }
            }
            return;
        }
        m.busy = true;
        let nblocks = batch.len() as u64;
        // Placement: copy-in fills the delta region sequentially through
        // its own cursor; copy-out reads blocks the guest wrote recently,
        // which sit near the log head — the elevator services them with
        // next-to-no seeking.
        let phys = match m.transfer.direction() {
            Direction::CopyIn => {
                if m.cursor + nblocks >= disk_blocks {
                    m.cursor = self.store.blocks().min(disk_blocks - nblocks - 1);
                }
                let p = m.cursor;
                m.cursor += nblocks;
                p
            }
            Direction::CopyOut => self
                .disk
                .disk()
                .head()
                .min(disk_blocks - nblocks - 1),
        };
        let net = m.cfg.latency + transmission_time(block_size * nblocks, m.cfg.net_bps);
        let done = match m.transfer.direction() {
            Direction::CopyIn => {
                // Fetch over the net, then write to the local disk — the
                // local write contends with guest I/O (Fig 9).
                let arrive = start.max(now) + net;
                self.disk.submit(
                    arrive,
                    ctx.rng(),
                    hwsim::DiskRequest {
                        op: hwsim::DiskOp::Write,
                        block: phys,
                        nblocks,
                    },
                )
            }
            Direction::CopyOut => {
                // Read locally (contending), then push over the net.
                let read_done = self.disk.submit(
                    start.max(now),
                    ctx.rng(),
                    hwsim::DiskRequest {
                        op: hwsim::DiskOp::Read,
                        block: phys,
                        nblocks,
                    },
                );
                read_done + net
            }
        };
        ctx.post_at(ctx.self_id(), done, VmMsg::MirrorBatch { vbas: batch });
    }

    fn on_mirror_batch(&mut self, ctx: &mut Ctx<'_>, vbas: Vec<u64>) {
        if let Some(m) = self.mirror.as_mut() {
            for vba in vbas {
                m.transfer.mark_copied(vba);
            }
            m.busy = false;
            m.notified = false;
        }
        self.kick_mirror(ctx);
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.frozen() {
            return; // A stale tick that raced the freeze.
        }
        let g = self.guest_ns(ctx.now());
        if let Some(d) = self.domain.as_mut() {
            d.kernel.on_timer_tick(g);
        }
        self.next_tick_guest_ns += self.tick_ns();
        self.schedule_tick(ctx, SimDuration::ZERO);
        self.pump_kernel(ctx);
    }

    fn on_block_done(&mut self, ctx: &mut Ctx<'_>, batch: u64, reads: Vec<(u64, BlockData)>) {
        let g = {
            let d = self.domain.as_ref().expect("domain present");
            d.guest_ns(self.clock.read_ns(ctx.now()))
        };
        if let Some(d) = self.domain.as_mut() {
            d.kernel.on_block_complete(g, batch, reads);
        }
        self.pump_kernel(ctx);
        if self.phase == CkptPhase::Draining
            && self.domain.as_ref().expect("domain").kernel.suspend_ready()
        {
            self.start_capture(ctx);
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, burst: u64) {
        match self.active_burst {
            Some(b) if b.id == burst => {
                self.active_burst = None;
            }
            _ => return, // Cancelled/stale completion.
        }
        let g = self.guest_ns(ctx.now());
        if let Some(d) = self.domain.as_mut() {
            d.kernel.on_compute_done(g, burst);
        }
        self.pump_kernel(ctx);
        self.kick_compute(ctx);
    }
}

/// [`NodeHooks`] over a host and the event context it is handling.
struct HostIo<'a, 'c> {
    host: &'a mut VmHost,
    ctx: &'a mut Ctx<'c>,
    coordinator: NodeAddr,
}

impl NodeHooks for HostIo<'_, '_> {
    fn send(&mut self, msg: BusMsg) {
        if let BusMsg::NotifyAck { trace, .. } = msg {
            // Looked up here rather than in `HostTele`: instruments are
            // registered lazily, and registration order shows in exports.
            let t = self.ctx.telemetry();
            let track = t.track(self.host.cfg.node.0, names::TRACK_VMHOST);
            let tag = t.trace_tag(names::FLOW_ACK);
            t.flow_step(track, tag, self.ctx.now(), trace);
        }
        self.host.send_ctrl(self.ctx, self.coordinator, BUS_MSG_BYTES, msg);
    }

    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64) {
        // A retried notification can carry a target already in the past;
        // fire immediately rather than scheduling into history.
        let now = self.ctx.now();
        let at = self.host.clock.when_reads(now, clock_ns).max(now);
        self.ctx.post_at(self.ctx.self_id(), at, VmMsg::Wake { token });
    }

    fn wake_after(&mut self, d: SimDuration, token: u64) {
        self.ctx.post_self(d, VmMsg::Wake { token });
    }

    fn trigger_delay(&mut self) -> Option<SimDuration> {
        let mean = self.host.cfg.trigger_jitter_mean.as_nanos() as f64;
        (mean > 0.0).then(|| SimDuration::from_nanos(self.ctx.rng().exponential(mean) as u64))
    }

    fn begin_capture(&mut self, trace: TraceCtx) -> bool {
        if self.host.checkpoint_running() {
            return false;
        }
        self.host.set_flow_ctx(trace);
        self.host.begin_checkpoint(self.ctx);
        true
    }

    fn held(&self) -> bool {
        self.host.awaiting_resume()
    }

    fn release(&mut self) {
        self.host.resume_guest(self.ctx);
    }

    fn rollback(&mut self) -> bool {
        self.host.abort_checkpoint(self.ctx)
    }

    fn request_full(&mut self) {
        self.host.request_full_checkpoint();
    }

    fn image_bytes(&self) -> u64 {
        self.host.last_image().map_or(0, |i| i.dirty_bytes)
    }
}

impl Component for VmHost {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        // Frames from links and the control LAN.
        let payload = match payload.downcast::<LinkDeliver>() {
            Ok(del) => {
                if del.iface == IfaceId::CONTROL {
                    if let Some(resp) = del.frame.payload::<NtpResponse>() {
                        self.on_ntp_response(ctx, *resp);
                    } else if let Some(reply) = del.frame.payload::<GuestRpcReply>() {
                        self.on_guest_rpc_reply(ctx, *reply);
                    } else if let Some(&msg) = del.frame.payload::<BusMsg>() {
                        self.drive(ctx, |p, io| p.on_msg(io, msg));
                    }
                } else {
                    self.on_exp_rx(ctx, del.frame);
                }
                return;
            }
            Err(p) => p,
        };
        let msg = match payload.downcast::<VmMsg>() {
            Ok(m) => m,
            Err(_) => panic!("VmHost received an unknown message type"),
        };
        match msg {
            VmMsg::Tick => self.on_tick(ctx),
            VmMsg::NtpPoll => self.on_ntp_poll(ctx),
            VmMsg::NetTxDone => self.on_tx_done(ctx),
            VmMsg::BlockDone { batch, reads } => self.on_block_done(ctx, batch, reads),
            VmMsg::ComputeDone { burst } => self.on_compute_done(ctx, burst),
            VmMsg::FreezeEntryDone => self.on_freeze(ctx),
            VmMsg::CaptureDone => self.on_capture_done(ctx),
            VmMsg::RxReplay { src, seg } => {
                if self.frozen() {
                    // A new checkpoint started mid-replay: re-log.
                    self.rx_log.push((ctx.now(), src, *seg));
                    self.stats.frames_rx_logged += 1;
                } else {
                    let g = self.guest_ns(ctx.now());
                    if let Some(d) = self.domain.as_mut() {
                        d.kernel.on_net_rx(g, src, &seg);
                    }
                    self.pump_kernel(ctx);
                }
            }
            VmMsg::Wake { token } => self.drive(ctx, |p, io| p.on_wake(io, token)),
            VmMsg::MirrorBatch { vbas } => self.on_mirror_batch(ctx, vbas),
            VmMsg::MirrorRetry => {
                if let Some(m) = self.mirror.as_mut() {
                    m.busy = false;
                }
                self.kick_mirror(ctx);
            }
        }
    }

    sim::component_boilerplate!();
}
