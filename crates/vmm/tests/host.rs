//! Host-level integration: a full VmHost in the event engine, with an NTP
//! server on the control LAN, running guest workloads across local
//! checkpoints. These tests establish the *local* transparency properties
//! the paper's Fig 4/5 measure, before any distributed coordination.

use std::any::Any;

use checkpoint::{BusMsg, BUS_MSG_BYTES};
use clocksync::{NtpRequest, NtpServer};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use guestos::prog::{FileId, SockFd};
use guestos::{GuestProg, Kernel, KernelConfig, Syscall, SysRet};
use hwsim::{
    profile, ControlLan, Endpoint, Frame, HardwareClock, IfaceId, LanTransmit, LinkDeliver,
    NodeAddr, Wire,
};
use sim::{
    transmission_time, Component, ComponentId, Ctx, Engine, Payload, SimDuration, SimTime,
    TraceCtx,
};
use vmm::{ExpPort, VmHost, VmHostConfig};

/// Minimal ops node: answers NTP with its reference clock.
struct NtpOps {
    addr: NodeAddr,
    lan: ComponentId,
    clock: HardwareClock,
    server: NtpServer,
}

impl Component for NtpOps {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let Ok(del) = payload.downcast::<LinkDeliver>() else {
            return;
        };
        if let Some(req) = del.frame.payload::<NtpRequest>() {
            let t = self.clock.read_ns(ctx.now());
            let resp = self.server.respond(*req, t, t);
            let frame = Frame::new(self.addr, del.frame.src, 90, resp);
            ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
        }
    }
    sim::component_boilerplate!();
}

/// usleep(10 ms) in a loop, recording per-iteration gettimeofday deltas.
#[derive(Clone)]
struct UsleepBench {
    samples_ns: Vec<u64>,
    t_prev: Option<u64>,
    max_iters: usize,
}

impl GuestProg for UsleepBench {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if let SysRet::Time(t) = ret {
            if let Some(prev) = self.t_prev {
                self.samples_ns.push(t - prev);
                if self.samples_ns.len() >= self.max_iters {
                    return Syscall::Exit;
                }
            }
            self.t_prev = Some(t);
            return Syscall::Sleep { ns: 10_000_000 };
        }
        Syscall::Gettimeofday
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Fixed CPU burst in a loop, recording per-iteration times (Fig 5 shape).
#[derive(Clone)]
struct CpuBench {
    burst_ns: u64,
    samples_ns: Vec<u64>,
    t_prev: Option<u64>,
    max_iters: usize,
}

impl GuestProg for CpuBench {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if let SysRet::Time(t) = ret {
            if let Some(prev) = self.t_prev {
                self.samples_ns.push(t - prev);
                if self.samples_ns.len() >= self.max_iters {
                    return Syscall::Exit;
                }
            }
            self.t_prev = Some(t);
            return Syscall::Compute { ns: self.burst_ns };
        }
        Syscall::Gettimeofday
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Control address of the ops node [`testbed`] builds.
const OPS_ADDR: NodeAddr = NodeAddr(1000);

/// Builds engine + LAN + ops + one host at `NodeAddr(1)` reporting to
/// `coordinator` (`None`: standalone, resumed right after each capture);
/// returns (engine, host id). The LAN is component 0.
fn testbed(seed: u64, coordinator: Option<NodeAddr>) -> (Engine, ComponentId) {
    let mut e = Engine::new(seed);
    let lan_id = {
        let lan = ControlLan::new(
            profile::CTRL_LAN_BPS,
            profile::CTRL_LAN_LATENCY,
            profile::CTRL_LAN_JITTER,
        );
        e.add_component(Box::new(lan))
    };
    let ops = e.add_component(Box::new(NtpOps {
        addr: OPS_ADDR,
        lan: lan_id,
        clock: HardwareClock::new(0, 0.0),
        server: NtpServer,
    }));
    let host_id = add_host(&mut e, lan_id, NodeAddr(1), coordinator);
    e.with_component::<ControlLan, _>(lan_id, |lan, _| {
        lan.attach(OPS_ADDR, Endpoint { component: ops, iface: IfaceId::CONTROL });
    });
    (e, host_id)
}

/// Adds a host at `node` on the control LAN `lan_id`.
fn add_host(
    e: &mut Engine,
    lan_id: ComponentId,
    node: NodeAddr,
    coordinator: Option<NodeAddr>,
) -> ComponentId {
    let golden = std::sync::Arc::new(GoldenImageBuilder::new("fc4", 200_000, 4096, 7).build());
    let layout = StoreLayout::for_image(&golden);
    let store = BranchingStore::new(golden, CowMode::Branch, layout);
    let mut kcfg = KernelConfig::pc3000_guest(node);
    kcfg.disk_blocks = 200_000;
    kcfg.cache_blocks = 8192;
    let kernel = Kernel::new(kcfg);
    let host = VmHost::new(
        VmHostConfig {
            node,
            lan: lan_id,
            ntp_server: OPS_ADDR,
            services: OPS_ADDR,
            clock_offset_ns: 2_000_000,
            clock_drift_ppm: 35.0,
            coordinator,
            trigger_jitter_mean: SimDuration::ZERO,
            conceal_downtime: true,
        },
        store,
        kernel,
    );
    let host_id = e.add_component(Box::new(host));
    e.with_component::<ControlLan, _>(lan_id, |lan, _| {
        lan.attach(node, Endpoint { component: host_id, iface: IfaceId::CONTROL });
    });
    host_id
}

fn start(e: &mut Engine, host: ComponentId) {
    e.with_component::<VmHost, _>(host, |h, ctx| h.start(ctx));
}

#[test]
fn usleep_iterations_measure_20ms_with_tight_jitter() {
    let (mut e, host) = testbed(11, None);
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(UsleepBench {
            samples_ns: vec![],
            t_prev: None,
            max_iters: 400,
        }));
    });
    start(&mut e, host);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(12));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepBench>()
        .unwrap()
        .samples_ns;
    assert!(samples.len() >= 300, "got {} samples", samples.len());
    // Iterations are ~20 ms; 97% within 28 µs of nominal (Fig 4).
    let within = samples
        .iter()
        .filter(|&&s| (s as i64 - 20_000_000).unsigned_abs() <= 28_000)
        .count();
    assert!(
        within as f64 / samples.len() as f64 >= 0.95,
        "only {within}/{} within 28µs",
        samples.len()
    );
}

#[test]
fn checkpoint_under_usleep_leaves_only_microsecond_spikes() {
    let (mut e, host) = testbed(12, None);
    start(&mut e, host);
    // Boot-time ntpdate step happens in the first seconds; start the
    // measured workload after it (as a real experiment would).
    e.run_for(SimDuration::from_secs(2));
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(UsleepBench {
            samples_ns: vec![],
            t_prev: None,
            max_iters: 1000,
        }));
    });
    // Checkpoint every 5 s of sim time.
    for _ in 0..4 {
        e.run_for(SimDuration::from_secs(5));
        e.with_component::<VmHost, _>(host, |h, ctx| h.begin_checkpoint(ctx));
        // Let the checkpoint complete (a standalone host resumes itself).
        e.run_for(SimDuration::from_millis(200));
    }
    e.run_for(SimDuration::from_secs(2));
    let h = e.component_ref::<VmHost>(host).unwrap();
    assert_eq!(h.stats.checkpoints, 4);
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepBench>()
        .unwrap()
        .samples_ns;
    // Even iterations spanning checkpoints stay within ~250 µs of 20 ms:
    // the downtime itself (tens of real ms) is fully concealed.
    let worst = samples
        .iter()
        .map(|&s| (s as i64 - 20_000_000).unsigned_abs())
        .max()
        .unwrap();
    assert!(
        worst < 250_000,
        "worst deviation {}µs — downtime leaked into guest time",
        worst / 1000
    );
    // And there *are* visible spikes above the normal jitter (the paper's
    // ~80 µs residual), proving we model imperfect transparency.
    assert!(
        worst > 28_000,
        "no residual at all ({worst}ns) — checkpoints were impossibly perfect"
    );
}

#[test]
fn cpu_loop_stretches_only_by_residual_dom0_work() {
    let (mut e, host) = testbed(13, None);
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(CpuBench {
            burst_ns: 236_600_000,
            samples_ns: vec![],
            t_prev: None,
            max_iters: 200,
        }));
    });
    start(&mut e, host);
    for _ in 0..4 {
        e.run_for(SimDuration::from_secs(5));
        e.with_component::<VmHost, _>(host, |h, ctx| h.begin_checkpoint(ctx));
        e.run_for(SimDuration::from_millis(200));
    }
    e.run_for(SimDuration::from_secs(10));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<CpuBench>()
        .unwrap()
        .samples_ns;
    assert!(samples.len() > 50, "got {}", samples.len());
    // Fig 5: baseline ~236.6 ms, checkpoint iterations stretched ≤ ~27 ms.
    let base = 236_600_000i64;
    let worst = samples
        .iter()
        .map(|&s| (s as i64 - base).unsigned_abs())
        .max()
        .unwrap();
    assert!(
        worst <= 40_000_000,
        "iteration stretched {} ms (> 40 ms)",
        worst / 1_000_000
    );
    let stretched = samples
        .iter()
        .filter(|&&s| (s as i64 - base) > 10_000_000)
        .count();
    assert!(
        (1..=8).contains(&stretched),
        "expected a few checkpoint-stretched iterations, got {stretched}"
    );
}

#[test]
fn guest_time_is_continuous_across_checkpoint_downtime() {
    // Manual resume, long downtime: the capture is begun directly, not by
    // the participant, so nothing reports it and the host stays held.
    let (mut e, host) = testbed(14, Some(NodeAddr(9999)));
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(UsleepBench {
            samples_ns: vec![],
            t_prev: None,
            max_iters: 10_000,
        }));
    });
    start(&mut e, host);
    e.run_for(SimDuration::from_secs(2));
    let g_before = e.with_component::<VmHost, _>(host, |h, ctx| {
        h.begin_checkpoint(ctx);
        h.guest_ns(ctx.now())
    });
    // 30 *seconds* of real downtime.
    e.run_for(SimDuration::from_secs(30));
    let g_frozen = e.with_component::<VmHost, _>(host, |h, ctx| h.guest_ns(ctx.now()));
    assert!(
        g_frozen - g_before < 1_000_000,
        "guest time advanced {}µs while frozen",
        (g_frozen - g_before) / 1000
    );
    e.with_component::<VmHost, _>(host, |h, ctx| h.resume_guest(ctx));
    e.run_for(SimDuration::from_secs(2));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepBench>()
        .unwrap()
        .samples_ns;
    // No iteration saw the 30 s gap.
    let worst = samples.iter().max().unwrap();
    assert!(
        *worst < 21_000_000,
        "an iteration observed {} ms — downtime leaked",
        worst / 1_000_000
    );
    assert!(h.stats.total_downtime >= SimDuration::from_secs(29));
}

#[test]
fn dom0_jobs_stretch_cpu_bursts_by_their_cost() {
    let (mut e, host) = testbed(15, None);
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(CpuBench {
            burst_ns: 236_600_000,
            samples_ns: vec![],
            t_prev: None,
            max_iters: 50,
        }));
    });
    start(&mut e, host);
    e.run_for(SimDuration::from_secs(3));
    // Fire an `xm list` (~130 ms) mid-burst.
    e.with_component::<VmHost, _>(host, |h, ctx| h.run_dom0_job(ctx, vmm::Dom0Job::XmList));
    e.run_for(SimDuration::from_secs(8));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<CpuBench>()
        .unwrap()
        .samples_ns;
    let base = 236_600_000u64;
    let max = *samples.iter().max().unwrap();
    assert!(
        max >= base + 110_000_000 && max <= base + 160_000_000,
        "xm list should stretch one burst by ~130 ms; max was +{} ms",
        (max - base) / 1_000_000
    );
}

#[test]
fn ntp_disciplines_host_clock_under_the_experiment() {
    let (mut e, host) = testbed(16, None);
    start(&mut e, host);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(600));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let err = h.clock().error_ns(e.now()).abs();
    assert!(
        err < 300_000.0,
        "clock error {}µs after 10 min of NTP",
        err / 1000.0
    );
}

/// §6's non-determinism knob: with dilation 2x, the guest's wall clock
/// runs at half real speed — usleep iterations still measure 20 ms of
/// *guest* time but occupy 40 ms of real time.
#[test]
fn time_dilation_slows_guest_wall_clock() {
    let (mut e, host) = testbed(17, None);
    start(&mut e, host);
    e.run_for(SimDuration::from_secs(2));
    e.with_component::<VmHost, _>(host, |h, ctx| {
        h.set_time_dilation(ctx, 2.0);
        h.kernel_mut().spawn(Box::new(UsleepBench {
            samples_ns: vec![],
            t_prev: None,
            max_iters: 200,
        }));
    });
    let real_t0 = e.now();
    let guest_t0 = e.component_ref::<VmHost>(host).unwrap().guest_ns(real_t0);
    e.run_for(SimDuration::from_secs(10));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let guest_dt = h.guest_ns(e.now()) - guest_t0;
    let real_dt = (e.now() - real_t0).as_nanos();
    let ratio = real_dt as f64 / guest_dt as f64;
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "dilation ratio {ratio}, expected 2.0"
    );
    // The guest's own measurements are unchanged: iterations still ~20 ms.
    let samples = &h
        .kernel()
        .prog(guestos::Tid(0))
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepBench>()
        .unwrap()
        .samples_ns;
    assert!(samples.len() > 100, "got {}", samples.len());
    let worst = samples
        .iter()
        .map(|&s| (s as i64 - 20_000_000).unsigned_abs())
        .max()
        .unwrap();
    assert!(
        worst < 1_000_000,
        "guest-visible iteration deviated {} µs under dilation",
        worst / 1000
    );
}

/// Bulk TCP on port 5001: with a `dst` it connects there and sends
/// forever, without one it accepts a connection and reads forever.
#[derive(Clone)]
struct Bulk {
    dst: Option<NodeAddr>,
    fd: Option<SockFd>,
}

impl GuestProg for Bulk {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => match self.dst {
                Some(dst) => Syscall::Connect { dst, port: 5001 },
                None => Syscall::Listen { port: 5001 },
            },
            SysRet::Ok => Syscall::Accept { port: 5001 },
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                self.next()
            }
            SysRet::Sent(_) | SysRet::Recvd { .. } => self.next(),
            other => panic!("bulk: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Bulk {
    fn next(&self) -> Syscall {
        let fd = self.fd.expect("connected");
        match self.dst {
            Some(_) => Syscall::Send { fd, bytes: 64 * 1024, msg: None },
            None => Syscall::Recv { fd, max: u64::MAX },
        }
    }
}

/// Notes when each experiment frame arrives and how long it is, and
/// hands it on to `host` in the same instant.
struct Tap {
    host: ComponentId,
    seen: Vec<(SimTime, u32)>,
}

impl Component for Tap {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let del = payload.downcast::<LinkDeliver>().expect("a frame");
        self.seen.push((ctx.now(), del.frame.wire_bytes));
        let frame = del.frame;
        ctx.post(self.host, SimDuration::ZERO, LinkDeliver { iface: IfaceId::EXPERIMENT, frame });
    }
    sim::component_boilerplate!();
}

/// A route owns its wire: frames a host sends back-to-back queue behind
/// each other on it and arrive one serialization time apart, not one
/// transmit-processing time (25 µs) apart as they would if each went out
/// on a fresh copy of the wire.
#[test]
fn back_to_back_frames_on_one_route_arrive_one_serialization_apart() {
    // 1.2 ms per full frame: the wire, not the host, is the bottleneck.
    const SLOW_BPS: u64 = 10_000_000;
    let (mut e, a) = testbed(18, None);
    let lan = ComponentId(0);
    let b = add_host(&mut e, lan, NodeAddr(2), None);
    let tap = e.add_component(Box::new(Tap { host: b, seen: Vec::new() }));
    let wire = |component, bps| {
        Wire::new(Endpoint { component, iface: IfaceId::EXPERIMENT }, bps, SimDuration::from_micros(5))
    };
    e.with_component::<VmHost, _>(a, |h, _| {
        h.add_exp_route(NodeAddr(2), ExpPort::Wire(wire(tap, SLOW_BPS)));
        h.kernel_mut().spawn(Box::new(Bulk { dst: Some(NodeAddr(2)), fd: None }));
    });
    e.with_component::<VmHost, _>(b, |h, _| {
        h.add_exp_route(NodeAddr(1), ExpPort::Wire(wire(a, 1_000_000_000)));
        h.kernel_mut().spawn(Box::new(Bulk { dst: None, fd: None }));
    });
    start(&mut e, a);
    start(&mut e, b);
    e.run_for(SimDuration::from_secs(1));

    let seen = &e.component_ref::<Tap>(tap).unwrap().seen;
    assert!(seen.len() > 100, "the stream must be running: {} frames", seen.len());
    let mut queued = 0;
    for pair in seen.windows(2) {
        let (gap, ser) = (pair[1].0 - pair[0].0, transmission_time(pair[1].1 as u64, SLOW_BPS));
        assert!(gap >= ser, "two frames overlapped on one wire: {gap:?} apart, {ser:?} each");
        queued += usize::from(gap == ser);
    }
    assert!(
        queued * 2 > seen.len(),
        "a saturated wire delivers back-to-back: only {queued} of {} gaps were one frame long",
        seen.len() - 1
    );
}

/// A frame to a destination the host has no route to never leaves, so
/// it does not count as transmitted.
#[test]
fn a_frame_without_a_route_is_not_counted_as_transmitted() {
    let (mut e, host) = testbed(19, None);
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(Bulk { dst: Some(NodeAddr(2)), fd: None }));
    });
    start(&mut e, host);
    e.run_for(SimDuration::from_secs(5));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let sent = h.kernel().net_totals().segments_sent;
    assert!(sent >= 2, "the guest must send its SYN and retry it: {sent} segments");
    assert_eq!(h.stats.frames_tx, 0, "no frame left the host");
}

/// A dom0 job restretches the guest's running compute burst, but not the
/// frame the netback already has in hand: that frame's `NetTxDone` was
/// posted when it was kicked, so it leaves when it would have, and only
/// the frames kicked after the job wait for dom0.
#[test]
fn a_dom0_job_stretches_the_active_burst_but_not_the_kicked_frame() {
    const BURST_NS: u64 = 50_000_000;
    let job_at = SimTime::ZERO + SimDuration::from_millis(1_025);
    // Frames the wire delivered (time, bytes) and the CPU loop's iterations.
    let run = |with_job: bool| -> (Vec<(SimTime, u32)>, Vec<u64>) {
        let (mut e, a) = testbed(20, None);
        let b = add_host(&mut e, ComponentId(0), NodeAddr(2), None);
        let tap = e.add_component(Box::new(Tap { host: b, seen: Vec::new() }));
        let wire = |component| {
            let to = Endpoint { component, iface: IfaceId::EXPERIMENT };
            Wire::new(to, 1_000_000_000, SimDuration::from_micros(5))
        };
        e.with_component::<VmHost, _>(a, |h, _| {
            h.add_exp_route(NodeAddr(2), ExpPort::Wire(wire(tap)));
            h.kernel_mut().spawn(Box::new(Bulk { dst: Some(NodeAddr(2)), fd: None }));
            h.kernel_mut().spawn(Box::new(CpuBench {
                burst_ns: BURST_NS,
                samples_ns: vec![],
                t_prev: None,
                max_iters: 1_000,
            }));
        });
        e.with_component::<VmHost, _>(b, |h, _| {
            h.add_exp_route(NodeAddr(1), ExpPort::Wire(wire(a)));
            h.kernel_mut().spawn(Box::new(Bulk { dst: None, fd: None }));
        });
        start(&mut e, a);
        start(&mut e, b);
        e.run_until(job_at);
        if with_job {
            e.with_component::<VmHost, _>(a, |h, ctx| h.run_dom0_job(ctx, vmm::Dom0Job::Sum));
        }
        e.run_for(SimDuration::from_millis(500));
        let seen = e.component_ref::<Tap>(tap).unwrap().seen.clone();
        let h = e.component_ref::<VmHost>(a).unwrap();
        let prog = h.kernel().prog(guestos::Tid(1)).unwrap();
        let samples = prog.as_any().downcast_ref::<CpuBench>().unwrap().samples_ns.clone();
        (seen, samples)
    };
    let (quiet, quiet_loop) = run(false);
    let (busy, busy_loop) = run(true);
    let (lo, hi) = vmm::Dom0Job::Sum.cost_range();

    // The netback is the bottleneck (25 µs a frame, 12 + 5 µs on the
    // wire), so at the job one frame is being processed and more are
    // queued; that one is delivered within 42 µs, on time or not at all.
    let kicked_by = job_at + SimDuration::from_micros(42);
    let split = |seen: &[(SimTime, u32)]| {
        let n = seen.iter().filter(|s| s.0 <= job_at).count();
        let kicked: Vec<SimTime> =
            seen[n..].iter().map(|s| s.0).take_while(|&t| t <= kicked_by).collect();
        (n, seen[n + kicked.len()].0, kicked)
    };
    let (quiet_before, quiet_next, quiet_kicked) = split(&quiet);
    let (busy_before, busy_next, busy_kicked) = split(&busy);
    assert!(quiet_before > 100, "the stream must be running at the job");
    assert_eq!(busy_before, quiet_before, "nothing differs before the job");
    assert!(!quiet_kicked.is_empty(), "a frame was in the netback at the job");
    assert_eq!(busy_kicked, quiet_kicked, "the frame kicked before the job leaves on time");
    assert!(quiet_next - job_at < SimDuration::from_micros(100), "{quiet_next:?}");
    assert!(
        busy_next - job_at >= lo,
        "the next frame waits for dom0: {:?} after the job",
        busy_next - job_at
    );

    // The burst running at the job is stretched by the job's cost.
    let longest = |samples: &[u64]| *samples.iter().max().unwrap();
    assert!(longest(&quiet_loop) < BURST_NS + 1_000_000, "{quiet_loop:?}");
    let stretch = SimDuration::from_nanos(longest(&busy_loop) - BURST_NS);
    assert!(
        stretch >= lo - SimDuration::from_millis(1) && stretch <= hi + SimDuration::from_millis(1),
        "the running burst stretched by {stretch:?}, the job cost {lo:?}..{hi:?}"
    );
}

/// A scripted coordinator: keeps the bus messages that reach its address
/// and sends the ones a test hands it.
struct BusProbe {
    addr: NodeAddr,
    lan: ComponentId,
    seen: Vec<BusMsg>,
}

impl BusProbe {
    fn send(&self, ctx: &mut Ctx<'_>, dst: NodeAddr, msg: BusMsg) {
        let frame = Frame::new(self.addr, dst, BUS_MSG_BYTES, msg);
        ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
    }
}

impl Component for BusProbe {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
        let del = payload.downcast::<LinkDeliver>().expect("a frame");
        if let Some(&msg) = del.frame.payload::<BusMsg>() {
            self.seen.push(msg);
        }
    }
    sim::component_boilerplate!();
}

/// Writes 1 MiB to a new file, syncs it, and raises the event-driven
/// checkpoint trigger as soon as the sync returns; `calls` counts the
/// syscalls made.
#[derive(Clone, Default)]
struct SyncThenTrigger {
    calls: u32,
}

impl GuestProg for SyncThenTrigger {
    fn step(&mut self, _ret: SysRet) -> Syscall {
        self.calls += 1;
        let file = FileId(1);
        match self.calls {
            1 => Syscall::Create { file },
            2 => Syscall::Write { file, offset: 0, bytes: 1 << 20 },
            3 => Syscall::Sync,
            4 => Syscall::TriggerCheckpoint,
            _ => Syscall::Exit,
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A guest trigger raised while the participant releases the host still
/// reaches the coordinator. The sync completes while the freeze drains,
/// so its thread is runnable behind the closed firewall and raises the
/// trigger inside `resume_guest`, which the participant's release runs.
#[test]
fn a_trigger_raised_as_the_participant_resumes_the_guest_reaches_the_coordinator() {
    const COORD: NodeAddr = NodeAddr(2000);
    let (mut e, host) = testbed(21, Some(COORD));
    let lan = ComponentId(0);
    let probe = e.add_component(Box::new(BusProbe { addr: COORD, lan, seen: Vec::new() }));
    e.with_component::<ControlLan, _>(lan, |l, _| {
        l.attach(COORD, Endpoint { component: probe, iface: IfaceId::CONTROL });
    });
    start(&mut e, host);
    e.run_for(SimDuration::from_secs(2));
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(SyncThenTrigger::default()));
    });
    let calls = |e: &Engine| {
        let h = e.component_ref::<VmHost>(host).unwrap();
        let prog = h.kernel().prog(guestos::Tid(0)).unwrap();
        prog.as_any().downcast_ref::<SyncThenTrigger>().unwrap().calls
    };
    // Run until the sync's write-back is on the disk.
    for _ in 0..10_000 {
        if calls(&e) == 3 {
            break;
        }
        e.run_for(SimDuration::from_micros(100));
    }
    assert_eq!(calls(&e), 3, "the guest must be waiting in its sync");
    let bus = |e: &mut Engine, msg| {
        e.with_component::<BusProbe, _>(probe, |p, ctx| p.send(ctx, NodeAddr(1), msg));
    };
    let seen = |e: &Engine| e.component_ref::<BusProbe>(probe).unwrap().seen.clone();

    bus(&mut e, BusMsg::CheckpointNow { epoch: 1, full: false, trace: TraceCtx::NONE });
    e.run_for(SimDuration::from_millis(200));
    assert!(e.component_ref::<VmHost>(host).unwrap().awaiting_resume(), "captured and held");
    assert!(
        seen(&e).iter().any(|m| matches!(m, BusMsg::NodeDone { epoch: 1, .. })),
        "the capture is reported done: {:?}",
        seen(&e)
    );
    assert_eq!(calls(&e), 3, "the synced thread waits behind the firewall");

    bus(&mut e, BusMsg::Resume { epoch: 1, trace: TraceCtx::NONE });
    e.run_for(SimDuration::from_millis(50));
    assert!(calls(&e) > 4, "the thread ran when the firewall reopened");
    assert!(
        seen(&e).contains(&BusMsg::RequestCheckpoint),
        "the guest's trigger was lost: {:?}",
        seen(&e)
    );
}
