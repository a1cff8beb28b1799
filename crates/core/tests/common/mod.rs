//! The two-node rig shared by the integration tests: hostA — delay node
//! — hostB, an ops LAN and a coordinator, plus the iperf-shaped guest
//! programs that load it. Each test file passes its differences
//! (strategy / fault plan + stall + policy + split groups / WAL +
//! watchdog) through [`LabCfg`].

#![allow(dead_code)] // Each test binary uses its own subset.

use std::any::Any;
use std::sync::Arc;

use checkpoint::{
    splice_shaped_link, CheckpointAgent, Coordinator, DelayNodeHost, FailurePolicy, GroupId,
    Strategy, Wal,
};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use dummynet::PipeConfig;
use guestos::{GuestProg, Kernel, KernelConfig, Syscall, SysRet};
use hwsim::{profile, ControlLan, Endpoint, IfaceId, NodeAddr};
use sim::{ComponentId, Engine, FaultPlan, SimDuration};
use vmm::{VmHost, VmHostConfig};

pub const OPS_ADDR: NodeAddr = NodeAddr(1000);
pub const ADDR_A: NodeAddr = NodeAddr(1);
pub const ADDR_B: NodeAddr = NodeAddr(2);
pub const ADDR_DN: NodeAddr = NodeAddr(3);

// ---------------------------------------------------------------------
// Workload programs (iperf shape).
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Sender {
    dst: NodeAddr,
    port: u16,
    fd: Option<guestos::prog::SockFd>,
}

impl GuestProg for Sender {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Connect {
                dst: self.dst,
                port: self.port,
            },
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Send {
                    fd,
                    bytes: 64 * 1024,
                    msg: None,
                }
            }
            SysRet::Sent(_) => Syscall::Send {
                fd: self.fd.expect("connected"),
                bytes: 64 * 1024,
                msg: None,
            },
            other => panic!("sender: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct Receiver {
    port: u16,
    fd: Option<guestos::prog::SockFd>,
    listening: bool,
}

impl GuestProg for Receiver {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Listen { port: self.port },
            SysRet::Ok if !self.listening => {
                self.listening = true;
                Syscall::Accept { port: self.port }
            }
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Recv { fd, max: u64::MAX }
            }
            SysRet::Recvd { .. } => Syscall::Recv {
                fd: self.fd.expect("accepted"),
                max: u64::MAX,
            },
            other => panic!("receiver: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Rig.
// ---------------------------------------------------------------------

/// What the test files vary.
pub struct LabCfg {
    pub seed: u64,
    /// Trigger mode, processing jitter and downtime concealment.
    pub strategy: Strategy,
    /// Fault plan injected into the control LAN; also arms done-report
    /// retransmission on every participant.
    pub faults: Option<FaultPlan>,
    /// Done-report stall on host B (straggler).
    pub stall: Option<SimDuration>,
    pub policy: Option<FailurePolicy>,
    /// Subscribe host A in `GroupId(1)` and host B + delay node in
    /// `GroupId(2)` instead of putting everyone in the default group.
    pub split_groups: bool,
    /// Epoch WAL for the coordinator (crash recovery).
    pub wal: Option<Wal>,
    /// Delay-node suspend watchdog.
    pub watchdog: Option<SimDuration>,
}

impl LabCfg {
    /// The plain transparent lab: no faults, default policy, no WAL.
    pub fn new(seed: u64) -> Self {
        LabCfg {
            seed,
            strategy: Strategy::Transparent,
            faults: None,
            stall: None,
            policy: None,
            split_groups: false,
            wal: None,
            watchdog: None,
        }
    }
}

pub struct Lab {
    pub e: Engine,
    pub coord: ComponentId,
    pub host_a: ComponentId,
    pub host_b: ComponentId,
    pub dn: ComponentId,
}

/// Builds: hostA --wires-- delaynode --wires-- hostB, ops LAN + coordinator.
pub fn build_lab(cfg: &LabCfg) -> Lab {
    let mut e = Engine::new(cfg.seed);

    let lan_id = e.add_component(Box::new(ControlLan::new(
        profile::CTRL_LAN_BPS,
        profile::CTRL_LAN_LATENCY,
        profile::CTRL_LAN_JITTER,
    )));
    if let Some(plan) = cfg.faults.clone() {
        e.with_component::<ControlLan, _>(lan_id, |l, _| l.inject_faults(plan));
    }

    let mut coord_builder =
        Coordinator::builder(OPS_ADDR, lan_id).mode(cfg.strategy.trigger_mode());
    if let Some(policy) = cfg.policy {
        coord_builder = coord_builder.policy(policy);
    }
    if let Some(wal) = cfg.wal.clone() {
        coord_builder = coord_builder.wal(wal);
    }
    let coord = e.add_component(Box::new(coord_builder.build()));

    let mk_host =
        |e: &mut Engine, node: NodeAddr, off: i64, drift: f64, stall: Option<SimDuration>| {
            let golden = Arc::new(GoldenImageBuilder::new("fc4", 100_000, 4096, 7).build());
            let layout = StoreLayout::for_image(&golden);
            let store = BranchingStore::new(golden, CowMode::Branch, layout);
            let mut kcfg = KernelConfig::pc3000_guest(node);
            kcfg.disk_blocks = 100_000;
            kcfg.cache_blocks = 8192;
            let kernel = Kernel::new(kcfg);
            let mut agent = CheckpointAgent::new(OPS_ADDR)
                .with_processing_jitter(cfg.strategy.processing_jitter_mean());
            agent.participant.done_stall = stall;
            if cfg.faults.is_some() {
                agent.participant.done_resend = Some(SimDuration::from_millis(100));
            }
            let host = VmHost::new(
                VmHostConfig {
                    node,
                    lan: lan_id,
                    ntp_server: OPS_ADDR,
                    services: OPS_ADDR,
                    clock_offset_ns: off,
                    clock_drift_ppm: drift,
                    auto_resume: false,
                    conceal_downtime: cfg.strategy.conceals_downtime(),
                },
                store,
                kernel,
                Some(Box::new(agent)),
            );
            e.add_component(Box::new(host))
        };

    let host_a = mk_host(&mut e, ADDR_A, 2_000_000, 40.0, None);
    let host_b = mk_host(&mut e, ADDR_B, -3_000_000, -25.0, cfg.stall);
    let dn = e.add_component(Box::new(DelayNodeHost::new(
        ADDR_DN, lan_id, OPS_ADDR, 1_000_000, 15.0,
    )));

    // Experiment link: A <-> DN (iface 1), B <-> DN (iface 2), delay-node
    // pipes of 1 Gbps and 100 µs each way (the "1 Gbps network").
    let shape = PipeConfig {
        bandwidth_bps: Some(1_000_000_000),
        delay: SimDuration::from_micros(100),
        plr: 0.0,
        queue_slots: 512,
    };
    splice_shaped_link(
        &mut e,
        dn,
        (host_a, ADDR_A),
        (host_b, ADDR_B),
        1_000_000_000,
        SimDuration::from_micros(5),
        shape,
    );
    e.with_component::<DelayNodeHost, _>(dn, |d, _| {
        if cfg.faults.is_some() {
            d.participant.done_resend = Some(SimDuration::from_millis(100));
        }
        d.participant.suspend_watchdog = cfg.watchdog;
    });

    // Control LAN attachment + bus subscription.
    e.with_component::<ControlLan, _>(lan_id, |lan, _| {
        lan.attach(OPS_ADDR, Endpoint { component: coord, iface: IfaceId::CONTROL });
        lan.attach(ADDR_A, Endpoint { component: host_a, iface: IfaceId::CONTROL });
        lan.attach(ADDR_B, Endpoint { component: host_b, iface: IfaceId::CONTROL });
        lan.attach(ADDR_DN, Endpoint { component: dn, iface: IfaceId::CONTROL });
    });
    e.with_component::<Coordinator, _>(coord, |c, _| {
        if cfg.split_groups {
            c.subscribe_in(ADDR_A, GroupId(1));
            c.subscribe_in(ADDR_B, GroupId(2));
            c.subscribe_in(ADDR_DN, GroupId(2));
        } else {
            c.subscribe(ADDR_A);
            c.subscribe(ADDR_B);
            c.subscribe(ADDR_DN);
        }
    });

    // Boot.
    e.with_component::<VmHost, _>(host_a, |h, ctx| h.start(ctx));
    e.with_component::<VmHost, _>(host_b, |h, ctx| h.start(ctx));
    e.with_component::<DelayNodeHost, _>(dn, |d, ctx| d.start(ctx));

    Lab { e, coord, host_a, host_b, dn }
}

/// Spawns the bulk TCP pair: receiver on host B (with its packet trace
/// enabled when `trace`), sender on host A.
pub fn spawn_iperf(lab: &mut Lab, trace: bool) {
    let (a, b) = (lab.host_a, lab.host_b);
    lab.e.with_component::<VmHost, _>(b, |h, _| {
        if trace {
            h.kernel_mut().trace.enable();
        }
        h.kernel_mut().spawn(Box::new(Receiver {
            port: 5001,
            fd: None,
            listening: false,
        }));
    });
    lab.e.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut().spawn(Box::new(Sender {
            dst: ADDR_B,
            port: 5001,
            fd: None,
        }));
    });
}

/// Lets NTP take its boot step and settle (20 s), starts the iperf pair,
/// and after 2 s of steady state starts checkpoints every 5 s.
pub fn warm_up(lab: &mut Lab, trace: bool) {
    lab.e.run_for(SimDuration::from_secs(20));
    spawn_iperf(lab, trace);
    lab.e.run_for(SimDuration::from_secs(2));
    let coord = lab.coord;
    lab.e.with_component::<Coordinator, _>(coord, |c, ctx| {
        c.start_periodic(ctx, SimDuration::from_secs(5))
    });
}

/// Rounds the coordinator never resolved.
pub fn unresolved(c: &Coordinator) -> usize {
    c.records.iter().filter(|r| r.outcome.is_none()).count()
}
