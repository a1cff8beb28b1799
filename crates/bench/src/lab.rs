//! The two-node iperf lab (hostA — delay node — hostB plus coordinator)
//! that the fault and ablation experiments and the epoch-protocol tests
//! (`tests/protocol.rs`) all run on, and the full-testbed scenario the
//! observability experiments share.

use std::sync::Arc;

use checkpoint::{Coordinator, DelayNodeHost, FailurePolicy, Strategy, TriggerMode};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use dummynet::PipeConfig;
use emulab::{splice_shaped_link, ExperimentSpec, Testbed};
use guestos::{Kernel, KernelConfig};
use hwsim::{profile, ControlLan, Endpoint, IfaceId, NodeAddr};
use sim::{ComponentId, Engine, FaultPlan, SimDuration};
use vmm::{VmHost, VmHostConfig};
use workloads::{IperfReceiver, IperfSender};

/// Control address of the ops node (coordinator, NTP and services).
pub const OPS_ADDR: NodeAddr = NodeAddr(1000);
/// Host A, the iperf sender.
pub const ADDR_A: NodeAddr = NodeAddr(1);
/// Host B, the iperf receiver.
pub const ADDR_B: NodeAddr = NodeAddr(2);
/// The delay node between them.
pub const ADDR_DN: NodeAddr = NodeAddr(3);

/// Knobs the ablation studies turn.
#[derive(Clone, Debug)]
pub struct LabConfig {
    pub seed: u64,
    pub strategy: Strategy,
    /// Disable NTP by pointing clients at a black hole (the clock-sync
    /// ablation: checkpoints are then scheduled against undisciplined
    /// clocks).
    pub ntp: bool,
    /// Scheduling lead for "checkpoint at t" (None = the strategy's
    /// default 200 ms).
    pub lead: Option<SimDuration>,
    /// Initial clock offsets of the two hosts, ns.
    pub offsets_ns: (i64, i64),
    /// Control-plane fault plan injected into the control LAN (loss,
    /// duplication, delay, crashes).
    pub faults: Option<FaultPlan>,
    /// Make host B a straggler: its done report stalls this long after
    /// the local capture.
    pub straggler_stall: Option<SimDuration>,
    /// Failure-handling policy override for the coordinator.
    pub policy: Option<FailurePolicy>,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            seed: 1,
            strategy: Strategy::Transparent,
            ntp: true,
            lead: None,
            offsets_ns: (2_000_000, -3_000_000),
            faults: None,
            straggler_stall: None,
            policy: None,
        }
    }
}

/// The assembled lab.
pub struct Lab {
    pub engine: Engine,
    pub coordinator: ComponentId,
    pub host_a: ComponentId,
    pub host_b: ComponentId,
    pub delay_node: ComponentId,
}

/// Outcome metrics of an iperf-under-checkpoints run.
#[derive(Clone, Copy, Debug)]
pub struct LabOutcome {
    pub retransmissions: u64,
    pub timeouts: u64,
    pub dup_acks: u64,
    pub window_shrinks: u64,
    pub max_gap_us: u64,
    pub max_suspend_skew_us: u64,
    pub throughput_mbps: f64,
    pub checkpoints: u64,
    /// Epoch outcomes the coordinator recorded.
    pub committed: u64,
    pub aborted: u64,
    pub degraded: u64,
    /// Notification retries the failure detector issued in total.
    pub retries: u64,
    /// Epochs still without a terminal outcome (should be zero after a
    /// drain period: every epoch must commit, abort, or degrade).
    pub unresolved: u64,
    /// Median notify→all-acks latency across acked epochs, µs (engine
    /// telemetry, `coordinator.notify_to_acks_ns`).
    pub p50_notify_to_acks_us: u64,
    /// 99th-percentile notify→all-acks latency, µs.
    pub p99_notify_to_acks_us: u64,
    /// Median barrier-hold time across resumed epochs, µs.
    pub p50_barrier_hold_us: u64,
    /// 99th-percentile barrier-hold time, µs.
    pub p99_barrier_hold_us: u64,
}

/// Builds the lab (hosts booted, nothing running yet). Like every
/// coordinator, the lab's keeps an epoch WAL, so a test can crash it and
/// watch it recover; with no buggify point armed the WAL changes no
/// simulated byte.
pub fn build_lab(cfg: LabConfig) -> Lab {
    let mut e = Engine::new(cfg.seed);
    let lan_id = e.add_component(Box::new(ControlLan::new(
        profile::CTRL_LAN_BPS,
        profile::CTRL_LAN_LATENCY,
        profile::CTRL_LAN_JITTER,
    )));
    if let Some(plan) = cfg.faults.clone() {
        e.with_component::<ControlLan, _>(lan_id, |l, _| l.inject_faults(plan));
    }
    // A black-hole address: attached to nothing, requests vanish.
    let ntp_target = if cfg.ntp { OPS_ADDR } else { NodeAddr(9999) };
    let mode = match (cfg.strategy.trigger_mode(), cfg.lead) {
        (TriggerMode::Scheduled { .. }, Some(lead)) => TriggerMode::Scheduled { lead },
        (m, _) => m,
    };
    let mut coord_builder = Coordinator::builder(OPS_ADDR, lan_id).mode(mode);
    if let Some(policy) = cfg.policy {
        coord_builder = coord_builder.policy(policy);
    }
    let coord = e.add_component(Box::new(coord_builder.build()));

    let mk_host = |e: &mut Engine,
                   node: NodeAddr,
                   off: i64,
                   drift: f64,
                   stall: Option<SimDuration>|
     -> ComponentId {
        let golden = Arc::new(GoldenImageBuilder::new("fc4", 100_000, 4096, 7).build());
        let layout = StoreLayout::for_image(&golden);
        let store = BranchingStore::new(golden, CowMode::Branch, layout);
        let mut kcfg = KernelConfig::pc3000_guest(node);
        kcfg.disk_blocks = 100_000;
        let kernel = Kernel::new(kcfg);
        let mut host = VmHost::new(
            VmHostConfig {
                node,
                lan: lan_id,
                ntp_server: ntp_target,
                services: OPS_ADDR,
                clock_offset_ns: off,
                clock_drift_ppm: drift,
                coordinator: Some(OPS_ADDR),
                trigger_jitter_mean: cfg.strategy.processing_jitter_mean(),
                conceal_downtime: cfg.strategy.conceals_downtime(),
            },
            store,
            kernel,
        );
        host.participant.done_stall = stall;
        if cfg.faults.is_some() {
            // A faulty control plane warrants at-least-once done reports.
            host.participant.done_resend = Some(SimDuration::from_millis(100));
        }
        e.add_component(Box::new(host))
    };
    let host_a = mk_host(&mut e, ADDR_A, cfg.offsets_ns.0, 40.0, None);
    let host_b = mk_host(&mut e, ADDR_B, cfg.offsets_ns.1, -25.0, cfg.straggler_stall);
    let dn = e.add_component(Box::new(DelayNodeHost::new(
        ADDR_DN, lan_id, OPS_ADDR, 1_000_000, 15.0,
    )));
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
    if cfg.faults.is_some() {
        e.with_component::<DelayNodeHost, _>(dn, |d, _| {
            d.participant.done_resend = Some(SimDuration::from_millis(100));
        });
    }
    e.with_component::<ControlLan, _>(lan_id, |l, _| {
        l.attach(OPS_ADDR, Endpoint { component: coord, iface: IfaceId::CONTROL });
        l.attach(ADDR_A, Endpoint { component: host_a, iface: IfaceId::CONTROL });
        l.attach(ADDR_B, Endpoint { component: host_b, iface: IfaceId::CONTROL });
        l.attach(ADDR_DN, Endpoint { component: dn, iface: IfaceId::CONTROL });
    });
    e.with_component::<Coordinator, _>(coord, |c, _| {
        c.subscribe(ADDR_A);
        c.subscribe(ADDR_B);
        c.subscribe(ADDR_DN);
    });
    e.with_component::<VmHost, _>(host_a, |h, ctx| h.start(ctx));
    e.with_component::<VmHost, _>(host_b, |h, ctx| h.start(ctx));
    e.with_component::<DelayNodeHost, _>(dn, |d, ctx| d.start(ctx));
    Lab {
        engine: e,
        coordinator: coord,
        host_a,
        host_b,
        delay_node: dn,
    }
}

impl Lab {
    /// Starts the iperf pair (trace enabled on the receiver).
    pub fn start_iperf(&mut self) {
        let (a, b) = (self.host_a, self.host_b);
        self.engine.with_component::<VmHost, _>(b, |h, _| {
            h.kernel_mut().trace.enable();
            h.kernel_mut().spawn(Box::new(IperfReceiver::new(5001)));
        });
        self.engine.with_component::<VmHost, _>(a, |h, _| {
            h.kernel_mut().spawn(Box::new(IperfSender::new(ADDR_B, 5001)));
        });
    }

    /// The standard measurement window: 20 s of NTP settle, iperf on, 2 s
    /// of ramp, then `secs` under 5 s periodic checkpoints (left running).
    pub fn run_iperf_under_checkpoints(&mut self, secs: u64) {
        self.engine.run_for(SimDuration::from_secs(20));
        self.start_iperf();
        self.engine.run_for(SimDuration::from_secs(2));
        let coord = self.coordinator;
        self.engine.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.start_periodic(ctx, SimDuration::from_secs(5))
        });
        self.engine.run_for(SimDuration::from_secs(secs));
    }

    /// Stops triggering and gives in-flight epochs 4 s to reach a
    /// terminal outcome (the epoch deadline bounds this).
    pub fn drain_checkpoints(&mut self) {
        let coord = self.coordinator;
        self.engine.with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
        self.engine.run_for(SimDuration::from_secs(4));
    }

    /// Collects the outcome metrics after a run of `run_secs`.
    pub fn outcome(&self, run_secs: f64) -> LabOutcome {
        let a = self
            .engine
            .component_ref::<VmHost>(self.host_a)
            .expect("host a");
        let b = self
            .engine
            .component_ref::<VmHost>(self.host_b)
            .expect("host b");
        let ta = a.kernel().net_totals();
        let tb = b.kernel().net_totals();
        let gaps = b.kernel().trace.rx_data_gaps_ns();
        let skew = a
            .stats
            .freeze_history
            .iter()
            .zip(b.stats.freeze_history.iter())
            .map(|(&x, &y)| x.as_nanos().abs_diff(y.as_nanos()))
            .max()
            .unwrap_or(0);
        let c = self
            .engine
            .component_ref::<Coordinator>(self.coordinator)
            .expect("coordinator");
        let (committed, aborted, degraded) = c.outcome_counts();
        // Latency percentiles come from the engine's telemetry registry
        // (the coordinator records them as it runs), not from re-deriving
        // means over the raw records.
        let summary = |name: &str| {
            self.engine
                .telemetry()
                .histogram_summary(name)
                .unwrap_or(sim::HistogramSummary::EMPTY)
        };
        let acks = summary(sim::telemetry::names::COORD_NOTIFY_TO_ACKS_NS);
        let hold = summary(sim::telemetry::names::COORD_BARRIER_HOLD_NS);
        LabOutcome {
            retransmissions: ta.retransmissions + tb.retransmissions,
            timeouts: ta.timeouts + tb.timeouts,
            dup_acks: ta.dup_acks,
            window_shrinks: ta.window_shrinks + tb.window_shrinks,
            max_gap_us: gaps.iter().copied().max().unwrap_or(0) / 1000,
            max_suspend_skew_us: skew / 1000,
            throughput_mbps: tb.bytes_delivered as f64 / 1e6 / run_secs,
            checkpoints: a.stats.checkpoints,
            committed,
            aborted,
            degraded,
            retries: c.total_retries(),
            unresolved: c.records().iter().filter(|r| r.outcome.is_none()).count() as u64,
            p50_notify_to_acks_us: (acks.p50 / 1e3) as u64,
            p99_notify_to_acks_us: (acks.p99 / 1e3) as u64,
            p50_barrier_hold_us: (hold.p50 / 1e3) as u64,
            p99_barrier_hold_us: (hold.p99 / 1e3) as u64,
        }
    }
}

/// The scenario TAB-TELEMETRY, TAB-TIMELINE and TAB-CRITPATH observe, each
/// through its own lens: two nodes over a shaped 1 Gbps link, iperf
/// under 5 s periodic checkpoints for 16 s, then one stateful swap-out /
/// swap-in cycle (whose suspend round is held while the state image
/// lands on the file server). Returns the testbed for the caller to read.
pub fn checkpointed_swap_cycle(seed: u64, name: &str) -> Testbed {
    let mut tb = Testbed::with_strategy(seed, 8, Strategy::Transparent);
    tb.swap_in(
        ExperimentSpec::new(name).node("a").node("b").link(
            "a",
            "b",
            1_000_000_000,
            SimDuration::from_micros(100),
            0.0,
        ),
    )
    .expect("swap-in");
    tb.run_for(SimDuration::from_secs(20));
    let b_addr = tb.node_addr(name, "b");
    tb.spawn(name, "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn(name, "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(16));
    tb.stop_periodic_checkpoints();
    tb.run_for(SimDuration::from_secs(2));
    tb.swap_out_stateful(name);
    let rep = tb.swap_in_stateful(name, false);
    assert!(rep.warning.is_none(), "healthy swap cycle");
    tb.run_for(SimDuration::from_secs(2));
    tb
}
