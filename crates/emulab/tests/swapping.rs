//! End-to-end tests of the testbed facade: fresh swap-in, stateful
//! swapping with state preservation, NFS timestamp transduction across a
//! long swapped-out period, and time travel.

use std::any::Any;

use emulab::{ExperimentSpec, Testbed};
use guestos::prog::{CtrlReq, CtrlResp, FileId};
use guestos::{GuestProg, Syscall, SysRet};
use sim::SimDuration;
use vmm::VmHost;
use workloads::{IperfReceiver, IperfSender, UsleepLoop};

/// Writes a file, syncs, then idles (sleep loop), remembering what it saw.
#[derive(Clone)]
struct WriterThenIdle {
    file: FileId,
    bytes: u64,
    phase: u8,
    written: u64,
    /// Guest times sampled while idling (to check continuity).
    pub stamps: Vec<u64>,
}

impl WriterThenIdle {
    fn new(file: FileId, bytes: u64) -> Self {
        WriterThenIdle {
            file,
            bytes,
            phase: 0,
            written: 0,
            stamps: Vec::new(),
        }
    }
}

impl GuestProg for WriterThenIdle {
    fn step(&mut self, ret: SysRet) -> Syscall {
        if let SysRet::Err(e) = ret {
            if e != "exists" {
                panic!("writer: {e}");
            }
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Syscall::Create { file: self.file }
            }
            1 => {
                if self.written >= self.bytes {
                    self.phase = 2;
                    return Syscall::Sync;
                }
                let off = self.written;
                self.written += 256 * 1024;
                Syscall::Write {
                    file: self.file,
                    offset: off,
                    bytes: 256 * 1024,
                }
            }
            _ => {
                if let SysRet::Time(t) = ret {
                    self.stamps.push(t);
                    return Syscall::Sleep { ns: 100_000_000 };
                }
                Syscall::Gettimeofday
            }
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Writes to NFS, later stats the file, recording the mtimes it observes.
#[derive(Clone, Default)]
struct NfsProber {
    phase: u8,
    pending_mtime: u64,
    /// (guest time at probe, observed mtime).
    pub observations: Vec<(u64, u64)>,
}

impl NfsProber {
    fn new() -> Self {
        NfsProber::default()
    }
}

impl GuestProg for NfsProber {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match self.phase {
            0 => {
                self.phase = 1;
                Syscall::CtrlRpc {
                    req: CtrlReq::NfsWrite { file: 1, bytes: 4096 },
                }
            }
            1 => {
                self.phase = 2;
                Syscall::Sleep { ns: 1_000_000_000 }
            }
            2 => {
                self.phase = 3;
                Syscall::CtrlRpc {
                    req: CtrlReq::NfsGetattr { file: 1 },
                }
            }
            3 => {
                if let SysRet::Rpc(CtrlResp::NfsAttr { mtime_ns, .. }) = ret {
                    self.phase = 4;
                    // Pair the mtime with the current guest time.
                    self.pending_mtime = mtime_ns;
                    return Syscall::Gettimeofday;
                }
                // Retry (reply may have been dropped across a checkpoint).
                self.phase = 2;
                Syscall::Sleep { ns: 500_000_000 }
            }
            _ => {
                if let SysRet::Time(t) = ret {
                    self.observations.push((t, self.pending_mtime));
                    self.phase = 2;
                    return Syscall::Sleep { ns: 2_000_000_000 };
                }
                Syscall::Gettimeofday
            }
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn fresh_swap_in_builds_and_runs_an_iperf_experiment() {
    let mut tb = Testbed::new(71, 8);
    let spec = ExperimentSpec::new("iperf")
        .node("a")
        .node("b")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
    let d = tb.swap_in(spec).expect("swap-in");
    // First swap-in: golden image download + ~8 s boot.
    assert!(d >= SimDuration::from_secs(8), "swap-in took {d}");
    assert_eq!(tb.free_machines(), 5, "3 machines allocated");

    let b_addr = tb.node_addr("iperf", "b");
    tb.spawn("iperf", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("iperf", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(10));
    let delivered = tb.kernel("iperf", "b", |k| k.net_totals().bytes_delivered);
    assert!(
        delivered > 100 << 20,
        "delivered only {} MB in 10 s over 1 Gbps",
        delivered >> 20
    );
}

#[test]
fn periodic_checkpoints_through_the_testbed_are_transparent() {
    let mut tb = Testbed::new(72, 8);
    let spec = ExperimentSpec::new("e")
        .node("a")
        .node("b")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(10)); // NTP settles.
    let b_addr = tb.node_addr("e", "b");
    tb.spawn("e", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("e", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(20));
    tb.stop_periodic_checkpoints();
    let totals = tb.kernel("e", "a", |k| k.net_totals());
    assert_eq!(totals.retransmissions, 0);
    assert_eq!(totals.timeouts, 0);
}

#[test]
fn stateful_swap_cycle_preserves_guest_state_and_frees_machines() {
    let mut tb = Testbed::new(73, 8);
    let spec = ExperimentSpec::new("solo").node("n");
    tb.swap_in(spec).expect("swap-in");
    let tid = tb.spawn(
        "solo",
        "n",
        Box::new(WriterThenIdle::new(FileId(42), 64 << 20)),
    );
    tb.run_for(SimDuration::from_secs(60));

    let stamps_before = {
        let host = tb.host_id("solo", "n");
        let h = tb.engine.component_ref::<VmHost>(host).unwrap();
        h.kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<WriterThenIdle>()
            .unwrap()
            .stamps
            .len()
    };
    assert!(stamps_before > 10, "writer reached the idle phase");

    let out = tb.swap_out_stateful("solo");
    let guest_before = out.guest_ns_at_suspend;
    assert!(!tb.swapped_in("solo"));
    assert_eq!(tb.free_machines(), 8, "hardware released");
    assert!(out.memory_bytes >= 256 << 20);

    // A long swapped-out period.
    tb.run_for(SimDuration::from_secs(3600));

    let rep = tb.swap_in_stateful("solo", false);
    assert!(tb.swapped_in("solo"));
    let host = tb.host_id("solo", "n");
    let (guest_after, stamps_restored) = {
        let h = tb.engine.component_ref::<VmHost>(host).unwrap();
        let stamps = h
            .kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<WriterThenIdle>()
            .unwrap()
            .stamps
            .len();
        (h.guest_ns(tb.now()), stamps)
    };
    // Guest time continuous: about what it was at swap-out (+ small run).
    assert!(
        guest_after - guest_before < 5_000_000_000,
        "guest time jumped {} s across the swap",
        (guest_after - guest_before) / 1_000_000_000
    );
    // The program is still there with its state.
    assert!(stamps_restored >= stamps_before);
    assert!(rep.total >= SimDuration::from_secs(8), "swap-in {:?}", rep.total);

    // And it keeps running.
    tb.run_for(SimDuration::from_secs(5));
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    let p2 = h
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<WriterThenIdle>()
        .unwrap();
    assert!(p2.stamps.len() > stamps_restored.max(stamps_before));
    // No iteration observed the hour-long gap.
    for w in p2.stamps.windows(2) {
        assert!(
            w[1] - w[0] < 400_000_000,
            "idle stamp gap {} ms — swap leaked into guest time",
            (w[1] - w[0]) / 1_000_000
        );
    }
}

#[test]
fn lazy_swap_in_is_faster_and_pages_on_demand() {
    let run = |lazy: bool| {
        let mut tb = Testbed::new(74, 8);
        let spec = ExperimentSpec::new("solo").node("n");
        tb.swap_in(spec).expect("swap-in");
        tb.spawn(
            "solo",
            "n",
            Box::new(WriterThenIdle::new(FileId(42), 256 << 20)),
        );
        tb.run_for(SimDuration::from_secs(120));
        let _ = tb.swap_out_stateful("solo");
        tb.run_for(SimDuration::from_secs(60));
        let rep = tb.swap_in_stateful("solo", lazy);
        rep.total
    };
    let eager = run(false);
    let lazy = run(true);
    assert!(
        lazy < eager,
        "lazy swap-in ({lazy}) should beat eager ({eager})"
    );
}

#[test]
fn usleep_workload_survives_checkpoint_via_testbed_unperturbed() {
    let mut tb = Testbed::new(75, 4);
    let spec = ExperimentSpec::new("micro").node("n");
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));
    let tid = tb.spawn("micro", "n", Box::new(UsleepLoop::new(10_000_000, 2000)));
    tb.run_for(SimDuration::from_secs(2));
    for _ in 0..3 {
        tb.checkpoint_once();
        tb.run_for(SimDuration::from_secs(3));
    }
    let host = tb.host_id("micro", "n");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    let samples = h
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepLoop>()
        .unwrap()
        .iteration_ns();
    assert!(samples.len() > 300);
    let worst = samples
        .iter()
        .map(|&s| (s as i64 - 20_000_000).unsigned_abs())
        .max()
        .unwrap();
    assert!(worst < 500_000, "worst deviation {} µs", worst / 1000);
}

#[test]
fn time_travel_branches_restore_past_state() {
    let mut tb = Testbed::new(76, 4);
    let spec = ExperimentSpec::new("tt").node("n");
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));
    let tid = tb.spawn("tt", "n", Box::new(UsleepLoop::new(10_000_000, 1_000_000)));
    tb.run_for(SimDuration::from_secs(4));

    let snap = tb.snapshot("tt", "after-4s");
    let count_at_snap = tb.kernel("tt", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<UsleepLoop>()
            .unwrap()
            .samples
            .len()
    });

    tb.run_for(SimDuration::from_secs(10));
    let count_later = tb.kernel("tt", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<UsleepLoop>()
            .unwrap()
            .samples
            .len()
    });
    assert!(count_later > count_at_snap + 300);

    // Roll back: the program's progress returns to the snapshot point.
    tb.travel_to("tt", snap);
    let count_restored = tb.kernel("tt", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<UsleepLoop>()
            .unwrap()
            .samples
            .len()
    });
    assert!(
        (count_restored as i64 - count_at_snap as i64).abs() <= 2,
        "restored {} vs snapshot {}",
        count_restored,
        count_at_snap
    );

    // Replay: execution continues from the past and forms a branch.
    tb.run_for(SimDuration::from_secs(5));
    let count_replayed = tb.kernel("tt", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<UsleepLoop>()
            .unwrap()
            .samples
            .len()
    });
    assert!(count_replayed > count_restored + 200);
    let exp = tb.experiment("tt");
    assert_eq!(exp.tt.len(), 1);
    assert_eq!(exp.tt.current(), Some(snap));
}

#[test]
fn nfs_timestamps_stay_consistent_across_swap() {
    let mut tb = Testbed::new(77, 4);
    let spec = ExperimentSpec::new("nfs").node("n");
    tb.swap_in(spec).expect("swap-in");
    let tid = tb.spawn("nfs", "n", Box::new(NfsProber::new()));
    tb.run_for(SimDuration::from_secs(20));

    let obs_before = tb.kernel("nfs", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<NfsProber>()
            .unwrap()
            .observations
            .clone()
    });
    assert!(!obs_before.is_empty(), "probe made observations");

    // Swap out for an hour; swap back; keep probing.
    let _ = tb.swap_out_stateful("nfs");
    tb.run_for(SimDuration::from_secs(3600));
    let _ = tb.swap_in_stateful("nfs", false);
    tb.run_for(SimDuration::from_secs(20));

    let obs_after = tb.kernel("nfs", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<NfsProber>()
            .unwrap()
            .observations
            .clone()
    });
    assert!(obs_after.len() > obs_before.len(), "probe kept running");
    // §5.2: every observed mtime is in the guest's past, never its future,
    // and the file written pre-swap never looks an hour old to the guest.
    for &(t_guest, mtime) in &obs_after {
        assert!(
            mtime <= t_guest,
            "mtime {} ahead of guest time {} — transduction failed",
            mtime,
            t_guest
        );
        assert!(
            t_guest - mtime < 120_000_000_000,
            "mtime looks {} s old to the guest — swapped-out hour leaked",
            (t_guest - mtime) / 1_000_000_000
        );
    }
}

/// The strongest §5 property: an entire closed world — two guests, their
/// TCP connection, and the delay node's in-flight packets — survives a
/// stateful swap-out/swap-in cycle. The stream picks up where it left off
/// with no retransmissions attributable to the swap.
#[test]
fn stateful_swap_of_a_live_tcp_experiment() {
    let mut tb = Testbed::new(78, 8);
    let spec = ExperimentSpec::new("live")
        .node("a")
        .node("b")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(10));
    let b_addr = tb.node_addr("live", "b");
    tb.spawn("live", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("live", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(3));

    let delivered_before = tb.kernel("live", "b", |k| k.net_totals().bytes_delivered);
    let retx_before = tb.kernel("live", "a", |k| k.net_totals().retransmissions);
    assert!(delivered_before > 10 << 20, "stream warmed up");

    // Swap out mid-stream, sit out twenty minutes, swap back in.
    let out = tb.swap_out_stateful("live");
    assert_eq!(tb.free_machines(), 8);
    assert!(out.memory_bytes >= 512 << 20, "two nodes' memory");
    tb.run_for(SimDuration::from_secs(1200));
    let _ = tb.swap_in_stateful("live", true);

    // The stream continues: more bytes flow, and the swap added no
    // retransmissions.
    tb.run_for(SimDuration::from_secs(5));
    let delivered_after = tb.kernel("live", "b", |k| k.net_totals().bytes_delivered);
    let retx_after = tb.kernel("live", "a", |k| k.net_totals().retransmissions);
    assert!(
        delivered_after > delivered_before + (10 << 20),
        "stream stalled after the swap: {} -> {}",
        delivered_before >> 20,
        delivered_after >> 20
    );
    assert_eq!(
        retx_after, retx_before,
        "the swap cost retransmissions"
    );
}

/// Time travel brings back the §3.2 in-flight packets with the rest of
/// the closed world: a snapshot of a live TCP stream keeps the delay
/// node's suspension log (shaped link) and the hosts' receive logs (LAN),
/// so the branch restored from it runs as cleanly as the original branch
/// ran from the same instant.
#[test]
fn time_travel_restores_in_flight_packets() {
    let shaped = ExperimentSpec::new("live").node("a").node("b").link(
        "a",
        "b",
        1_000_000_000,
        SimDuration::from_micros(100),
        0.0,
    );
    let lan = ExperimentSpec::new("live").node("a").node("b").lan(
        &["a", "b"],
        100_000_000,
        SimDuration::from_micros(50),
    );
    for (seed, spec) in [(78, &shaped), (79, &shaped), (78, &lan)] {
        let mut tb = Testbed::new(seed, 8);
        tb.swap_in(spec.clone()).expect("swap-in");
        tb.run_for(SimDuration::from_secs(10));
        let b_addr = tb.node_addr("live", "b");
        tb.spawn("live", "b", Box::new(IperfReceiver::new(5001)));
        tb.spawn("live", "a", Box::new(IperfSender::new(b_addr, 5001)));
        tb.run_for(SimDuration::from_secs(3));
        // Retransmissions and timeouts a 5 s run adds, both nodes.
        let losses_over_5s = |tb: &mut Testbed| {
            let count = |tb: &Testbed| {
                ["a", "b"]
                    .map(|n| tb.kernel("live", n, |k| k.net_totals()))
                    .iter()
                    .fold((0, 0), |(r, t), n| (r + n.retransmissions, t + n.timeouts))
            };
            let (r0, t0) = count(tb);
            tb.run_for(SimDuration::from_secs(5));
            let (r1, t1) = count(tb);
            (r1 - r0, t1 - t0)
        };

        let snap = tb.snapshot("live", "mid-stream");
        let original = losses_over_5s(&mut tb);
        tb.travel_to("live", snap);
        let restored = losses_over_5s(&mut tb);
        let case = format!("seed {seed}, {} delay nodes", spec.links.len());
        assert_eq!(original, (0, 0), "{case}: the original branch ran clean");
        assert_eq!(restored, original, "{case}: (retransmissions, timeouts) after travel");
    }
}

/// Per-experiment coordination: checkpointing one experiment leaves a
/// co-resident experiment completely untouched (separate checkpoint
/// groups, as in Emulab's per-experiment control).
#[test]
fn checkpointing_one_experiment_leaves_the_other_alone() {
    let mut tb = Testbed::new(79, 12);
    for name in ["red", "blue"] {
        let spec = ExperimentSpec::new(name)
            .node("a")
            .node("b")
            .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
        tb.swap_in(spec).expect("swap-in");
    }
    tb.run_for(SimDuration::from_secs(10));
    for name in ["red", "blue"] {
        tb.spawn(name, "b", Box::new(IperfReceiver::new(5001)));
    }
    // Let the receivers reach listen() before the senders dial, so a
    // startup SYN retry cannot pollute the retransmission count.
    tb.run_for(SimDuration::from_millis(200));
    for name in ["red", "blue"] {
        let b_addr = tb.node_addr(name, "b");
        tb.spawn(name, "a", Box::new(IperfSender::new(b_addr, 5001)));
    }
    tb.run_for(SimDuration::from_secs(2));

    // Checkpoint only "red", three times.
    for _ in 0..3 {
        tb.checkpoint_experiment("red");
        tb.run_for(SimDuration::from_secs(2));
    }

    let freezes = |tb: &Testbed, exp: &str, node: &str| {
        let host = tb.host_id(exp, node);
        tb.engine
            .component_ref::<VmHost>(host)
            .unwrap()
            .stats
            .freeze_history
            .len()
    };
    assert_eq!(freezes(&tb, "red", "a"), 3);
    assert_eq!(freezes(&tb, "red", "b"), 3);
    assert_eq!(freezes(&tb, "blue", "a"), 0, "blue was never suspended");
    assert_eq!(freezes(&tb, "blue", "b"), 0);
    // Both streams stayed clean.
    for name in ["red", "blue"] {
        let t = tb.kernel(name, "a", |k| k.net_totals());
        assert_eq!(t.retransmissions, 0, "{name}");
    }
}

/// A multi-link topology: a 3-node chain with two delay nodes; both links
/// checkpoint as part of one coordinated round.
#[test]
fn three_node_chain_with_two_delay_nodes_checkpoints_cleanly() {
    let mut tb = Testbed::new(80, 12);
    let spec = ExperimentSpec::new("chain")
        .node("a")
        .node("b")
        .node("c")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0)
        .link("b", "c", 1_000_000_000, SimDuration::from_micros(200), 0.0);
    tb.swap_in(spec).expect("swap-in");
    assert_eq!(tb.experiment("chain").delay_nodes.len(), 2);
    tb.run_for(SimDuration::from_secs(10));

    // Two independent streams: a→b and b→c.
    let b_addr = tb.node_addr("chain", "b");
    let c_addr = tb.node_addr("chain", "c");
    tb.spawn("chain", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("chain", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.spawn("chain", "c", Box::new(IperfReceiver::new(5002)));
    tb.spawn("chain", "b", Box::new(IperfSender::new(c_addr, 5002)));
    tb.run_for(SimDuration::from_secs(2));

    for _ in 0..3 {
        tb.checkpoint_experiment("chain");
        tb.run_for(SimDuration::from_secs(2));
    }
    for (n, peer) in [("a", "b"), ("b", "c")] {
        let t = tb.kernel("chain", n, |k| k.net_totals());
        assert_eq!(t.retransmissions, 0, "{n}->{peer}");
        assert_eq!(t.timeouts, 0, "{n}->{peer}");
    }
    // Both delay nodes took part in every round.
    for d in &tb.experiment("chain").delay_nodes {
        let dn = tb
            .engine
            .component_ref::<emulab_checkpoint_dn::DelayNodeHost>(d.component);
        let dn = dn.unwrap();
        assert_eq!(dn.stats.checkpoints, 3);
    }
}

use checkpoint as emulab_checkpoint_dn;
