//! End-to-end coordinated-checkpoint tests: two VM hosts joined through a
//! delay node, a coordinator on the ops LAN, a bulk TCP stream under
//! periodic checkpoints. These assert the paper's §7.1 transparency
//! metrics and that the baselines measurably violate them.

mod common;

use std::any::Any;

use checkpoint::{BusMsg, Coordinator, DelayNodeHost, EpochOutcome, Strategy, BUS_MSG_BYTES};
use guestos::{GuestProg, Syscall, SysRet};
use hwsim::{Frame, IfaceId, LinkDeliver};
use sim::{SimDuration, TraceCtx};
use vmm::VmHost;

use common::{build_lab, warm_up, Lab, LabCfg, ADDR_A, OPS_ADDR};

/// Runs the iperf workload with periodic checkpoints; returns the lab.
fn run_iperf_with_checkpoints(seed: u64, strategy: Strategy, secs: u64) -> Lab {
    let mut lab = build_lab(&LabCfg { strategy, ..LabCfg::new(seed) });
    warm_up(&mut lab, true);
    lab.e.run_for(SimDuration::from_secs(secs));
    lab
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn transparent_checkpoints_leave_tcp_undisturbed() {
    let lab = run_iperf_with_checkpoints(21, Strategy::Transparent, 25);
    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert!(coord.completed() >= 4, "completed {} rounds", coord.completed());

    let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
    assert!(a.stats.checkpoints >= 4);
    assert!(b.stats.checkpoints >= 4);

    // §7.1: "checkpoints caused no retransmissions, double
    // acknowledgements, or changes of window size".
    let sender = a.kernel().net_totals();
    let receiver = b.kernel().net_totals();
    assert_eq!(sender.retransmissions, 0, "retransmissions");
    assert_eq!(sender.timeouts, 0, "RTO timeouts");
    assert_eq!(sender.dup_acks, 0, "duplicate ACKs");
    assert_eq!(sender.window_shrinks + receiver.window_shrinks, 0, "window shrinkage");
    assert!(receiver.bytes_delivered > 100 << 20, "stream made progress: {}", receiver.bytes_delivered);

    let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
    assert!(dn.stats.checkpoints >= 4, "delay node checkpointed too");
}

#[test]
fn transparent_checkpoint_gaps_are_bounded_by_clock_sync() {
    let lab = run_iperf_with_checkpoints(22, Strategy::Transparent, 25);
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
    let gaps = b.kernel().trace.rx_data_gaps_ns();
    assert!(gaps.len() > 100_000, "trace captured {} gaps", gaps.len());
    let max_gap = *gaps.iter().max().unwrap();
    // Fig 6: checkpoint gaps are hundreds of µs up to a few ms (clock-sync
    // error), not the tens-of-ms real downtime.
    assert!(
        max_gap < 10_000_000,
        "max inter-packet gap {} µs — downtime leaked",
        max_gap / 1000
    );
    assert!(
        max_gap > 100_000,
        "max gap only {} µs — no checkpoint effect at all?",
        max_gap / 1000
    );
}

#[test]
fn non_concealing_baseline_leaks_downtime_into_guest_time() {
    // The conventional stop-and-copy checkpoint: guests observe the real
    // downtime as a jump in time. The receiver's packet trace (stamped in
    // guest time) shows inter-packet gaps of the order of the downtime,
    // where the transparent mechanism shows only the sync error.
    let gap = |strategy: Strategy| {
        let lab = run_iperf_with_checkpoints(23, strategy, 25);
        let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        *b.kernel().trace.rx_data_gaps_ns().iter().max().unwrap()
    };
    let leaked = gap(Strategy::NonConcealing);
    let transparent = gap(Strategy::Transparent);
    // The local downtime (dirty-set capture + barrier) is a few tens of
    // ms; non-concealing leaks all of it into guest time.
    assert!(
        leaked > 15_000_000,
        "non-concealing max gap only {} µs — downtime should be visible",
        leaked / 1000
    );
    assert!(
        transparent < 10_000_000,
        "transparent max gap {} µs",
        transparent / 1000
    );
    assert!(leaked > 10 * transparent);
}

#[test]
fn event_driven_mode_has_larger_suspend_skew_than_scheduled() {
    // Measure skew via the receiver's worst inter-packet gap.
    let worst_gap = |strategy: Strategy, seed: u64| {
        let lab = run_iperf_with_checkpoints(seed, strategy, 25);
        let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        *b.kernel().trace.rx_data_gaps_ns().iter().max().unwrap()
    };
    let scheduled = worst_gap(Strategy::Transparent, 24);
    let event_driven = worst_gap(Strategy::EventDriven, 24);
    assert!(
        event_driven > scheduled,
        "event-driven skew ({event_driven} ns) should exceed scheduled ({scheduled} ns)"
    );
}

#[test]
fn deterministic_replay_same_seed_same_trace() {
    let totals = |seed: u64| {
        let lab = run_iperf_with_checkpoints(seed, Strategy::Transparent, 15);
        let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        (
            b.kernel().net_totals().bytes_delivered,
            b.kernel().state_fingerprint(),
        )
    };
    assert_eq!(totals(42), totals(42), "identical seeds, identical worlds");
    assert_ne!(totals(42), totals(43), "different seeds diverge");
}


/// §4.3's event-driven trigger raised from *inside* a guest: a program
/// hits a watchpoint-style condition, requests a checkpoint, and the
/// whole experiment (both hosts and the delay node) checkpoints.
#[test]
fn guest_triggered_checkpoint_reaches_everyone() {
    use guestos::prog::FileId;

    /// Writes data; when it crosses a threshold, pulls the trigger.
    #[derive(Clone)]
    struct Watchpoint {
        wrote: u64,
        fired: bool,
        phase: u8,
    }
    impl GuestProg for Watchpoint {
        fn step(&mut self, ret: SysRet) -> Syscall {
            if matches!(ret, SysRet::Err(e) if e != "exists") {
                panic!("watchpoint prog error");
            }
            match self.phase {
                0 => {
                    self.phase = 1;
                    Syscall::Create { file: FileId(5) }
                }
                1 => {
                    if self.wrote >= 4 << 20 && !self.fired {
                        self.fired = true;
                        return Syscall::TriggerCheckpoint;
                    }
                    if self.wrote >= 8 << 20 {
                        return Syscall::Exit;
                    }
                    let off = self.wrote;
                    self.wrote += 256 * 1024;
                    Syscall::Write {
                        file: FileId(5),
                        offset: off,
                        bytes: 256 * 1024,
                    }
                }
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

    let mut lab = build_lab(&LabCfg::new(31));
    lab.e.run_for(SimDuration::from_secs(10));
    let a = lab.host_a;
    lab.e.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut().spawn(Box::new(Watchpoint {
            wrote: 0,
            fired: false,
            phase: 0,
        }));
    });
    lab.e.run_for(SimDuration::from_secs(10));

    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(coord.completed(), 1, "the guest trigger ran one round");
    let ha = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let hb = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
    let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
    assert_eq!(ha.stats.checkpoints, 1);
    assert_eq!(hb.stats.checkpoints, 1, "the other node checkpointed too");
    assert_eq!(dn.stats.checkpoints, 1, "the network core checkpointed too");
}

/// Delivers a forged coordinator notification straight to host A's
/// control NIC after `delay`.
fn inject_checkpoint_now(lab: &mut Lab, delay: SimDuration, epoch: u64) {
    let trace = TraceCtx::for_round(0, epoch);
    let msg = BusMsg::CheckpointNow { epoch, full: false, trace };
    let frame = Frame::new(OPS_ADDR, ADDR_A, BUS_MSG_BYTES, msg);
    let host_a = lab.host_a;
    lab.e.post(host_a, delay, LinkDeliver { iface: IfaceId::CONTROL, frame });
}

/// A notification that arrives while the host is still capturing the
/// previous epoch used to panic the host ("checkpoint already running").
/// It must be acked, start no second capture, and the capture that was
/// frozen for the older epoch must be rolled back, not reported.
#[test]
fn notification_mid_capture_does_not_panic_the_host() {
    let mut lab = build_lab(&LabCfg::new(32));
    lab.e.run_for(SimDuration::from_secs(10));
    inject_checkpoint_now(&mut lab, SimDuration::ZERO, 1);
    inject_checkpoint_now(&mut lab, SimDuration::from_micros(5), 2);
    lab.e.run_for(SimDuration::from_secs(1));

    let ha = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    assert_eq!(ha.stats.freeze_history.len(), 0, "the stale capture was rolled back");
    assert_eq!(ha.stats.checkpoints, 0);
    assert!(ha.last_image().is_none(), "no image frozen for epoch 1 survives as epoch 2's");
    assert!(!ha.checkpoint_running(), "the guest runs again");
}

/// The same disturbance against a live round: the coordinator's epoch 1
/// is under way when a notification for epoch 2 reaches host A
/// mid-capture. Epoch 1 must not commit over A's mislabelled image —
/// it aborts at its deadline (A acked, so it is alive, so no degrade) —
/// and once A has sat out epoch 2, whose notification it already took,
/// the lab commits again.
#[test]
fn round_disturbed_mid_capture_aborts_and_the_lab_recovers() {
    let mut lab = build_lab(&LabCfg { strategy: Strategy::EventDriven, ..LabCfg::new(33) });
    lab.e.run_for(SimDuration::from_secs(10));
    let coord = lab.coord;
    lab.e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
    // Past the event-driven processing jitter, well inside the ≥25 ms capture.
    inject_checkpoint_now(&mut lab, SimDuration::from_millis(15), 2);
    lab.e.run_for(SimDuration::from_secs(3));
    for _ in 0..2 {
        lab.e.with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        lab.e.run_for(SimDuration::from_secs(3));
    }

    let c = lab.e.component_ref::<Coordinator>(coord).unwrap();
    let outcomes: Vec<_> = c.records.iter().map(|r| r.outcome).collect();
    assert_eq!(
        outcomes,
        [Some(EpochOutcome::Aborted), Some(EpochOutcome::Aborted), Some(EpochOutcome::Committed)],
    );
    let ha = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    assert_eq!(ha.stats.checkpoints, 1, "only epoch 3's image stands");
}
