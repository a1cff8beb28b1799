//! The epoch protocol end to end on the two-node lab
//! ([`tcd_bench::lab`]: hostA — delay node — hostB, an ops LAN and a
//! coordinator, a bulk TCP stream under periodic checkpoints).
//!
//! - *Coordinated checkpoints:* the paper's §7.1 transparency metrics
//!   hold, the baselines measurably violate them, and notifications that
//!   arrive mid-capture neither panic a host nor commit a mislabelled image.
//! - *Faults:* epochs under control-plane loss, stragglers and crashes
//!   terminate (commit, abort or degrade — never wedge), abort
//!   deterministically, and leave the guests untouched when they commit;
//!   with `--features props`, across the whole loss × stall matrix.
//! - *Recovery:* a coordinator that dies at any of its four buggify crash
//!   points replays its WAL, leaves no epoch wedged and replays
//!   byte-identically from the seed; the delay-node suspend watchdog
//!   releases a suspension the dead coordinator orphaned.

use std::any::Any;

use checkpoint::{
    BusMsg, Coordinator, DelayNodeHost, EpochOutcome, FailurePolicy, GroupId, ShadowEpochState,
    Strategy, BUS_MSG_BYTES,
};
use guestos::{GuestProg, SysRet, Syscall};
use hwsim::{Frame, IfaceId, LinkDeliver};
use sim::buggify::points;
use sim::{FaultPlan, SimDuration, SimTime, TraceCtx};
use tcd_bench::lab::{build_lab, Lab, LabConfig, ADDR_A, ADDR_B, ADDR_DN, OPS_ADDR};
use vmm::VmHost;

fn lab(seed: u64) -> Lab {
    build_lab(LabConfig {
        seed,
        ..LabConfig::default()
    })
}

fn coordinator(lab: &Lab) -> &Coordinator {
    lab.engine
        .component_ref::<Coordinator>(lab.coordinator)
        .unwrap()
}

fn host(lab: &Lab, id: sim::ComponentId) -> &VmHost {
    lab.engine.component_ref::<VmHost>(id).unwrap()
}

fn delay_node(lab: &Lab) -> &DelayNodeHost {
    lab.engine
        .component_ref::<DelayNodeHost>(lab.delay_node)
        .unwrap()
}

/// Rounds the coordinator never resolved.
fn unresolved(c: &Coordinator) -> usize {
    c.records().iter().filter(|r| r.outcome.is_none()).count()
}

/// The lab under `cfg`: warm-up, `secs` of periodic checkpoints, then the
/// drain window in which every in-flight epoch reaches an outcome.
fn run_and_drain(cfg: LabConfig, secs: u64) -> Lab {
    let mut lab = build_lab(cfg);
    lab.run_iperf_under_checkpoints(secs);
    lab.drain_checkpoints();
    lab
}

/// The policy of the fault tests: resumes and aborts are published twice,
/// so a lossy LAN cannot strand a suspended node on one dropped frame.
fn repeat_resumes() -> Option<FailurePolicy> {
    Some(FailurePolicy {
        resume_repeats: 2,
        ..FailurePolicy::default()
    })
}

// ---------------------------------------------------------------------
// Coordinated checkpoints.
// ---------------------------------------------------------------------

/// Runs iperf under periodic checkpoints for `secs` after the warm-up.
fn run_iperf_with_checkpoints(seed: u64, strategy: Strategy, secs: u64) -> Lab {
    let mut lab = build_lab(LabConfig {
        seed,
        strategy,
        ..LabConfig::default()
    });
    lab.run_iperf_under_checkpoints(secs);
    lab
}

/// The receiver's worst inter-packet gap, ns (its trace is in guest time).
fn max_rx_gap(lab: &Lab) -> u64 {
    let gaps = host(lab, lab.host_b).kernel().trace.rx_data_gaps_ns();
    *gaps.iter().max().unwrap()
}

#[test]
fn transparent_checkpoints_leave_tcp_undisturbed() {
    let lab = run_iperf_with_checkpoints(21, Strategy::Transparent, 25);
    let coord = coordinator(&lab);
    assert!(
        coord.completed() >= 4,
        "completed {} rounds",
        coord.completed()
    );

    let a = host(&lab, lab.host_a);
    let b = host(&lab, lab.host_b);
    assert!(a.stats.checkpoints >= 4);
    assert!(b.stats.checkpoints >= 4);

    // §7.1: "checkpoints caused no retransmissions, double
    // acknowledgements, or changes of window size".
    let sender = a.kernel().net_totals();
    let receiver = b.kernel().net_totals();
    assert_eq!(sender.retransmissions, 0, "retransmissions");
    assert_eq!(sender.timeouts, 0, "RTO timeouts");
    assert_eq!(sender.dup_acks, 0, "duplicate ACKs");
    assert_eq!(
        sender.window_shrinks + receiver.window_shrinks,
        0,
        "window shrinkage"
    );
    assert!(
        receiver.bytes_delivered > 100 << 20,
        "stream made progress: {}",
        receiver.bytes_delivered
    );

    assert!(
        delay_node(&lab).stats.checkpoints >= 4,
        "delay node checkpointed too"
    );
}

#[test]
fn transparent_checkpoint_gaps_are_bounded_by_clock_sync() {
    let lab = run_iperf_with_checkpoints(22, Strategy::Transparent, 25);
    let gaps = host(&lab, lab.host_b).kernel().trace.rx_data_gaps_ns();
    assert!(gaps.len() > 100_000, "trace captured {} gaps", gaps.len());
    let max_gap = max_rx_gap(&lab);
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
    let gap = |strategy: Strategy| max_rx_gap(&run_iperf_with_checkpoints(23, strategy, 25));
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
    let worst_gap = |strategy: Strategy| max_rx_gap(&run_iperf_with_checkpoints(24, strategy, 25));
    let scheduled = worst_gap(Strategy::Transparent);
    let event_driven = worst_gap(Strategy::EventDriven);
    assert!(
        event_driven > scheduled,
        "event-driven skew ({event_driven} ns) should exceed scheduled ({scheduled} ns)"
    );
}

#[test]
fn deterministic_replay_same_seed_same_trace() {
    let totals = |seed: u64| {
        let lab = run_iperf_with_checkpoints(seed, Strategy::Transparent, 15);
        let b = host(&lab, lab.host_b);
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

    let mut lab = lab(31);
    lab.engine.run_for(SimDuration::from_secs(10));
    let a = lab.host_a;
    lab.engine.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut().spawn(Box::new(Watchpoint {
            wrote: 0,
            fired: false,
            phase: 0,
        }));
    });
    lab.engine.run_for(SimDuration::from_secs(10));

    assert_eq!(
        coordinator(&lab).completed(),
        1,
        "the guest trigger ran one round"
    );
    assert_eq!(host(&lab, lab.host_a).stats.checkpoints, 1);
    assert_eq!(
        host(&lab, lab.host_b).stats.checkpoints,
        1,
        "the other node checkpointed too"
    );
    assert_eq!(
        delay_node(&lab).stats.checkpoints,
        1,
        "the network core checkpointed too"
    );
}

/// Delivers a forged coordinator notification straight to host A's
/// control NIC after `delay`.
fn inject_checkpoint_now(lab: &mut Lab, delay: SimDuration, epoch: u64) {
    let trace = TraceCtx::for_round(0, epoch);
    let msg = BusMsg::CheckpointNow {
        epoch,
        full: false,
        trace,
    };
    let frame = Frame::new(OPS_ADDR, ADDR_A, BUS_MSG_BYTES, msg);
    let host_a = lab.host_a;
    lab.engine.post(
        host_a,
        delay,
        LinkDeliver {
            iface: IfaceId::CONTROL,
            frame,
        },
    );
}

/// A notification that arrives while the host is still capturing the
/// previous epoch used to panic the host ("checkpoint already running").
/// It must be acked, start no second capture, and the capture that was
/// frozen for the older epoch must be rolled back, not reported.
#[test]
fn notification_mid_capture_does_not_panic_the_host() {
    let mut lab = lab(32);
    lab.engine.run_for(SimDuration::from_secs(10));
    inject_checkpoint_now(&mut lab, SimDuration::ZERO, 1);
    inject_checkpoint_now(&mut lab, SimDuration::from_micros(5), 2);
    lab.engine.run_for(SimDuration::from_secs(1));

    let ha = host(&lab, lab.host_a);
    assert_eq!(
        ha.stats.freeze_history.len(),
        0,
        "the stale capture was rolled back"
    );
    assert_eq!(ha.stats.checkpoints, 0);
    assert!(
        ha.last_image().is_none(),
        "no image frozen for epoch 1 survives as epoch 2's"
    );
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
    let mut lab = build_lab(LabConfig {
        seed: 33,
        strategy: Strategy::EventDriven,
        ..LabConfig::default()
    });
    lab.engine.run_for(SimDuration::from_secs(10));
    let coord = lab.coordinator;
    lab.engine
        .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
    // Past the event-driven processing jitter, well inside the ≥25 ms capture.
    inject_checkpoint_now(&mut lab, SimDuration::from_millis(15), 2);
    lab.engine.run_for(SimDuration::from_secs(3));
    for _ in 0..2 {
        lab.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        lab.engine.run_for(SimDuration::from_secs(3));
    }

    let outcomes: Vec<_> = coordinator(&lab)
        .records()
        .iter()
        .map(|r| r.outcome)
        .collect();
    assert_eq!(
        outcomes,
        [
            Some(EpochOutcome::Aborted),
            Some(EpochOutcome::Aborted),
            Some(EpochOutcome::Committed)
        ],
    );
    assert_eq!(
        host(&lab, lab.host_a).stats.checkpoints,
        1,
        "only epoch 3's image stands"
    );
}

// ---------------------------------------------------------------------
// Faults.
// ---------------------------------------------------------------------

/// The acceptance scenario: 10% control-plane loss plus a straggler node.
/// Every epoch terminates, the failure detector retries cover the loss,
/// and the committed epochs leave the guest TCP stream untouched.
#[test]
fn epochs_terminate_under_loss_and_straggler() {
    let lab = run_and_drain(
        LabConfig {
            seed: 61,
            faults: Some(FaultPlan::new(61).with_loss(0.10)),
            straggler_stall: Some(SimDuration::from_millis(50)),
            policy: repeat_resumes(),
            ..LabConfig::default()
        },
        25,
    );
    let coord = coordinator(&lab);
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 4, "only {committed} commits under 10% loss");
    assert_eq!((aborted, degraded), (0, 0), "loss alone must not abort");

    // Transparency of committed epochs (§7.1 under faults).
    let sender = host(&lab, lab.host_a).kernel().net_totals();
    let receiver = host(&lab, lab.host_b).kernel().net_totals();
    assert_eq!(sender.retransmissions, 0, "retransmissions");
    assert_eq!(sender.timeouts, 0, "RTO timeouts");
    assert_eq!(sender.dup_acks, 0, "duplicate ACKs");
    assert_eq!(
        sender.window_shrinks + receiver.window_shrinks,
        0,
        "window shrinkage"
    );
    assert!(receiver.bytes_delivered > 50 << 20, "stream made progress");
    assert!(
        delay_node(&lab).stats.checkpoints >= 4,
        "the network core checkpointed through the loss"
    );
}

/// Same seed + same fault plan ⇒ the same aborts, the same world: the
/// abort path is as deterministic as the commit path.
#[test]
fn abort_path_is_deterministic() {
    let observe = |seed: u64| {
        let lab = run_and_drain(
            LabConfig {
                seed,
                faults: Some(FaultPlan::new(17).with_loss(0.05)),
                straggler_stall: Some(SimDuration::from_secs(3)),
                policy: repeat_resumes(),
                ..LabConfig::default()
            },
            15,
        );
        let coord = coordinator(&lab);
        assert_eq!(unresolved(coord), 0);
        assert!(
            delay_node(&lab).participant.aborted >= 1,
            "the delay node rolled back too"
        );
        let a = host(&lab, lab.host_a);
        let b = host(&lab, lab.host_b);
        (
            coord.outcome_counts(),
            coord.total_retries(),
            a.kernel().state_fingerprint(),
            b.kernel().state_fingerprint(),
            format!("{:?}", b.kernel().trace.records()),
        )
    };
    let first = observe(62);
    assert!(first.0 .1 >= 1, "the over-deadline straggler must abort");
    assert_eq!(first, observe(62), "identical seeds, identical aborts");
    assert_ne!(observe(63).2, first.2, "different seeds diverge");
}

/// An epoch that dies entirely on the wire (100% loss) is recorded as
/// aborted by the coordinator, and — because draw-free drops consume no
/// randomness — the guests end up byte-identical to a run where the
/// checkpoint was never attempted.
#[test]
fn fully_lost_epoch_aborts_without_touching_guests() {
    let observe = |trigger: bool| {
        let mut lab = build_lab(LabConfig {
            seed: 64,
            faults: Some(FaultPlan::new(5).with_loss(1.0)),
            ..LabConfig::default()
        });
        lab.engine.run_for(SimDuration::from_secs(20));
        lab.start_iperf();
        lab.engine.run_for(SimDuration::from_secs(2));
        if trigger {
            let coord = lab.coordinator;
            lab.engine
                .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        }
        lab.engine.run_for(SimDuration::from_secs(5));
        let ha = host(&lab, lab.host_a);
        let hb = host(&lab, lab.host_b);
        (
            coordinator(&lab).outcome_counts(),
            ha.kernel().state_fingerprint(),
            hb.kernel().state_fingerprint(),
            format!("{:?}", hb.kernel().trace.records()),
            ha.stats.checkpoints + hb.stats.checkpoints,
        )
    };
    let attempted = observe(true);
    let untouched = observe(false);
    assert_eq!(attempted.0, (0, 1, 0), "the lost epoch aborted");
    assert_eq!(untouched.0, (0, 0, 0), "no epoch ran at all");
    assert_eq!(attempted.4, 0, "no node ever checkpointed");
    assert_eq!(attempted.1, untouched.1, "kernel A diverged");
    assert_eq!(attempted.2, untouched.2, "kernel B diverged");
    assert_eq!(attempted.3, untouched.3, "packet traces diverged");
}

/// A node whose control interface dies is excluded after the deadline:
/// the epoch commits degraded, and the survivors keep checkpointing.
#[test]
fn crashed_node_degrades_epochs_and_survivors_continue() {
    let lab = run_and_drain(
        LabConfig {
            seed: 65,
            // Host B's control interface dies at 30 s (key = NodeAddr.0).
            faults: Some(
                FaultPlan::new(65).with_crash(ADDR_B.0, SimTime::from_nanos(30_000_000_000)),
            ),
            policy: Some(FailurePolicy {
                epoch_deadline: SimDuration::from_millis(500),
                resume_repeats: 2,
                ..FailurePolicy::default()
            }),
            ..LabConfig::default()
        },
        25,
    );
    let coord = coordinator(&lab);
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 1, "epochs before the crash commit");
    assert!(degraded >= 2, "epochs after the crash degrade");
    assert_eq!(
        aborted, 0,
        "a crashed (never-acked) node degrades, not aborts"
    );
    assert!(
        coord
            .records()
            .iter()
            .filter(|r| r.outcome == Some(EpochOutcome::Degraded))
            .all(|r| r.excluded == 1),
        "degraded epochs excluded exactly the crashed node"
    );
    let a = host(&lab, lab.host_a);
    let b = host(&lab, lab.host_b);
    assert!(
        a.stats.checkpoints > b.stats.checkpoints,
        "survivor kept checkpointing ({} vs {})",
        a.stats.checkpoints,
        b.stats.checkpoints
    );
}

/// Two concurrent rounds in different groups under loss + straggler:
/// group 1 (host A) is clean, group 2 (host B + delay node) carries an
/// over-deadline straggler. Each group's epochs must resolve on their own
/// — group 1 commits while group 2's concurrent round is still in flight,
/// and group 2's aborts never leak into group 1's records.
#[test]
fn concurrent_group_rounds_fail_independently() {
    let mut lab = build_lab(LabConfig {
        seed: 67,
        faults: Some(FaultPlan::new(67).with_loss(0.10)),
        // Host B stalls its done report past the 2 s epoch deadline, so
        // every group-2 round aborts; group 1 never sees that straggler.
        straggler_stall: Some(SimDuration::from_secs(3)),
        policy: repeat_resumes(),
        ..LabConfig::default()
    });
    let coord = lab.coordinator;
    lab.engine.with_component::<Coordinator, _>(coord, |c, _| {
        for (node, group) in [
            (ADDR_A, GroupId(1)),
            (ADDR_B, GroupId(2)),
            (ADDR_DN, GroupId(2)),
        ] {
            c.unsubscribe(node);
            c.subscribe_in(node, group);
        }
    });
    lab.engine.run_for(SimDuration::from_secs(20));
    lab.start_iperf();
    lab.engine.run_for(SimDuration::from_secs(2));

    // Three rounds of simultaneous triggers: both groups get a round at
    // the same instant, then 6 s for each to reach a terminal outcome.
    for _ in 0..3 {
        lab.engine
            .with_component::<Coordinator, _>(coord, |c, ctx| {
                c.trigger_in(ctx, GroupId(1));
                c.trigger_in(ctx, GroupId(2));
            });
        lab.engine.run_for(SimDuration::from_secs(6));
    }

    let c = coordinator(&lab);
    assert_eq!(unresolved(c), 0, "an epoch wedged");
    let g1: Vec<_> = c.records().iter().filter(|r| r.group == GroupId(1)).collect();
    let g2: Vec<_> = c.records().iter().filter(|r| r.group == GroupId(2)).collect();
    assert_eq!((g1.len(), g2.len()), (3, 3), "three rounds per group");

    // The clean group commits every round; the straggler group aborts
    // every round. Neither outcome contaminates the other's records.
    assert_eq!(
        c.outcome_counts_in(GroupId(1)),
        (3, 0, 0),
        "group 1 must commit despite group 2's straggler"
    );
    assert_eq!(
        c.outcome_counts_in(GroupId(2)),
        (0, 3, 0),
        "group 2's over-deadline straggler must abort every round"
    );

    // The rounds really were concurrent: each pair was published at the
    // same instant, and group 1 resumed while group 2's round was still
    // unresolved (group 2 holds until its 2 s deadline).
    for (r1, r2) in g1.iter().zip(&g2) {
        assert_eq!(r1.published, r2.published, "triggers fired together");
        let resumed = r1.resumed.expect("group 1 committed");
        assert!(
            resumed.saturating_duration_since(r1.published) < SimDuration::from_secs(2),
            "group 1 resolved before any deadline"
        );
    }
    // Degraded never appears in either group and the totals line up with
    // the per-group views.
    assert_eq!(c.outcome_counts(), (3, 3, 0));
}

/// The full loss × straggler matrix (CI `--features props`): every cell
/// terminates, and cells whose epochs all committed are transparent.
#[cfg(feature = "props")]
#[test]
fn fault_matrix_terminates_everywhere() {
    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        for &stall_ms in &[0u64, 50, 3000] {
            let lab = run_and_drain(
                LabConfig {
                    seed: 66,
                    faults: Some(FaultPlan::new(66).with_loss(loss)),
                    straggler_stall: (stall_ms > 0).then(|| SimDuration::from_millis(stall_ms)),
                    policy: repeat_resumes(),
                    ..LabConfig::default()
                },
                15,
            );
            let coord = coordinator(&lab);
            assert_eq!(
                unresolved(coord),
                0,
                "epoch wedged at loss {loss} stall {stall_ms} ms"
            );
            let (committed, aborted, degraded) = coord.outcome_counts();
            assert!(
                committed + aborted + degraded > 0,
                "no epochs ran at loss {loss} stall {stall_ms} ms"
            );
            if stall_ms >= 3000 {
                assert!(aborted >= 1, "over-deadline straggler must abort");
            }
            if aborted == 0 && degraded == 0 {
                let s = host(&lab, lab.host_a).kernel().net_totals();
                let r = host(&lab, lab.host_b).kernel().net_totals();
                assert_eq!(
                    s.retransmissions
                        + s.timeouts
                        + s.dup_acks
                        + s.window_shrinks
                        + r.window_shrinks,
                    0,
                    "committed epochs disturbed the guest at loss {loss} stall {stall_ms} ms"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator crash and recovery.
// ---------------------------------------------------------------------

const CRASH_POINTS: [&str; 4] = [
    points::COORD_CRASH_PRE_NOTIFY,
    points::COORD_CRASH_MID_ACKS,
    points::COORD_CRASH_PRE_RESUME,
    points::COORD_CRASH_POST_COMMIT,
];

/// The lab with the delay node's suspend watchdog armed at `watchdog`.
fn lab_with_watchdog(seed: u64, watchdog: SimDuration) -> Lab {
    let mut lab = lab(seed);
    let dn = lab.delay_node;
    lab.engine.with_component::<DelayNodeHost, _>(dn, |d, _| {
        d.participant.suspend_watchdog = Some(watchdog);
    });
    lab
}

fn assert_shadow_clean(lab: &Lab, what: &str) {
    let violations = ShadowEpochState::replay(&lab.engine.telemetry().trace_events());
    assert!(
        violations.is_empty(),
        "{what}: shadow violations: {violations:?}"
    );
}

/// Drives the lab with `point` forced to fire on every evaluation for
/// 15 s of epochs, then clears the force and runs 12 s clean so the
/// recovered coordinator can prove it still commits. Returns a full
/// observation tuple for the determinism comparison.
fn observe_forced_crash(point: &str, seed: u64) -> (u64, u64, (u64, u64, u64), String, String) {
    let mut lab = lab(seed);
    lab.run_iperf_under_checkpoints(0);
    lab.engine.buggify().force(point, 1.0);
    lab.engine.run_for(SimDuration::from_secs(15));
    lab.engine.buggify().clear_force(point);
    lab.engine.run_for(SimDuration::from_secs(12));
    lab.drain_checkpoints();

    let c = coordinator(&lab);
    assert!(!c.is_crashed(), "{point}: coordinator stuck down");
    assert_eq!(
        c.crash_count(),
        c.recovery_count(),
        "{point}: a crash without a matching recovery"
    );
    assert_eq!(unresolved(c), 0, "{point}: an epoch wedged");
    assert_shadow_clean(&lab, point);

    let wal_dump = format!("{:?}", c.wal().replay());
    let records = format!("{:?}", c.records());
    (
        c.crash_count(),
        c.recovery_count(),
        c.outcome_counts(),
        wal_dump,
        records,
    )
}

/// Forced crash at each of the four buggify points: every crash is
/// followed by a recovery, no epoch wedges, the shadow checker stays
/// clean, and once the fault is lifted the coordinator commits again.
#[test]
fn forced_crash_at_every_point_recovers_without_wedging() {
    for point in CRASH_POINTS {
        let (crashes, recoveries, (committed, _, _), wal_dump, _) = observe_forced_crash(point, 71);
        assert!(crashes >= 1, "{point}: the forced point never fired");
        assert_eq!(crashes, recoveries, "{point}");
        assert!(
            committed >= 1,
            "{point}: no commits after the fault was lifted"
        );
        assert!(!wal_dump.is_empty(), "{point}: empty WAL after a run");
    }
}

/// WAL replay determinism: crash at each point, and the recovered
/// coordinator state (records + WAL contents + outcome tallies) is
/// byte-identical across two same-seed runs.
#[test]
fn recovery_is_byte_identical_across_same_seed_runs() {
    for point in CRASH_POINTS {
        let first = observe_forced_crash(point, 72);
        let second = observe_forced_crash(point, 72);
        assert_eq!(first, second, "{point}: same seed diverged");
    }
}

/// The mid-acks crash is the interesting recovery class: some nodes
/// acked, nobody finished, so restart must abort the round and mark
/// the mid-flight participants for a full (non-incremental) next
/// checkpoint rather than trusting half-captured state.
#[test]
fn mid_acks_crash_aborts_and_forces_full_round() {
    let (_, _, _, wal_dump, _) = observe_forced_crash(points::COORD_CRASH_MID_ACKS, 73);
    assert!(
        wal_dump.contains("Abort"),
        "mid-acks recovery must abort the open round: {wal_dump}"
    );
}

/// Orphaned-suspension watchdog: the coordinator dies while the delay
/// node sits suspended awaiting its resume. The watchdog releases the
/// suspension (counting it as an abort), traffic flows again during
/// the outage, and the recovered coordinator's eventual abort of that
/// epoch is idempotent.
#[test]
fn watchdog_releases_suspension_orphaned_by_coordinator_crash() {
    let mut lab = lab_with_watchdog(74, SimDuration::from_secs(2));
    lab.run_iperf_under_checkpoints(0);

    // Step until the delay node is mid-checkpoint (Dummynet suspended),
    // then kill the coordinator for far longer than the watchdog.
    let mut suspended = false;
    for _ in 0..600 {
        lab.engine.run_for(SimDuration::from_millis(50));
        if delay_node(&lab).dummynet().suspended() {
            suspended = true;
            break;
        }
    }
    assert!(suspended, "no round ever suspended the delay node");
    let coord = lab.coordinator;
    lab.engine
        .with_component::<Coordinator, _>(coord, |c, ctx| {
            c.crash(ctx, SimDuration::from_secs(10));
        });

    // Watchdog (2 s) fires well before the restart (10 s).
    lab.engine.run_for(SimDuration::from_secs(5));
    {
        let d = delay_node(&lab);
        assert_eq!(
            d.participant.watchdog_releases, 1,
            "the watchdog did not release the orphaned suspension"
        );
        assert!(
            !d.dummynet().suspended(),
            "delay node still suspended during the outage"
        );
        assert!(
            coordinator(&lab).is_crashed(),
            "coordinator restarted too early"
        );
    }

    // Restart, recover, and keep checkpointing.
    lab.engine.run_for(SimDuration::from_secs(20));
    lab.drain_checkpoints();

    let c = coordinator(&lab);
    assert_eq!(c.recovery_count(), 1);
    assert_eq!(unresolved(c), 0, "an epoch wedged across the outage");
    let (committed, _, _) = c.outcome_counts();
    assert!(committed >= 1, "no commits after recovery");
    let d = delay_node(&lab);
    assert_eq!(
        d.participant.watchdog_releases, 1,
        "watchdog fired on a live round"
    );
    assert!(
        d.stats.checkpoints >= 1,
        "delay node never checkpointed again"
    );
    assert_shadow_clean(&lab, "watchdog");
}

/// A quiet watchdog: on a healthy run where every resume arrives, the
/// armed watchdog must never fire.
#[test]
fn watchdog_is_silent_on_healthy_rounds() {
    let mut lab = lab_with_watchdog(75, SimDuration::from_secs(2));
    lab.run_iperf_under_checkpoints(20);
    lab.drain_checkpoints();

    let d = delay_node(&lab);
    assert!(d.stats.checkpoints >= 3, "rounds ran");
    assert_eq!(
        d.participant.watchdog_releases, 0,
        "spurious watchdog release"
    );
    let c = coordinator(&lab);
    assert_eq!(c.crash_count(), 0);
    assert_eq!(unresolved(c), 0);
}
