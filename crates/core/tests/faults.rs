//! Fault-injection tests for the failure-tolerant coordinator: epochs
//! under control-plane loss, stragglers, and crashes must terminate
//! (commit, abort, or degrade — never wedge), abort deterministically,
//! and leave the guests untouched when they do commit.

mod common;

use checkpoint::{Coordinator, DelayNodeHost, EpochOutcome, FailurePolicy, GroupId};
use sim::{FaultPlan, SimDuration};
use vmm::VmHost;

use common::{build_lab, spawn_iperf, unresolved, warm_up, Lab, LabCfg};

/// Warm-up, iperf, periodic checkpoints for `secs`, then a drain window so
/// every in-flight epoch reaches a terminal outcome.
fn run_iperf(cfg: &LabCfg, secs: u64) -> Lab {
    let mut lab = build_lab(cfg);
    warm_up(&mut lab, true);
    lab.e.run_for(SimDuration::from_secs(secs));
    let coord = lab.coord;
    lab.e
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    lab.e.run_for(SimDuration::from_secs(4));
    lab
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// The acceptance scenario: 10% control-plane loss plus a straggler node.
/// Every epoch terminates, the failure detector retries cover the loss,
/// and the committed epochs leave the guest TCP stream untouched.
#[test]
fn epochs_terminate_under_loss_and_straggler() {
    let cfg = LabCfg {
        faults: Some(FaultPlan::new(61).with_loss(0.10)),
        stall: Some(SimDuration::from_millis(50)),
        policy: Some(FailurePolicy {
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        ..LabCfg::new(61)
    };
    let lab = run_iperf(&cfg, 25);
    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 4, "only {committed} commits under 10% loss");
    assert_eq!((aborted, degraded), (0, 0), "loss alone must not abort");

    // Transparency of committed epochs (§7.1 under faults).
    let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
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
    assert!(receiver.bytes_delivered > 50 << 20, "stream made progress");
    let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
    assert!(
        dn.stats.checkpoints >= 4,
        "the network core checkpointed through the loss"
    );
}

/// Same seed + same fault plan ⇒ the same aborts, the same world: the
/// abort path is as deterministic as the commit path.
#[test]
fn abort_path_is_deterministic() {
    let observe = |seed: u64| {
        let cfg = LabCfg {
            faults: Some(FaultPlan::new(17).with_loss(0.05)),
            stall: Some(SimDuration::from_secs(3)),
            policy: Some(FailurePolicy {
                resume_repeats: 2,
                ..FailurePolicy::default()
            }),
            ..LabCfg::new(seed)
        };
        let lab = run_iperf(&cfg, 15);
        let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
        assert_eq!(unresolved(coord), 0);
        let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
        assert!(dn.participant.aborted >= 1, "the delay node rolled back too");
        let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
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
        let cfg = LabCfg {
            faults: Some(FaultPlan::new(5).with_loss(1.0)),
            stall: None,
            policy: None,
            ..LabCfg::new(64)
        };
        let mut lab = build_lab(&cfg);
        lab.e.run_for(SimDuration::from_secs(20));
        spawn_iperf(&mut lab, true);
        lab.e.run_for(SimDuration::from_secs(2));
        if trigger {
            let coord = lab.coord;
            lab.e
                .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        }
        lab.e.run_for(SimDuration::from_secs(5));
        let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
        let outcomes = coord.outcome_counts();
        let ha = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
        let hb = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        (
            outcomes,
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
    let cfg = LabCfg {
        faults: Some(
            FaultPlan::new(65).with_crash(2, sim::SimTime::from_nanos(30_000_000_000)),
        ),
        stall: None,
        policy: Some(FailurePolicy {
            epoch_deadline: SimDuration::from_millis(500),
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        ..LabCfg::new(65)
    };
    let lab = run_iperf(&cfg, 25);
    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 1, "epochs before the crash commit");
    assert!(degraded >= 2, "epochs after the crash degrade");
    assert_eq!(aborted, 0, "a crashed (never-acked) node degrades, not aborts");
    assert!(
        coord
            .records
            .iter()
            .filter(|r| r.outcome == Some(EpochOutcome::Degraded))
            .all(|r| r.excluded == 1),
        "degraded epochs excluded exactly the crashed node"
    );
    let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
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
    let cfg = LabCfg {
        faults: Some(FaultPlan::new(67).with_loss(0.10)),
        // Host B stalls its done report past the 2 s epoch deadline, so
        // every group-2 round aborts; group 1 never sees that straggler.
        stall: Some(SimDuration::from_secs(3)),
        policy: Some(FailurePolicy {
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        split_groups: true,
        ..LabCfg::new(67)
    };
    let mut lab = build_lab(&cfg);
    lab.e.run_for(SimDuration::from_secs(20));
    spawn_iperf(&mut lab, false);
    lab.e.run_for(SimDuration::from_secs(2));

    // Three rounds of simultaneous triggers: both groups get a round at
    // the same instant, then 6 s for each to reach a terminal outcome.
    let coord = lab.coord;
    for _ in 0..3 {
        lab.e.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.trigger_in(ctx, GroupId(1));
            c.trigger_in(ctx, GroupId(2));
        });
        lab.e.run_for(SimDuration::from_secs(6));
    }

    let c = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(c), 0, "an epoch wedged");
    let g1: Vec<_> = c.records.iter().filter(|r| r.group == GroupId(1)).collect();
    let g2: Vec<_> = c.records.iter().filter(|r| r.group == GroupId(2)).collect();
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
            let cfg = LabCfg {
                faults: Some(FaultPlan::new(66).with_loss(loss)),
                stall: (stall_ms > 0).then(|| SimDuration::from_millis(stall_ms)),
                policy: Some(FailurePolicy {
                    resume_repeats: 2,
                    ..FailurePolicy::default()
                }),
                ..LabCfg::new(66)
            };
            let lab = run_iperf(&cfg, 15);
            let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
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
                let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
                let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
                let s = a.kernel().net_totals();
                let r = b.kernel().net_totals();
                assert_eq!(
                    s.retransmissions + s.timeouts + s.dup_acks + s.window_shrinks + r.window_shrinks,
                    0,
                    "committed epochs disturbed the guest at loss {loss} stall {stall_ms} ms"
                );
            }
        }
    }
}
