//! Coordinator crash/recovery tests: a coordinator that dies at any of
//! its four buggify crash points must replay its epoch WAL on restart,
//! classify the in-flight round correctly, and leave no epoch wedged —
//! and the whole crash/recover/abort dance must replay byte-identically
//! from the seed. Also covers the delay-node suspend watchdog, which
//! releases an orphaned Dummynet suspension when the coordinator stays
//! down past the resume it owed.

mod common;

use checkpoint::{Coordinator, DelayNodeHost, FailurePolicy, ShadowEpochState, Wal};
use sim::buggify::points;
use sim::SimDuration;

use common::{unresolved, warm_up, Lab, LabCfg};

/// The lab with a WAL-backed coordinator and an optional delay-node
/// suspend watchdog.
fn build_lab(seed: u64, watchdog: Option<SimDuration>) -> Lab {
    common::build_lab(&LabCfg {
        policy: Some(FailurePolicy::default()),
        wal: Some(Wal::in_memory()),
        watchdog,
        ..LabCfg::new(seed)
    })
}

/// Drives the lab with `point` forced to fire on every evaluation for
/// 15 s of epochs, then clears the force and runs 12 s clean so the
/// recovered coordinator can prove it still commits. Returns a full
/// observation tuple for the determinism comparison.
fn observe_forced_crash(point: &str, seed: u64) -> (u64, u64, (u64, u64, u64), String, String) {
    let mut lab = build_lab(seed, None);
    warm_up(&mut lab, false);
    lab.e.buggify().force(point, 1.0);
    lab.e.run_for(SimDuration::from_secs(15));
    lab.e.buggify().clear_force(point);
    lab.e.run_for(SimDuration::from_secs(12));
    let coord = lab.coord;
    lab.e
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    lab.e.run_for(SimDuration::from_secs(4));

    let c = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert!(!c.is_crashed(), "{point}: coordinator stuck down");
    assert_eq!(
        c.crash_count(),
        c.recovery_count(),
        "{point}: a crash without a matching recovery"
    );
    assert_eq!(unresolved(c), 0, "{point}: an epoch wedged");

    let events = lab.e.telemetry().trace_events();
    let violations = ShadowEpochState::replay(&events);
    assert!(
        violations.is_empty(),
        "{point}: shadow violations after recovery: {violations:?}"
    );

    let wal_dump = format!("{:?}", c.wal().unwrap().replay());
    let records = format!("{:?}", c.records);
    (c.crash_count(), c.recovery_count(), c.outcome_counts(), wal_dump, records)
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// Forced crash at each of the four buggify points: every crash is
/// followed by a recovery, no epoch wedges, the shadow checker stays
/// clean, and once the fault is lifted the coordinator commits again.
#[test]
fn forced_crash_at_every_point_recovers_without_wedging() {
    for point in [
        points::COORD_CRASH_PRE_NOTIFY,
        points::COORD_CRASH_MID_ACKS,
        points::COORD_CRASH_PRE_RESUME,
        points::COORD_CRASH_POST_COMMIT,
    ] {
        let (crashes, recoveries, (committed, _, _), wal_dump, _) =
            observe_forced_crash(point, 71);
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
    for point in [
        points::COORD_CRASH_PRE_NOTIFY,
        points::COORD_CRASH_MID_ACKS,
        points::COORD_CRASH_PRE_RESUME,
        points::COORD_CRASH_POST_COMMIT,
    ] {
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
    let mut lab = build_lab(74, Some(SimDuration::from_secs(2)));
    warm_up(&mut lab, false);

    // Step until the delay node is mid-checkpoint (Dummynet suspended),
    // then kill the coordinator for far longer than the watchdog.
    let (coord, dn) = (lab.coord, lab.dn);
    let mut suspended = false;
    for _ in 0..600 {
        lab.e.run_for(SimDuration::from_millis(50));
        let d = lab.e.component_ref::<DelayNodeHost>(dn).unwrap();
        if d.dummynet().suspended() {
            suspended = true;
            break;
        }
    }
    assert!(suspended, "no round ever suspended the delay node");
    lab.e.with_component::<Coordinator, _>(coord, |c, ctx| {
        c.crash(ctx, SimDuration::from_secs(10));
    });

    // Watchdog (2 s) fires well before the restart (10 s).
    lab.e.run_for(SimDuration::from_secs(5));
    {
        let d = lab.e.component_ref::<DelayNodeHost>(dn).unwrap();
        assert_eq!(
            d.participant.watchdog_releases, 1,
            "the watchdog did not release the orphaned suspension"
        );
        assert!(
            !d.dummynet().suspended(),
            "delay node still suspended during the outage"
        );
        let c = lab.e.component_ref::<Coordinator>(coord).unwrap();
        assert!(c.is_crashed(), "coordinator restarted too early");
    }

    // Restart, recover, and keep checkpointing.
    lab.e.run_for(SimDuration::from_secs(20));
    lab.e
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    lab.e.run_for(SimDuration::from_secs(4));

    let c = lab.e.component_ref::<Coordinator>(coord).unwrap();
    assert_eq!(c.recovery_count(), 1);
    assert_eq!(unresolved(c), 0, "an epoch wedged across the outage");
    let (committed, _, _) = c.outcome_counts();
    assert!(committed >= 1, "no commits after recovery");
    let d = lab.e.component_ref::<DelayNodeHost>(dn).unwrap();
    assert_eq!(d.participant.watchdog_releases, 1, "watchdog fired on a live round");
    assert!(d.stats.checkpoints >= 1, "delay node never checkpointed again");

    let events = lab.e.telemetry().trace_events();
    let violations = ShadowEpochState::replay(&events);
    assert!(violations.is_empty(), "shadow violations: {violations:?}");
}

/// A quiet watchdog: on a healthy run where every resume arrives, the
/// armed watchdog must never fire.
#[test]
fn watchdog_is_silent_on_healthy_rounds() {
    let mut lab = build_lab(75, Some(SimDuration::from_secs(2)));
    warm_up(&mut lab, false);
    lab.e.run_for(SimDuration::from_secs(20));
    let coord = lab.coord;
    lab.e
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    lab.e.run_for(SimDuration::from_secs(4));

    let d = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
    assert!(d.stats.checkpoints >= 3, "rounds ran");
    assert_eq!(d.participant.watchdog_releases, 0, "spurious watchdog release");
    let c = lab.e.component_ref::<Coordinator>(coord).unwrap();
    assert_eq!(c.crash_count(), 0);
    assert_eq!(unresolved(c), 0);
}
