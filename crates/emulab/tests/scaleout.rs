//! Scale-out path end to end: testbed spec → shard plan → scale lab, the
//! shipped coordinator and participant on the sharded engine. Every run
//! must commit every round, keep the shadow model clean over the merged
//! trace, and export byte-identical telemetry for every shard layout,
//! sequential or threaded.

use checkpoint::{shadow, ShadowEpochState, ShadowViolation};
use emulab::{ExperimentSpec, ScaleLab, ScaleOutcome, ScalePlan, Testbed};
use sim::telemetry::names;
use sim::SimDuration;

/// `nodes` leaves dealt into `groups` equal groups behind a 5 ms hub.
fn star_plan(nodes: u32, groups: u32) -> ScalePlan {
    let spec = ExperimentSpec::star("lab", nodes, 100_000_000, SimDuration::from_millis(5));
    ScalePlan::from_spec(&spec, groups).unwrap()
}

fn run(plan: &ScalePlan, seed: u64, shards: u32, parallel: bool, epochs: u32) -> ScaleLab {
    let mut lab = plan.build_lab(seed, shards, epochs, SimDuration::from_millis(200));
    lab.engine.set_parallel(parallel);
    lab.run();
    lab.check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed} shards {shards} parallel {parallel}: {e}"));
    lab
}

fn outcome(plan: &ScalePlan, seed: u64, shards: u32, parallel: bool, epochs: u32) -> ScaleOutcome {
    run(plan, seed, shards, parallel, epochs).outcome()
}

#[test]
fn sixty_four_node_lab_is_layout_invariant() {
    let plan = star_plan(64, 8);
    for seed in [7u64, 1009] {
        let base = outcome(&plan, seed, 1, false, 3);
        assert_eq!(base.nodes, 64);
        assert_eq!(base.epochs_committed, 3);
        assert!(base.pings > 0, "background gossip must run");
        for shards in [2u32, 3, 4] {
            assert_eq!(outcome(&plan, seed, shards, false, 3), base, "seed {seed} S={shards}");
            let threaded = outcome(&plan, seed, shards, true, 3);
            assert_eq!(threaded, base, "seed {seed} S={shards} threaded");
        }
    }
}

#[test]
fn larger_lab_scales_and_stays_invariant() {
    let plan = star_plan(256, 16);
    let base = outcome(&plan, 99, 1, false, 2);
    assert_eq!(base.nodes, 256);
    for shards in [2u32, 4, 8] {
        assert_eq!(outcome(&plan, 99, shards, false, 2), base, "S={shards}");
        assert_eq!(outcome(&plan, 99, shards, true, 2), base, "S={shards} threaded");
    }
}

#[test]
fn ragged_groups_work() {
    // A tree plan deals subtrees of different sizes into its groups.
    let spec = ExperimentSpec::tree(
        "ragged",
        3,
        3,
        1_000_000_000,
        SimDuration::from_millis(4),
        SimDuration::from_micros(400),
    );
    let plan = ScalePlan::from_spec(&spec, 3).unwrap();
    let sizes: Vec<usize> = plan.groups.iter().map(Vec::len).collect();
    assert!(sizes.iter().any(|&n| n != sizes[0]), "groups {sizes:?} are not ragged");
    let base = outcome(&plan, 3, 1, false, 2);
    assert_eq!(base.nodes as usize, plan.nodes());
    assert_eq!(outcome(&plan, 3, 3, true, 2), base);
}

/// The merged trace's shadow verdict with `drop` filtered out.
fn shadow_without(lab: &ScaleLab, drop: impl Fn(&sim::TraceEvent) -> bool) -> ShadowEpochState {
    let mut s = ShadowEpochState::new();
    for ev in lab.engine.merged_telemetry().trace_events().iter().filter(|ev| !drop(ev)) {
        s.step(ev);
    }
    s.finish();
    s
}

#[test]
fn shadow_sees_every_round_and_catches_a_dropped_done() {
    let lab = run(&star_plan(64, 8), 11, 4, false, 3);
    let clean = shadow_without(&lab, |_| false);
    assert!(clean.violations().is_empty(), "{:?}", clean.violations());
    assert_eq!(clean.epochs_checked, 3);
    // Sabotage: node 17's done report of epoch 2 never reached the model,
    // yet the coordinator committed the round.
    let sabotaged = shadow_without(&lab, |ev| {
        ev.name == names::EV_SHADOW_DONE && shadow::unpack(ev.arg) == (0, 2, 17)
    });
    assert_eq!(
        sabotaged.violations(),
        [ShadowViolation::CommitIncomplete { group: 0, epoch: 2, missing: vec![17] }]
    );
}

#[test]
fn thousand_node_star_plans_and_runs_under_every_layout() {
    let spec = ExperimentSpec::star("grid", 1000, 100_000_000, SimDuration::from_millis(5));
    assert!(spec.validate().is_ok());
    assert_eq!(spec.nodes.len(), 1001);

    // Planning goes through the testbed's front door; the testbed's
    // machine pool does not bound scale runs.
    let tb = Testbed::new(1, 4);
    let plan = tb.plan_scale_out(&spec, 16).unwrap();
    assert_eq!(plan.hub, "hub");
    assert_eq!(plan.nodes(), 1000);
    assert_eq!(plan.groups.len(), 16);
    assert_eq!(plan.lookahead, SimDuration::from_millis(5));

    let base = outcome(&plan, 77, 1, false, 2);
    assert_eq!(base.nodes, 1000);
    assert_eq!(base.epochs_committed, 2);
    assert_eq!(outcome(&plan, 77, 4, false, 2), base, "4-shard run diverged from 1-shard");
}

#[test]
fn tree_spec_round_trips_through_the_plan() {
    // 4-ary tree of depth 5: 1 + 4 + 16 + 64 + 256 + 1024 = 1365 nodes.
    let spec = ExperimentSpec::tree(
        "deep",
        4,
        5,
        1_000_000_000,
        SimDuration::from_millis(4),
        SimDuration::from_micros(400),
    );
    assert_eq!(spec.nodes.len(), 1365);
    let plan = ScalePlan::from_spec(&spec, 8).unwrap();
    assert_eq!(plan.nodes(), 1364, "all non-hub nodes grouped");
    assert!(plan.lookahead > SimDuration::ZERO);
}
