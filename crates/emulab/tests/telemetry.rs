//! End-to-end telemetry over the full testbed stack: one registry handle
//! threads through engine, coordinator, hosts, the dedup store, and the
//! swap paths, and every seam records into it.

use emulab::{ExperimentSpec, SpecError, SwapError, Testbed, TestbedError};
use sim::SimDuration;

fn two_node_spec(name: &str) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .node("a")
        .node("b")
        .lan(&["a", "b"], 100_000_000, SimDuration::from_micros(50))
}

#[test]
fn checkpoint_and_swap_seams_record_into_one_registry() {
    let mut tb = Testbed::new(300, 8);
    tb.swap_in(two_node_spec("x")).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));
    tb.checkpoint_once();
    tb.checkpoint_once();

    let t = tb.telemetry();
    // Testbed control paths.
    assert_eq!(t.counter_value("testbed.swap_ins"), Some(1));
    assert_eq!(t.counter_value("testbed.checkpoints"), Some(2));
    let swap_in = t.histogram_summary("testbed.swap_in_ns").expect("registered");
    assert_eq!(swap_in.count, 1);
    assert!(
        swap_in.max >= 8e9,
        "swap-in includes the 8 s boot overhead, got {}",
        swap_in.max
    );
    // Coordinator epoch lifecycle (notify→acks, barrier, outcomes).
    assert_eq!(t.counter_value("coordinator.epochs_committed"), Some(2));
    let acks = t.histogram_summary("coordinator.notify_to_acks_ns").expect("registered");
    assert_eq!(acks.count, 2);
    assert!(acks.max > 0.0, "acks arrive after a LAN round trip");
    let epochs = t.span_summary("coordinator", "epoch").expect("registered");
    assert_eq!(epochs.count, 2);
    // VmHost freeze/thaw downtime: one sample per node per checkpoint.
    let down = t.histogram_summary("vmhost.downtime_ns").expect("registered");
    assert_eq!(down.count, 4, "2 nodes x 2 checkpoints");
    assert!(down.min > 0.0);

    // Stateful swap-out/swap-in drives the dedup-store counters through
    // the same registry.
    tb.swap_out_stateful("x");
    assert_eq!(tb.telemetry().counter_value("testbed.swap_outs"), Some(1));
    assert!(
        tb.telemetry().counter_value("ckptstore.logical_bytes").unwrap_or(0) > 0,
        "swap-out serialized state into the file-server store"
    );
    let rep = tb.swap_in_stateful("x", false);
    assert!(rep.warning.is_none());
    let t = tb.telemetry();
    assert_eq!(t.counter_value("testbed.swap_ins"), Some(2));
    assert_eq!(t.histogram_summary("testbed.stateful_swap_in_ns").map(|s| s.count), Some(1));
}

#[test]
fn same_seed_runs_export_identical_csv() {
    let run = || {
        let mut tb = Testbed::new(301, 8);
        tb.swap_in(two_node_spec("x")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(5));
        tb.checkpoint_once();
        tb.swap_out_stateful("x");
        tb.swap_in_stateful("x", false);
        tb.telemetry().to_csv()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "telemetry export must be deterministic across same-seed runs");
    assert!(a.lines().count() > 10, "export covers the instrumented seams");
}

#[test]
fn same_seed_runs_export_identical_perfetto_with_flow_events() {
    let run = || {
        let mut tb = Testbed::new(303, 8);
        tb.swap_in(two_node_spec("x")).expect("swap-in");
        tb.run_for(SimDuration::from_secs(5));
        tb.checkpoint_once();
        tb.checkpoint_once();
        tb.telemetry().trace_to_perfetto()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "Perfetto export must be byte-identical across same-seed runs");
    // The causal flow rides the export as Perfetto flow events: a start
    // at the coordinator's publish, steps at each ack/capture, and an
    // end at the resume release — these draw the cross-host arrows.
    for (arm, name) in [
        ("\"ph\":\"s\"", "flow.notify"),
        ("\"ph\":\"t\"", "flow.ack"),
        ("\"ph\":\"t\"", "flow.capture"),
        ("\"ph\":\"f\"", "flow.resume"),
    ] {
        assert!(
            a.lines().any(|l| l.contains(arm) && l.contains(name)),
            "export must carry a {arm} flow event named {name}"
        );
    }
}

#[test]
fn critpath_segments_sum_to_the_measured_epoch_span() {
    let mut tb = Testbed::new(304, 8);
    tb.swap_in(two_node_spec("x")).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));
    tb.checkpoint_once();
    tb.checkpoint_once();
    tb.checkpoint_once();
    let paths = sim::telemetry::critpath::analyze(&tb.telemetry().trace_events());
    assert_eq!(paths.len(), 3, "one analyzed path per committed round");
    for p in &paths {
        assert!(p.committed);
        assert_eq!(
            p.segments_sum_ns(),
            p.wall_ns(),
            "epoch {}: the four segments must partition the wall time",
            p.epoch
        );
        assert!(p.notify_fanout_ns > 0, "acks arrive after a LAN round trip");
        assert!(p.capture_wait_ns > 0, "captures take real drain time");
        assert_eq!(p.participants, 2, "both nodes contribute to the flow");
    }
    // The attributed wall times are the same spans the metrics side
    // measures: their total matches the coordinator's epoch span
    // histogram within rounding.
    let span = tb
        .telemetry()
        .span_summary("coordinator", "epoch")
        .expect("epoch span registered");
    assert_eq!(span.count, 3);
    let total: u64 = paths.iter().map(|p| p.wall_ns()).sum();
    assert!(
        (span.sum - total as f64).abs() < 1.0,
        "critpath wall total {} ns must equal the measured epoch span sum {} ns",
        total,
        span.sum
    );
}

#[test]
fn swap_in_failures_are_typed_and_leak_nothing() {
    let mut tb = Testbed::new(302, 2);
    // 2 nodes + 1 delay node > 2 machines.
    let spec = ExperimentSpec::new("big").node("a").node("b").link(
        "a",
        "b",
        1_000_000_000,
        SimDuration::from_micros(100),
        0.0,
    );
    match tb.swap_in(spec) {
        Err(SwapError::Testbed(TestbedError::NoFreeMachines { needed: 3, free: 2 })) => {}
        other => panic!("expected NoFreeMachines, got {other:?}"),
    }
    assert_eq!(tb.free_machines(), 2, "failed swap-in claims no machines");

    match tb.swap_in(ExperimentSpec::new("img").node_with_image("n", "NOPE")) {
        Err(SwapError::Testbed(TestbedError::UnknownImage { image })) => {
            assert_eq!(image, "NOPE");
        }
        other => panic!("expected UnknownImage, got {other:?}"),
    }

    tb.swap_in(ExperimentSpec::new("ok").node("n")).expect("fits");
    match tb.swap_in(ExperimentSpec::new("ok").node("n")) {
        Err(SwapError::AlreadySwappedIn { name }) => assert_eq!(name, "ok"),
        other => panic!("expected AlreadySwappedIn, got {other:?}"),
    }
}

/// Shaping parameters no frame can cross are refused before allocation.
/// Unchecked, a zero-bandwidth link swaps in and panics on its first
/// frame, while a zero-bandwidth LAN or an out-of-range loss panics in
/// the middle of swap-in, after machines are claimed.
#[test]
fn invalid_shaping_is_a_spec_error_that_claims_no_machines() {
    let mut tb = Testbed::new(303, 4);
    let link = |bw: u64, loss: f64| {
        ExperimentSpec::new("shaped").node("a").node("b").link(
            "a",
            "b",
            bw,
            SimDuration::from_micros(100),
            loss,
        )
    };
    let s = |name: &str| name.to_string();
    let cases = [
        (link(0, 0.0), SpecError::ZeroLinkBandwidth { a: s("a"), b: s("b") }),
        (link(1_000_000, 1.5), SpecError::LinkLossOutOfRange { a: s("a"), b: s("b"), loss: 1.5 }),
        (link(1_000_000, -0.1), SpecError::LinkLossOutOfRange { a: s("a"), b: s("b"), loss: -0.1 }),
        (
            ExperimentSpec::new("lan").node("a").node("b").lan(&["a", "b"], 0, SimDuration::ZERO),
            SpecError::ZeroLanBandwidth { lan: 0 },
        ),
    ];
    for (spec, want) in cases {
        match tb.swap_in(spec) {
            Err(SwapError::Spec(got)) => assert_eq!(got, want),
            other => panic!("expected {want}, got {other:?}"),
        }
        assert_eq!(tb.free_machines(), 4, "rejected spec claims no machines");
    }
    match tb.swap_in(link(1_000_000, f64::NAN)) {
        Err(SwapError::Spec(SpecError::LinkLossOutOfRange { loss, .. })) => assert!(loss.is_nan()),
        other => panic!("expected LinkLossOutOfRange, got {other:?}"),
    }
    assert_eq!(tb.free_machines(), 4);
}
