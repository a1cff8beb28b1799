//! Cross-crate integration: the event trace ring and the time-transparency
//! auditor over full testbed runs.
//!
//! The auditor judges transparency from the guest's own clock witness
//! (republished onto the `guest` trace track by the vmm): the paper's
//! concealed checkpoints must pass, a non-concealing stop-and-copy must
//! fail with a *named* violation, and raw kernel firewall misuse must be
//! caught as a backward clock step.

use emulab_checkpoint::checkpoint::Strategy;
use emulab_checkpoint::emulab::{ExperimentSpec, Testbed};
use emulab_checkpoint::guestos::{ClockEventKind, Kernel, KernelConfig};
use emulab_checkpoint::hwsim::NodeAddr;
use emulab_checkpoint::sim::telemetry::names;
use emulab_checkpoint::sim::{
    audit_transparency, AuditViolation, SimDuration, SimTime, Telemetry,
};
use emulab_checkpoint::workloads::{IperfReceiver, IperfSender};

/// Two nodes, periodic coordinated checkpoints under `strategy`, a busy
/// iperf stream so the guests read their clocks constantly.
fn checkpointed_run(strategy: Strategy) -> Telemetry {
    let mut tb = Testbed::with_strategy(4242, 4, strategy);
    tb.swap_in(
        ExperimentSpec::new("audit").node("a").node("b").link(
            "a",
            "b",
            1_000_000_000,
            SimDuration::from_micros(100),
            0.0,
        ),
    )
    .expect("swap-in");
    tb.run_for(SimDuration::from_secs(12));
    let b_addr = tb.node_addr("audit", "b");
    tb.spawn("audit", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("audit", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(11));
    tb.stop_periodic_checkpoints();
    tb.run_for(SimDuration::from_secs(1));
    tb.telemetry().clone()
}

/// The paper's mechanism: downtime concealed behind the temporal
/// firewall. The guests must never see the checkpoints.
#[test]
fn transparent_checkpoints_pass_the_audit() {
    let t = checkpointed_run(Strategy::Transparent);
    let report = audit_transparency(&t);
    assert!(
        report.firewall_cycles >= 2,
        "the run must actually checkpoint (saw {} firewall cycles)",
        report.firewall_cycles
    );
    assert!(report.ticks > 0 && report.clock_reads > 0, "guest evidence present");
    assert!(report.passed(), "expected a clean audit, got: {}", report.verdict());
}

/// Conventional stop-and-copy: real downtime steps straight into guest
/// time, and the auditor must name the leak.
#[test]
fn nonconcealing_checkpoints_fail_with_a_visible_resume_step() {
    let t = checkpointed_run(Strategy::NonConcealing);
    let report = audit_transparency(&t);
    assert!(!report.passed(), "non-concealing downtime must fail the audit");
    let resume_step = report
        .violations
        .iter()
        .find(|v| matches!(v, AuditViolation::VisibleResumeStep { .. }))
        .expect("a VisibleResumeStep violation");
    assert_eq!(resume_step.name(), "visible_resume_step");
}

/// Firewall misuse at the kernel API: resuming the guest in its own past.
/// Republishing the kernel's clock witness the way the vmm pump does must
/// surface a backward clock step.
#[test]
fn kernel_firewall_misuse_is_flagged_as_a_backward_clock_step() {
    let mut k = Kernel::new(KernelConfig::pc3000_guest(NodeAddr(1)));
    k.on_timer_tick(10_000_000);
    assert!(k.prepare_suspend(20_000_000), "idle guest suspends immediately");
    // Misuse: reopen the firewall 5 ms in the guest's past.
    k.finish_resume(15_000_000);

    let t = Telemetry::new();
    let track = t.track(1, names::TRACK_GUEST);
    let ev_tick = t.trace_tag(names::EV_GUEST_TICK);
    let ev_fw = t.trace_tag(names::EV_GUEST_FW_CLOSED);
    let mut at = SimTime::ZERO;
    let mut observed = Vec::new();
    k.witness.drain(&mut observed);
    for obs in observed {
        at += SimDuration::from_millis(1);
        let g = obs.guest_ns as i64;
        match obs.kind {
            ClockEventKind::Tick => t.trace_instant(track, ev_tick, at, g),
            ClockEventKind::FirewallClosed => t.trace_begin(track, ev_fw, at, g),
            ClockEventKind::FirewallOpened => t.trace_end(track, ev_fw, at, g),
            ClockEventKind::ClockRead => t.trace_instant(track, ev_tick, at, g),
        }
    }

    let report = audit_transparency(&t);
    assert!(!report.passed());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.name() == "backward_clock_step"),
        "expected backward_clock_step, got: {}",
        report.verdict()
    );
}
