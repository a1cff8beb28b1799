//! Time-transparency auditor over the trace ring.
//!
//! The paper's headline claim is that a checkpointed guest never
//! *observes* the checkpoint: no backward `gettimeofday`, no jiffies
//! jump, no wall-clock step across a freeze/resume (§4, Fig 2). The
//! instrumented guest kernel emits every guest-observable clock event
//! onto its host's `guest` trace track; this module walks those events
//! and mechanically asserts the invariants, returning a typed
//! [`AuditReport`] that tests and benches assert on.
//!
//! The audited invariants, per host:
//!
//! 1. **Monotonic guest time** — no guest-visible clock value (tick,
//!    `gettimeofday`, firewall close/reopen stamp) ever decreases.
//! 2. **Bounded resume step** — the guest time at which the temporal
//!    firewall reopens must match the time at which it closed, to
//!    within `MAX_RESUME_STEP_NS` (1 ms). A non-concealing
//!    checkpoint leaks its whole downtime here.
//! 3. **Bounded jiffies delta** — consecutive timer ticks advance guest
//!    time by at most `MAX_TICK_GAP_NS` (25 ms); a leaked resume
//!    shows up as one giant tick-to-tick gap.
//! 4. **No wall-clock step** — between consecutive guest observations,
//!    guest time advances by at most real (simulation) time plus
//!    `MAX_WALL_EXCESS_NS` (5 ms); guest time may pause
//!    (concealment) but never runs visibly ahead.
//!
//! The invariants are only as good as the stream they read, so a ring
//! that overwrote events fails the audit outright
//! ([`AuditViolation::TraceTruncated`]): the surviving suffix cannot
//! vouch for what it lost.

use std::fmt;

use crate::time::SimTime;

use super::names;
use super::ring::TracePhase;
use super::Telemetry;

// Thresholds for the transparency invariants. They accommodate the
// simulated testbed's legitimate noise: boot-time NTP steps of a few
// milliseconds (initial host clock offsets are under ±4 ms and are
// stepped once by the first poll), ±500 ppm NTP slewing, and the
// sub-100 µs resume IRQ latency — while still catching any leaked
// checkpoint downtime, which starts in the tens of milliseconds.

/// Max guest-time delta across a firewall close → reopen (ns).
const MAX_RESUME_STEP_NS: i64 = 1_000_000;
/// Max guest-time gap between consecutive timer ticks (ns); 2.5 tick
/// periods at the HZ=100 evaluation guest.
const MAX_TICK_GAP_NS: i64 = 25_000_000;
/// Max amount guest time may outrun real time between consecutive
/// observations (ns).
const MAX_WALL_EXCESS_NS: i64 = 5_000_000;

/// One violated transparency invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A guest-visible clock value decreased.
    BackwardClockStep {
        host: u32,
        at: SimTime,
        prev_guest_ns: i64,
        guest_ns: i64,
    },
    /// The firewall reopened at a guest time visibly later than it
    /// closed — the checkpoint downtime leaked into the guest.
    VisibleResumeStep {
        host: u32,
        at: SimTime,
        closed_guest_ns: i64,
        reopened_guest_ns: i64,
    },
    /// Consecutive timer ticks were separated by more guest time than
    /// the tick source can legitimately produce.
    JiffiesJump {
        host: u32,
        at: SimTime,
        gap_ns: i64,
        limit_ns: i64,
    },
    /// Guest time ran ahead of real time between two observations.
    WallClockStep {
        host: u32,
        at: SimTime,
        guest_delta_ns: i64,
        real_delta_ns: i64,
    },
    /// The trace ring overwrote `dropped` events, so the audit saw only
    /// the surviving suffix of the guests' clock streams.
    TraceTruncated { dropped: u64 },
}

impl AuditViolation {
    /// Stable machine-readable violation name.
    pub fn name(&self) -> &'static str {
        match self {
            AuditViolation::BackwardClockStep { .. } => "backward_clock_step",
            AuditViolation::VisibleResumeStep { .. } => "visible_resume_step",
            AuditViolation::JiffiesJump { .. } => "jiffies_jump",
            AuditViolation::WallClockStep { .. } => "wall_clock_step",
            AuditViolation::TraceTruncated { .. } => "trace_truncated",
        }
    }

    /// The host the violation occurred on (`None` for a truncated ring,
    /// which concerns every host).
    pub fn host(&self) -> Option<u32> {
        match *self {
            AuditViolation::BackwardClockStep { host, .. }
            | AuditViolation::VisibleResumeStep { host, .. }
            | AuditViolation::JiffiesJump { host, .. }
            | AuditViolation::WallClockStep { host, .. } => Some(host),
            AuditViolation::TraceTruncated { .. } => None,
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::BackwardClockStep { host, at, prev_guest_ns, guest_ns } => write!(
                f,
                "backward_clock_step on host {host} at {}ns: guest clock went {prev_guest_ns} -> {guest_ns}",
                at.as_nanos()
            ),
            AuditViolation::VisibleResumeStep { host, at, closed_guest_ns, reopened_guest_ns } => write!(
                f,
                "visible_resume_step on host {host} at {}ns: firewall closed at guest {closed_guest_ns}, reopened at {reopened_guest_ns} (+{}ns leaked)",
                at.as_nanos(),
                reopened_guest_ns - closed_guest_ns
            ),
            AuditViolation::JiffiesJump { host, at, gap_ns, limit_ns } => write!(
                f,
                "jiffies_jump on host {host} at {}ns: tick gap {gap_ns}ns exceeds {limit_ns}ns",
                at.as_nanos()
            ),
            AuditViolation::WallClockStep { host, at, guest_delta_ns, real_delta_ns } => write!(
                f,
                "wall_clock_step on host {host} at {}ns: guest advanced {guest_delta_ns}ns in {real_delta_ns}ns of real time",
                at.as_nanos()
            ),
            AuditViolation::TraceTruncated { dropped } => write!(
                f,
                "trace_truncated: the ring dropped {dropped} events, so only its surviving suffix was audited"
            ),
        }
    }
}

/// Outcome of a transparency audit.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every violated invariant, in event order.
    pub violations: Vec<AuditViolation>,
    /// Hosts that contributed guest-observable events.
    pub hosts_audited: usize,
    /// Guest `gettimeofday` observations examined.
    pub clock_reads: u64,
    /// Guest timer ticks examined.
    pub ticks: u64,
    /// Complete firewall close → reopen cycles examined.
    pub firewall_cycles: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human verdict.
    pub fn verdict(&self) -> String {
        if self.passed() {
            format!(
                "PASS: {} hosts, {} ticks, {} clock reads, {} firewall cycles, no transparency violations",
                self.hosts_audited, self.ticks, self.clock_reads, self.firewall_cycles
            )
        } else {
            format!(
                "FAIL: {} violations over {} hosts ({} ticks, {} clock reads, {} firewall cycles); first: {}",
                self.violations.len(),
                self.hosts_audited,
                self.ticks,
                self.clock_reads,
                self.firewall_cycles,
                self.violations[0]
            )
        }
    }
}

/// Audits the registry's trace ring, in place.
pub fn audit_transparency(t: &Telemetry) -> AuditReport {
    let mut report = AuditReport::default();
    let dropped = t.trace_dropped();
    if dropped > 0 {
        report.violations.push(AuditViolation::TraceTruncated { dropped });
    }
    let trace = t.trace_view();
    // The guest events' ring indices, grouped by host and in time order
    // within a host. The ring records in event order, which is time order
    // except for events deliberately stamped in the near future; the index
    // as the last key keeps record order among equal times, as a stable
    // sort would, without a sort buffer.
    let is_guest = |i: &u32| trace.get(*i as usize).subsystem == names::TRACK_GUEST;
    let n = trace.len() as u32;
    let mut guest: Vec<u32> = Vec::with_capacity((0..n).filter(is_guest).count());
    guest.extend((0..n).filter(is_guest));
    guest.sort_unstable_by_key(|&i| {
        let ev = trace.get(i as usize);
        (ev.host, ev.at, i)
    });
    let host_of = |i: &u32| trace.get(*i as usize).host;
    for evs in guest.chunk_by(|a, b| host_of(a) == host_of(b)) {
        report.hosts_audited += 1;
        let host = host_of(&evs[0]);
        // (real time, guest time) of the previous observation.
        let mut prev: Option<(SimTime, i64)> = None;
        let mut prev_tick: Option<i64> = None;
        let mut fw_closed_at: Option<i64> = None;
        for &i in evs {
            let ev = trace.get(i as usize);
            let guest_ns = ev.arg;
            if let Some((prev_at, prev_guest)) = prev {
                if guest_ns < prev_guest {
                    report.violations.push(AuditViolation::BackwardClockStep {
                        host,
                        at: ev.at,
                        prev_guest_ns: prev_guest,
                        guest_ns,
                    });
                }
                let guest_delta = guest_ns - prev_guest;
                let real_delta = ev.at.saturating_duration_since(prev_at).as_nanos() as i64;
                if guest_delta > real_delta + MAX_WALL_EXCESS_NS {
                    report.violations.push(AuditViolation::WallClockStep {
                        host,
                        at: ev.at,
                        guest_delta_ns: guest_delta,
                        real_delta_ns: real_delta,
                    });
                }
            }
            prev = Some((ev.at, guest_ns));
            match (ev.name, ev.phase) {
                (names::EV_GUEST_TICK, _) => {
                    report.ticks += 1;
                    if let Some(pt) = prev_tick {
                        let gap = guest_ns - pt;
                        if gap > MAX_TICK_GAP_NS {
                            report.violations.push(AuditViolation::JiffiesJump {
                                host,
                                at: ev.at,
                                gap_ns: gap,
                                limit_ns: MAX_TICK_GAP_NS,
                            });
                        }
                    }
                    prev_tick = Some(guest_ns);
                }
                (names::EV_GUEST_CLOCK_READ, _) => {
                    report.clock_reads += 1;
                }
                (names::EV_GUEST_FW_CLOSED, TracePhase::Begin) => {
                    fw_closed_at = Some(guest_ns);
                }
                (names::EV_GUEST_FW_CLOSED, TracePhase::End) => {
                    if let Some(closed) = fw_closed_at.take() {
                        report.firewall_cycles += 1;
                        if guest_ns - closed > MAX_RESUME_STEP_NS {
                            report.violations.push(AuditViolation::VisibleResumeStep {
                                host,
                                at: ev.at,
                                closed_guest_ns: closed,
                                reopened_guest_ns: guest_ns,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Builds a registry with a synthetic guest event stream.
    fn rig() -> (Telemetry, super::super::TrackId) {
        let t = Telemetry::new();
        let track = t.track(1, names::TRACK_GUEST);
        (t, track)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn clean_concealed_epoch_passes() {
        let (t, g) = rig();
        let tick = t.trace_tag(names::EV_GUEST_TICK);
        let read = t.trace_tag(names::EV_GUEST_CLOCK_READ);
        let fw = t.trace_tag(names::EV_GUEST_FW_CLOSED);
        // Ticks every 10 ms of guest time, tracking real time...
        for i in 0..5i64 {
            t.trace_instant(g, tick, ms(10 * (i as u64 + 1)), 10_000_000 * (i + 1));
        }
        // ...then a concealed 40 ms checkpoint: the firewall closes and
        // reopens at the *same* guest time, and the post-resume ticks
        // continue the guest-time sequence seamlessly.
        t.trace_begin(g, fw, ms(52), 50_000_000);
        t.trace_end(g, fw, ms(92), 50_000_000);
        for i in 5..8i64 {
            t.trace_instant(g, tick, ms(10 * (i as u64 + 1) + 40), 10_000_000 * (i + 1));
        }
        t.trace_instant(g, read, ms(121), 81_000_000);
        let rep = audit_transparency(&t);
        assert!(rep.passed(), "clean epoch must pass: {}", rep.verdict());
        assert_eq!(rep.hosts_audited, 1);
        assert_eq!(rep.ticks, 8);
        assert_eq!(rep.clock_reads, 1);
        assert_eq!(rep.firewall_cycles, 1);
    }

    #[test]
    fn backward_clock_step_is_flagged_and_named() {
        let (t, g) = rig();
        let read = t.trace_tag(names::EV_GUEST_CLOCK_READ);
        t.trace_instant(g, read, ms(10), 10_000_000);
        t.trace_instant(g, read, ms(11), 4_000_000); // 6 ms backward
        let rep = audit_transparency(&t);
        assert!(!rep.passed());
        assert_eq!(rep.violations[0].name(), "backward_clock_step");
        assert_eq!(rep.violations[0].host(), Some(1));
        match rep.violations[0] {
            AuditViolation::BackwardClockStep { prev_guest_ns, guest_ns, .. } => {
                assert_eq!((prev_guest_ns, guest_ns), (10_000_000, 4_000_000));
            }
            ref other => panic!("expected BackwardClockStep, got {other:?}"),
        }
    }

    #[test]
    fn leaked_downtime_is_a_visible_resume_step_and_jiffies_jump() {
        let (t, g) = rig();
        let tick = t.trace_tag(names::EV_GUEST_TICK);
        let fw = t.trace_tag(names::EV_GUEST_FW_CLOSED);
        t.trace_instant(g, tick, ms(10), 10_000_000);
        // Stop-and-copy: 60 ms of downtime leaks into guest time.
        t.trace_begin(g, fw, ms(12), 12_000_000);
        t.trace_end(g, fw, ms(72), 72_000_000);
        t.trace_instant(g, tick, ms(80), 80_000_000);
        let rep = audit_transparency(&t);
        let names: Vec<&str> = rep.violations.iter().map(|v| v.name()).collect();
        assert!(names.contains(&"visible_resume_step"), "got {names:?}");
        assert!(names.contains(&"jiffies_jump"), "got {names:?}");
    }

    #[test]
    fn wall_clock_step_is_flagged() {
        let (t, g) = rig();
        let read = t.trace_tag(names::EV_GUEST_CLOCK_READ);
        t.trace_instant(g, read, ms(10), 10_000_000);
        // Guest gains 100 ms in 1 ms of real time: a forward step.
        t.trace_instant(g, read, ms(11), 110_000_000);
        let rep = audit_transparency(&t);
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].name(), "wall_clock_step");
    }

    #[test]
    fn a_truncated_ring_never_passes() {
        let (t, g) = rig();
        let tick = t.trace_tag(names::EV_GUEST_TICK);
        t.set_trace_capacity(8);
        // Twenty clean ticks, 10 ms apart in both clocks: the ring keeps
        // the last eight, each of which would pass on its own.
        for i in 1..=20u64 {
            t.trace_instant(g, tick, ms(10 * i), 10_000_000 * i as i64);
        }
        let rep = audit_transparency(&t);
        assert_eq!(rep.violations, vec![AuditViolation::TraceTruncated { dropped: 12 }]);
        assert_eq!(rep.violations[0].host(), None);
        assert_eq!(rep.ticks, 8, "the surviving suffix is still audited");
        assert!(rep.verdict().starts_with("FAIL: 1 violations"), "{}", rep.verdict());
    }

    #[test]
    fn small_ntp_noise_is_tolerated() {
        let (t, g) = rig();
        let tick = t.trace_tag(names::EV_GUEST_TICK);
        // A 3 ms forward step between ticks (boot NTP): under both the
        // wall-excess and tick-gap thresholds.
        t.trace_instant(g, tick, ms(10), 10_000_000);
        t.trace_instant(g, tick, ms(20), 23_000_000);
        t.trace_instant(g, tick, ms(30), 33_000_000);
        let rep = audit_transparency(&t);
        assert!(rep.passed(), "{}", rep.verdict());
    }
}
