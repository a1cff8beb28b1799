//! The metric declarations: every name the benchmark prints, with its
//! unit, the clock it is on and where its value comes from. This table and
//! `BENCHMARK.json` must agree; `tests/smoke.rs` checks that they do.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// What the simulator takes to run, on this machine.
    Host,
    /// What the modelled Emulab would take; exact for a given seed.
    Sim,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// A host-time span around a call the benchmark makes.
    Span,
    /// A counter or record the program keeps.
    Count,
    /// A stand-alone loop over one layer's inner path.
    Probe,
    /// The difference between two reps that differ in one thing.
    Diff,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub source: Source,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

impl Metric {
    /// Metrics that repeat exactly for a seed and so compare exactly.
    pub fn exact(&self) -> bool {
        self.clock == Clock::Sim || self.name == "sim.events"
    }

    pub fn tags(&self) -> String {
        format!(
            "{} {}",
            match self.clock {
                Clock::Host => "host",
                Clock::Sim => "sim",
            },
            match self.source {
                Source::Span => "span",
                Source::Count => "count",
                Source::Probe => "probe",
                Source::Diff => "diff",
            }
        )
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        source: Source::Span,
        better,
        bound: Some(bound),
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    source: Source,
    better: Better,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        source,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};
use Source::{Count, Diff, Probe, Span};

/// Simulated-time units carry a `sim_` prefix: they are model outputs and
/// must never be read as wall-clock.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("host_ms_per_sim_s", "ms/s", Host, Lower, 0.25),
    e2e("peak_rss_mb", "MB", Host, Lower, 0.10),
    Metric {
        source: Count,
        ..e2e("sim_op_ms_p50", "sim_ms", Sim, Lower, 0.01)
    },
    Metric {
        source: Count,
        ..e2e("sim_op_ms_max", "sim_ms", Sim, Lower, 0.01)
    },
    Metric {
        source: Count,
        ..e2e("sim_goodput_mbps", "sim_MB/s", Sim, Higher, 0.05)
    },
];

pub const PER_LAYER: [Metric; 57] = [
    layer("emulab.run_for.host_ms", "ms", Host, Span, Lower),
    layer("emulab.run_for.slice_ms_p50", "ms", Host, Span, Lower),
    layer("emulab.run_for.slice_ms_p90", "ms", Host, Span, Lower),
    layer("emulab.snapshot.host_ms_p50", "ms", Host, Span, Lower),
    layer("emulab.snapshot.host_ms_p90", "ms", Host, Span, Lower),
    layer("emulab.travel_to.host_ms_p50", "ms", Host, Span, Lower),
    layer("emulab.travel_to.host_ms_p90", "ms", Host, Span, Lower),
    layer("emulab.swap_out.host_ms", "ms", Host, Span, Lower),
    layer("emulab.swap_in.host_ms", "ms", Host, Span, Lower),
    layer("emulab.op_self_ms", "ms", Host, Span, Lower),
    layer("sim.events", "count", Sim, Count, Lower),
    layer("sim.host_ns_per_event", "ns", Host, Span, Lower),
    layer("sim.events_per_host_s", "1/s", Host, Span, Higher),
    layer("sim.probe.dispatch_ns", "ns", Host, Probe, Lower),
    layer("sim.probe.cancel_ns", "ns", Host, Probe, Lower),
    layer("sim.est_share_pct", "%", Host, Probe, Lower),
    layer("hwsim.frames", "count", Sim, Count, Lower),
    layer("hwsim.disk_ios", "count", Sim, Count, Lower),
    layer("clocksync.skew_sim_us_max", "sim_us", Sim, Count, Lower),
    layer("guestos.tcp_segments", "count", Sim, Count, Lower),
    layer("guestos.retransmissions", "count", Sim, Count, Lower),
    layer("guestos.timeouts", "count", Sim, Count, Lower),
    layer("guestos.audit_violations", "count", Sim, Count, Lower),
    layer("guestos.idle_ms_per_sim_s", "ms/s", Host, Diff, Lower),
    layer("workloads.app_bytes", "count", Sim, Count, Higher),
    layer("workloads.nockpt_ms_per_sim_s", "ms/s", Host, Diff, Lower),
    layer("vmm.freezes", "count", Sim, Count, Lower),
    layer("vmm.downtime_sim_ms_p50", "sim_ms", Sim, Count, Lower),
    layer("vmm.image_mb", "MB", Sim, Count, Lower),
    layer("vmm.encode.host_ms", "ms", Host, Span, Lower),
    layer("vmm.decode.host_ms", "ms", Host, Span, Lower),
    layer("dummynet.forwarded", "count", Sim, Count, Lower),
    layer("dummynet.logged_frames", "count", Sim, Count, Lower),
    layer("dummynet.probe.pkt_ns", "ns", Host, Probe, Lower),
    layer(
        "dummynet.probe.serialize_restore_us",
        "us",
        Host,
        Probe,
        Lower,
    ),
    layer("checkpoint.epochs_committed", "count", Sim, Count, Higher),
    layer("checkpoint.epochs_failed", "count", Sim, Count, Lower),
    layer(
        "checkpoint.notify_to_acks_sim_us_p50",
        "sim_us",
        Sim,
        Count,
        Lower,
    ),
    layer(
        "checkpoint.barrier_hold_sim_us_p50",
        "sim_us",
        Sim,
        Count,
        Lower,
    ),
    layer("checkpoint.capture_wait_sim_pct", "%", Sim, Count, Lower),
    layer("checkpoint.delta_ms_per_sim_s", "ms/s", Host, Diff, Lower),
    layer("ckptstore.logical_mb", "MB", Sim, Count, Lower),
    layer("ckptstore.new_physical_mb", "MB", Sim, Count, Lower),
    layer("ckptstore.dedup_ratio", "ratio", Sim, Count, Higher),
    layer("ckptstore.hash_cache_hit_pct", "%", Sim, Count, Higher),
    layer("ckptstore.put.host_ms", "ms", Host, Span, Lower),
    layer("ckptstore.put.mb_per_s", "MB/s", Host, Span, Higher),
    layer("ckptstore.load.host_ms", "ms", Host, Span, Lower),
    layer("ckptstore.load.mb_per_s", "MB/s", Host, Span, Higher),
    layer("cowstore.writes", "count", Sim, Count, Lower),
    layer("cowstore.reads", "count", Sim, Count, Lower),
    layer("cowstore.seal_merged_blocks", "count", Sim, Count, Lower),
    layer("cowstore.encode.host_ms", "ms", Host, Span, Lower),
    layer("cowstore.decode.host_ms", "ms", Host, Span, Lower),
    layer("cowstore.probe.write_ns", "ns", Host, Probe, Lower),
    layer("cowstore.probe.read_ns", "ns", Host, Probe, Lower),
    layer("trace_overhead_pct", "%", Host, Diff, Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
