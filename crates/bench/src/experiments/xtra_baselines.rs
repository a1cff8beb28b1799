//! XTRA-BASE — checkpoint-strategy comparison (ours; §3/§8 implications).
//!
//! The paper argues transparency requires (a) clock-scheduled coordination
//! and (b) concealed downtime. This experiment runs the same iperf
//! workload under the paper's mechanism and the two conventional designs
//! it argues against, and reports who disturbs the system under test:
//!
//! - **transparent**: scheduled + concealed (the paper);
//! - **event-driven**: "checkpoint now" notifications — suspension skew is
//!   delivery + per-node processing jitter (§4.3);
//! - **non-concealing**: conventional stop-and-copy — downtime leaks into
//!   guest time.
//!
//! Runs on the full testbed stack ([`Testbed::with_strategy`]); all
//! latency columns are p50/p99 from [`Testbed::telemetry`] — the
//! coordinator's notify→all-acks and barrier-hold histograms and the
//! hosts' freeze/thaw downtime histogram.

use checkpoint::Strategy;
use emulab::{ExperimentSpec, Testbed};
use sim::telemetry::names;
use sim::{HistogramSummary, SimDuration};
use crate::{banner, write_csv};
use workloads::{IperfReceiver, IperfSender};

struct Row {
    retransmissions: u64,
    timeouts: u64,
    dup_acks: u64,
    window_shrinks: u64,
    max_gap_us: u64,
    max_suspend_skew_us: u64,
    throughput_mbps: f64,
    acks: HistogramSummary,
    hold: HistogramSummary,
    downtime: HistogramSummary,
}

fn run_strategy(strategy: Strategy) -> Row {
    let mut tb = Testbed::with_strategy(12_001, 8, strategy);
    tb.swap_in(
        ExperimentSpec::new("iperf").node("a").node("b").link(
            "a",
            "b",
            1_000_000_000,
            SimDuration::from_micros(100),
            0.0,
        ),
    )
    .expect("swap-in");
    // Let NTP discipline the guests' clocks before measuring.
    tb.run_for(SimDuration::from_secs(20));
    let b_addr = tb.node_addr("iperf", "b");
    tb.with_host("iperf", "b", |h| {
        h.kernel_mut().trace.enable();
    });
    tb.spawn("iperf", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("iperf", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(25));

    let ta = tb.kernel("iperf", "a", |k| k.net_totals());
    let tb_totals = tb.kernel("iperf", "b", |k| k.net_totals());
    let gaps = tb.kernel("iperf", "b", |k| k.trace.rx_data_gaps_ns());
    let skew = {
        let fa = tb.with_host("iperf", "a", |h| h.stats.freeze_history.clone());
        let fb = tb.with_host("iperf", "b", |h| h.stats.freeze_history.clone());
        fa.iter()
            .zip(fb.iter())
            .map(|(&x, &y)| x.as_nanos().abs_diff(y.as_nanos()))
            .max()
            .unwrap_or(0)
    };
    let t = tb.telemetry();
    let summary = |name: &str| t.histogram_summary(name).unwrap_or(HistogramSummary::EMPTY);
    Row {
        retransmissions: ta.retransmissions + tb_totals.retransmissions,
        timeouts: ta.timeouts + tb_totals.timeouts,
        dup_acks: ta.dup_acks,
        window_shrinks: ta.window_shrinks + tb_totals.window_shrinks,
        max_gap_us: gaps.iter().copied().max().unwrap_or(0) / 1000,
        max_suspend_skew_us: skew / 1000,
        throughput_mbps: tb_totals.bytes_delivered as f64 / 1e6 / 27.0,
        acks: summary(names::COORD_NOTIFY_TO_ACKS_NS),
        hold: summary(names::COORD_BARRIER_HOLD_NS),
        downtime: summary(names::VMHOST_DOWNTIME_NS),
    }
}

fn us(ns: f64) -> u64 {
    (ns / 1e3) as u64
}

pub fn run() {
    banner(
        "XTRA-BASE",
        "transparent vs event-driven vs non-concealing checkpoints (iperf, 5 s period)",
    );
    let mut csv = String::from(
        "strategy,retransmissions,timeouts,dup_acks,window_shrinks,max_gap_us,suspend_skew_us,throughput_MBps,\
         p50_notify_to_acks_us,p99_notify_to_acks_us,p50_barrier_hold_us,p99_barrier_hold_us,\
         p50_downtime_us,p99_downtime_us\n",
    );
    println!(
        "  {:<16} {:>5} {:>8} {:>8} {:>7} {:>11} {:>8} {:>6} {:>15} {:>15} {:>15}",
        "strategy",
        "retx",
        "timeouts",
        "dup-acks",
        "shrinks",
        "max gap µs",
        "skew µs",
        "MB/s",
        "acks p50/p99 µs",
        "hold p50/p99 µs",
        "down p50/p99 µs"
    );
    for strategy in [
        Strategy::Transparent,
        Strategy::EventDriven,
        Strategy::NonConcealing,
    ] {
        eprintln!("[xtra] running {}...", strategy.label());
        let o = run_strategy(strategy);
        println!(
            "  {:<16} {:>5} {:>8} {:>8} {:>7} {:>11} {:>8} {:>6.1} {:>15} {:>15} {:>15}",
            strategy.label(),
            o.retransmissions,
            o.timeouts,
            o.dup_acks,
            o.window_shrinks,
            o.max_gap_us,
            o.max_suspend_skew_us,
            o.throughput_mbps,
            format!("{}/{}", us(o.acks.p50), us(o.acks.p99)),
            format!("{}/{}", us(o.hold.p50), us(o.hold.p99)),
            format!("{}/{}", us(o.downtime.p50), us(o.downtime.p99)),
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.1},{},{},{},{},{},{}\n",
            strategy.label(),
            o.retransmissions,
            o.timeouts,
            o.dup_acks,
            o.window_shrinks,
            o.max_gap_us,
            o.max_suspend_skew_us,
            o.throughput_mbps,
            us(o.acks.p50),
            us(o.acks.p99),
            us(o.hold.p50),
            us(o.hold.p99),
            us(o.downtime.p50),
            us(o.downtime.p99),
        ));
        if strategy == Strategy::Transparent {
            assert_eq!(o.retransmissions + o.timeouts + o.dup_acks, 0);
        }
        assert!(o.downtime.count > 0, "checkpoints recorded downtime samples");
    }
    let path = write_csv("xtra_baselines.csv", &csv);
    println!("\n  transparent must show zeros; baselines show the §3 anomalies");
    println!("  table: {}", path.display());
}
