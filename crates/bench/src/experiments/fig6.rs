//! FIG6 — iperf running on a 1 Gbps network under periodic checkpoints
//! (paper Fig 6).
//!
//! Two nodes over a shaped gigabit link (delay node interposed); a TCP
//! stream checkpointed every 5 seconds for 25 seconds. Regenerates the
//! 20 ms-binned throughput series, reports the inter-packet arrival gaps
//! spanning each checkpoint (the paper's 5801/816/399/330 µs sequence,
//! shrinking as NTP converges), and verifies the transparency claim: no
//! retransmissions, duplicate ACKs, or window changes.

use emulab::{ExperimentSpec, Testbed};
use sim::trace::Series;
use sim::{SimDuration, SimTime};
use crate::{banner, row, write_csv};
use vmm::VmHost;
use workloads::{IperfReceiver, IperfSender};

pub fn run() {
    banner("FIG6", "iperf on 1 Gbps under 5 s periodic checkpoints");
    let mut tb = Testbed::new(6001, 8);
    let spec = ExperimentSpec::new("fig6")
        .node("a")
        .node("b")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
    tb.swap_in(spec).unwrap();
    // Minimal settle: the paper's decreasing first-checkpoint gaps come
    // from NTP still converging when the run starts, so start early.
    tb.run_for(SimDuration::from_secs(2));

    let b_addr = tb.node_addr("fig6", "b");
    tb.with_host("fig6", "b", |h| h.kernel_mut().trace.enable());
    tb.spawn("fig6", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("fig6", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(1));

    let t_start = tb.now();
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(25));
    tb.stop_periodic_checkpoints();

    // Throughput series from the receiver's packet trace (guest time).
    let host = tb.host_id("fig6", "b");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    let records = h.kernel().trace.records().to_vec();
    let mut series = Series::new();
    let mut t0 = None;
    for r in &records {
        if r.len > 0 && matches!(r.dir, guestos::PacketDir::Rx) {
            let t = SimTime::from_nanos(r.t_guest_ns);
            if t0.is_none() {
                t0 = Some(t);
            }
            series.push(t, r.len as f64);
        }
    }
    let t0 = t0.expect("traffic flowed");
    let t_end = SimTime::from_nanos(records.last().unwrap().t_guest_ns);
    let bins = series.binned_rate(t0, t_end, SimDuration::from_millis(20));
    let mut csv = String::from("time_s,throughput_MBps\n");
    for &(t, rate) in &bins {
        csv.push_str(&format!("{:.3},{:.3}\n", t, rate / 1e6));
    }
    let path = write_csv("fig6_iperf.csv", &csv);

    // Gap analysis.
    let gaps = h.kernel().trace.rx_data_gaps_ns();
    let mean_gap_us =
        gaps.iter().map(|&g| g as f64).sum::<f64>() / gaps.len() as f64 / 1000.0;
    let mut big: Vec<u64> = gaps.iter().copied().filter(|&g| g > 150_000).collect();
    big.sort_unstable_by(|a, b| b.cmp(a));
    let ckpt_gaps: Vec<String> = big.iter().take(5).map(|g| format!("{}", g / 1000)).collect();

    // Per-checkpoint suspend skew between the two nodes: bounded by the
    // clock-sync error, shrinking as NTP converges (the mechanism behind
    // the paper's decreasing checkpoint-gap sequence).
    let fr_a = {
        let host_a = tb.host_id("fig6", "a");
        tb.engine
            .component_ref::<VmHost>(host_a)
            .unwrap()
            .stats
            .freeze_history
            .clone()
    };
    let fr_b = h.stats.freeze_history.clone();
    let skews_us: Vec<String> = fr_a
        .iter()
        .zip(fr_b.iter())
        .map(|(&ta, &tb_)| {
            let d = ta.as_nanos().abs_diff(tb_.as_nanos());
            format!("{}", d / 1000)
        })
        .collect();

    let totals_a = tb.kernel("fig6", "a", |k| k.net_totals());
    let totals_b = tb.kernel("fig6", "b", |k| k.net_totals());
    let avg_mbps = totals_b.bytes_delivered as f64
        / 1e6
        / (tb.now() - t_start).as_secs_f64();

    println!("  checkpoints: 5 over 25 s");
    row("mean throughput", "~55 MB/s", &format!("{avg_mbps:.1} MB/s"));
    row("mean inter-packet gap", "18 µs", &format!("{mean_gap_us:.1} µs"));
    row(
        "checkpoint gaps (µs)",
        "5801/816/399/330",
        &ckpt_gaps.join("/"),
    );
    row(
        "suspend skew per checkpoint (µs)",
        "≤ clock-sync error",
        &skews_us.join("/"),
    );
    row("retransmissions", "0", &totals_a.retransmissions.to_string());
    row("duplicate ACKs", "0", &totals_a.dup_acks.to_string());
    row(
        "window shrinks (receive-buffer pressure)",
        "0",
        &(totals_a.window_shrinks + totals_b.window_shrinks).to_string(),
    );
    println!("  series: {}", path.display());
    assert_eq!(totals_a.retransmissions, 0, "transparency violated");
    assert_eq!(totals_a.timeouts, 0, "transparency violated");
}
