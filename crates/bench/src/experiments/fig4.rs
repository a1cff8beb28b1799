//! FIG4 — Periodic checkpointing of a microbenchmark executing a 10 ms
//! sleep in a loop (paper Fig 4).
//!
//! One node; `usleep(10 ms)` loop timed with `gettimeofday` (≈20 ms per
//! iteration at HZ=100); a coordinated checkpoint every 5 seconds.
//! Regenerates the iteration-time series and checks the paper's numbers:
//! 97% of iterations within 28 µs of nominal; checkpoint iterations within
//! ~80 µs.

use emulab::{ExperimentSpec, Testbed};
use sim::SimDuration;
use crate::{banner, row, summarize_ms, write_csv};
use vmm::VmHost;
use workloads::UsleepLoop;

pub fn run() {
    banner("FIG4", "usleep(10ms) loop under 5 s periodic checkpoints");
    let mut tb = Testbed::new(4001, 4);
    tb.swap_in(ExperimentSpec::new("fig4").node("n")).unwrap();
    // Let NTP's boot step and early discipline settle before measuring.
    tb.run_for(SimDuration::from_secs(10));

    let iters = 6000;
    let tid = tb.spawn("fig4", "n", Box::new(UsleepLoop::new(10_000_000, iters)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    // 6000 iterations × 20 ms = 120 s.
    tb.run_for(SimDuration::from_secs(125));
    tb.stop_periodic_checkpoints();

    let host = tb.host_id("fig4", "n");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    let samples: Vec<(u64, u64)> = h
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<UsleepLoop>()
        .unwrap()
        .samples
        .clone();
    let checkpoints = h.stats.checkpoints;

    let mut csv = String::from("iteration,time_ms\n");
    for (i, &(_, d)) in samples.iter().enumerate() {
        csv.push_str(&format!("{},{:.6}\n", i, d as f64 / 1e6));
    }
    let path = write_csv("fig4_usleep.csv", &csv);

    let iter_ns: Vec<u64> = samples.iter().map(|&(_, d)| d).collect();
    let s = summarize_ms(&iter_ns, 20_000_000);
    // Checkpoint spikes stand clear of the exponential jitter tail: count
    // deviations beyond 50 µs (P97 of the baseline is 28 µs).
    let spikes: Vec<u64> = iter_ns
        .iter()
        .copied()
        .filter(|&d| (d as i64 - 20_000_000).unsigned_abs() > 50_000)
        .collect();

    println!("  iterations: {} ({} checkpoints)", iter_ns.len(), checkpoints);
    row("mean iteration", "20 ms", &format!("{:.3} ms", s.mean));
    row(
        "97th-pct timer error (intra-checkpoint)",
        "≤ 28 µs",
        &format!("{:.1} µs", s.p97_dev * 1000.0),
    );
    row(
        "checkpoint-iteration error (spike height)",
        "~80 µs",
        &format!("{:.1} µs max", s.max_dev * 1000.0),
    );
    row(
        "spike count vs checkpoints",
        "1 per checkpoint",
        &format!("{} spikes / {} checkpoints", spikes.len(), checkpoints),
    );
    println!("  series: {}", path.display());
}
