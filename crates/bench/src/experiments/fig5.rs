//! FIG5 — A microbenchmark executing a CPU-intensive job in a loop
//! (paper Fig 5), plus the in-text dom0-job interference table.
//!
//! One node; a 236.6 ms CPU burst per iteration; a coordinated checkpoint
//! every 5 seconds. Also reproduces §7.1's dom0 experiment: running `ls`,
//! `sum`, and `xm list` in the privileged domain stretches guest bursts by
//! 5–7 ms, 13–17 ms, and ~130 ms respectively.

use emulab::{ExperimentSpec, Testbed};
use sim::SimDuration;
use crate::{banner, row, write_csv};
use vmm::{Dom0Job, VmHost};
use workloads::CpuLoop;

const BURST_NS: u64 = 236_600_000;

fn run_loop(tb: &mut Testbed, iters: usize, checkpoints: bool) -> Vec<u64> {
    let tid = tb.spawn("fig5", "n", Box::new(CpuLoop::new(BURST_NS, iters)));
    if checkpoints {
        tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    }
    tb.run_for(SimDuration::from_millis((iters as u64 + 10) * 240));
    if checkpoints {
        tb.stop_periodic_checkpoints();
        tb.run_for(SimDuration::from_secs(2));
    }
    let host = tb.host_id("fig5", "n");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    h.kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<CpuLoop>()
        .unwrap()
        .iteration_ns()
}

pub fn run() {
    banner("FIG5", "CPU-intensive loop under 5 s periodic checkpoints");
    let mut tb = Testbed::new(5001, 4);
    tb.swap_in(ExperimentSpec::new("fig5").node("n")).unwrap();
    tb.run_for(SimDuration::from_secs(10));

    let samples = run_loop(&mut tb, 600, true);
    let mut csv = String::from("iteration,time_ms\n");
    for (i, &d) in samples.iter().enumerate() {
        csv.push_str(&format!("{},{:.6}\n", i, d as f64 / 1e6));
    }
    let path = write_csv("fig5_cpuloop.csv", &csv);

    let devs: Vec<f64> = samples
        .iter()
        .map(|&d| (d as f64 - BURST_NS as f64).abs())
        .collect();
    let within_9ms = devs.iter().filter(|&&d| d <= 9e6).count() as f64 / devs.len() as f64;
    let max_dev_ms = devs.iter().cloned().fold(0.0, f64::max) / 1e6;

    println!("  iterations: {}", samples.len());
    row("nominal iteration", "236.6 ms", "236.6 ms (configured)");
    row(
        "fraction within ±9 ms",
        "≥ 90%",
        &format!("{:.1}%", within_9ms * 100.0),
    );
    row(
        "worst checkpoint stretch",
        "≤ 27 ms",
        &format!("{max_dev_ms:.1} ms"),
    );
    println!("  series: {}", path.display());

    // --- Dom0 interference table (§7.1 in-text numbers). ---
    println!();
    banner("FIG5b", "dom0 management jobs stretching guest CPU bursts");
    for (job, label, expect) in [
        (Dom0Job::Ls, "ls /", "5–7 ms"),
        (Dom0Job::Sum, "sum vmlinuz", "13–17 ms"),
        (Dom0Job::XmList, "xm list", "~130 ms"),
    ] {
        let tid = tb.spawn("fig5", "n", Box::new(CpuLoop::new(BURST_NS, 40)));
        tb.run_for(SimDuration::from_secs(2));
        // Fire the job three times across the run.
        for _ in 0..3 {
            let host = tb.host_id("fig5", "n");
            tb.engine
                .with_component::<VmHost, _>(host, |h, ctx| h.run_dom0_job(ctx, job));
            tb.run_for(SimDuration::from_secs(3));
        }
        tb.run_for(SimDuration::from_secs(3));
        let host = tb.host_id("fig5", "n");
        let h = tb.engine.component_ref::<VmHost>(host).unwrap();
        let samples = h
            .kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<CpuLoop>()
            .unwrap()
            .iteration_ns();
        let max_stretch =
            samples.iter().map(|&d| d.saturating_sub(BURST_NS)).max().unwrap_or(0) as f64 / 1e6;
        row(label, expect, &format!("{max_stretch:.1} ms max stretch"));
    }
}
