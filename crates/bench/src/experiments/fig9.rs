//! FIG9 — Effect of background data transfer on disk throughput
//! (paper Fig 9).
//!
//! A large-file copy ("a disk-intensive workload, while measuring
//! throughput to disk at one-second intervals") in three scenarios:
//!
//! - **No swap** activity;
//! - **Swap-in with lazy copy-in**: the previous session's aggregated
//!   delta pages in over the control net in the background. The paper's
//!   rate limiter was less effective here ("more aggressive prefetching"),
//!   so the sync runs near line rate — hence the larger impact: ~19%
//!   longer execution, ~45% throughput drop;
//! - **Swap-out with pre-copy**: the current delta streams out, triggered
//!   60 s into the run, properly rate-limited — ~9% longer execution.

use cowstore::{BlockData, CowMode, DeltaMap, Direction, MirrorTransfer};
use guestos::prog::FileId;
use sim::{SimDuration, SimTime};
use sim::trace::Series;
use crate::{banner, row, single_host, write_csv};
use vmm::{MirrorConfig, VmHost};
use workloads::FileCopy;

const COPY_BYTES: u64 = 2 << 30;

/// Lazy copy-in sync rate: near control-net line rate (the paper's
/// under-throttled prefetch).
const COPYIN_BPS: u64 = 60_000_000;

/// Eager pre-copy rate: deliberately limited.
const COPYOUT_BPS: u64 = 60_000_000;

enum Scenario {
    NoSwap,
    LazyCopyIn,
    EagerCopyOut,
}

/// Returns (1 s throughput bins, total execution s, sync window s).
fn run_scenario(seed: u64, scenario: Scenario) -> (Vec<(f64, f64)>, f64, f64) {
    let (mut e, host) = single_host(seed, CowMode::Branch, false);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    // Lazy copy-in starts the run with the previous session's aggregate
    // still remote and syncing in.
    if matches!(scenario, Scenario::LazyCopyIn) {
        e.with_component::<VmHost, _>(host, |h, ctx| {
            let mut agg = DeltaMap::new();
            // A 300 MB previous-session delta.
            for i in 0..76_800u64 {
                agg.put(1_000_000 + i, BlockData::Opaque(i));
            }
            let blocks = agg.vbas();
            h.store_mut().install_aggregate(agg);
            let t = MirrorTransfer::new(Direction::CopyIn, blocks, 4096, COPYIN_BPS);
            h.attach_mirror(
                ctx,
                t,
                MirrorConfig {
                    latency: SimDuration::from_micros(200),
                    net_bps: COPYIN_BPS,
                    notify: None,
                    idle_priority: false,
                },
            );
        });
    }

    let tid = e.with_component::<VmHost, _>(host, |h, _| {
        // ~10 ms of CPU per 256 KiB chunk: cp + ext3 journaling overhead,
        // putting the baseline near the paper's ~15-18 MB/s with disk
        // headroom to spare.
        h.kernel_mut().spawn(Box::new(
            FileCopy::new(FileId(1), FileId(2), COPY_BYTES).with_chunk_cpu(10_000_000),
        ))
    });

    let mut attached_out = false;
    let mut sync_window = 0.0f64;
    let mut sync_started = None;
    for tick in 0..200 {
        e.run_for(SimDuration::from_secs(5));
        // Track the sync window and detach the pre-copy when the swap-out
        // completes (~70 s of pre-copy, per §7.2's ~60 s swap-outs).
        {
            let h = e.component_ref::<VmHost>(host).unwrap();
            if let Some(left) = h.mirror_remaining() {
                if sync_started.is_none() {
                    sync_started = Some(tick);
                }
                if left == 0 || (matches!(scenario, Scenario::EagerCopyOut)
                    && tick - sync_started.unwrap() >= 14)
                {
                    sync_window = ((tick - sync_started.unwrap()) * 5) as f64;
                    e.with_component::<VmHost, _>(host, |h, _| {
                        let _ = h.detach_mirror();
                    });
                }
            }
        }
        if matches!(scenario, Scenario::EagerCopyOut) && !attached_out && tick >= 11 {
            // Swap-out pre-copy begins 60 s into the run (as in Fig 9).
            attached_out = true;
            e.with_component::<VmHost, _>(host, |h, ctx| {
                let blocks = h.store().current_delta().vbas();
                let t = MirrorTransfer::new(Direction::CopyOut, blocks, 4096, COPYOUT_BPS);
                h.attach_mirror(
                    ctx,
                    t,
                    MirrorConfig {
                        latency: SimDuration::from_micros(200),
                        net_bps: COPYOUT_BPS,
                        notify: None,
                        idle_priority: true,
                    },
                );
            });
        }
        let done = e
            .component_ref::<VmHost>(host)
            .unwrap()
            .kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<FileCopy>()
            .unwrap()
            .done();
        if done {
            break;
        }
    }

    let h = e.component_ref::<VmHost>(host).unwrap();
    let p = h
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<FileCopy>()
        .unwrap();
    assert!(p.done(), "copy did not finish in the budget");
    // 1 s-binned write throughput from progress samples.
    let mut series = Series::new();
    let mut prev = 0u64;
    for &(t, bytes) in &p.progress {
        series.push(SimTime::from_nanos(t), (bytes - prev) as f64);
        prev = bytes;
    }
    let start = SimTime::from_nanos(p.t_start.unwrap());
    let end = SimTime::from_nanos(p.t_end.unwrap());
    let bins: Vec<(f64, f64)> = series
        .binned_rate(start, end, SimDuration::from_secs(1))
        .into_iter()
        .map(|(t, r)| (t - start.as_secs_f64(), r / 1e6))
        .collect();
    let elapsed = (end - start).as_secs_f64();
    if sync_window == 0.0 && sync_started.is_some() {
        sync_window = elapsed; // Sync outlived the run.
    }
    (bins, elapsed, sync_window)
}

pub fn run() {
    banner("FIG9", "background data transfer vs guest disk throughput");
    let mut csv = String::from("scenario,time_s,write_throughput_MBps\n");
    let mut results = Vec::new();
    for (name, scenario) in [
        ("no-swap", Scenario::NoSwap),
        ("lazy-copy-in", Scenario::LazyCopyIn),
        ("eager-copy-out", Scenario::EagerCopyOut),
    ] {
        eprintln!("[fig9] running {name}...");
        let is_lazy = matches!(scenario, Scenario::LazyCopyIn);
        let (bins, elapsed, sync_window) = run_scenario(9001, scenario);
        // The paper's "45% drop" is the depressed level while the sync is
        // active; lazy copy-in starts syncing at t = 0.
        let window_end = if is_lazy && sync_window > 0.0 {
            sync_window
        } else {
            elapsed
        };
        let in_window: Vec<f64> = bins
            .iter()
            .filter(|&&(t, _)| t <= window_end)
            .map(|&(_, r)| r)
            .collect();
        let mean: f64 = in_window.iter().sum::<f64>() / in_window.len() as f64;
        for &(t, r) in &bins {
            csv.push_str(&format!("{name},{t:.0},{r:.3}\n"));
        }
        results.push((name, elapsed, mean));
    }
    let path = write_csv("fig9_transfer.csv", &csv);

    let (_, base_t, base_r) = results[0];
    println!();
    for &(name, t, r) in &results {
        println!(
            "  {:<16} execution {:>6.1} s ({:+5.1}%), mean write throughput {:>5.1} MB/s ({:+5.1}%)",
            name,
            t,
            (t / base_t - 1.0) * 100.0,
            r,
            (r / base_r - 1.0) * 100.0
        );
    }
    println!();
    let lazy = &results[1];
    let eager = &results[2];
    row(
        "lazy copy-in execution increase",
        "~19%",
        &format!("{:.0}%", (lazy.1 / base_t - 1.0) * 100.0),
    );
    row(
        "lazy copy-in throughput drop",
        "~45%",
        &format!("{:.0}%", (1.0 - lazy.2 / base_r) * 100.0),
    );
    row(
        "eager copy-out execution increase",
        "~9%",
        &format!("{:.0}%", (eager.1 / base_t - 1.0) * 100.0),
    );
    println!("  series: {}", path.display());
}
