//! TAB-CRITPATH — per-epoch critical-path attribution over the causal
//! trace (ours; the observability layer's committed artifact).
//!
//! TAB-TIMELINE pins the raw trace ring byte-for-byte; this report walks
//! the same ring through [`sim::telemetry::critpath`] and answers the
//! operator's question: *where did each epoch's wall time go?* Every
//! round's notify→close span is partitioned into four contiguous
//! segments (notify fan-out, capture wait, barrier hold, resume release)
//! that sum to the wall time exactly, plus informational attributions
//! (slowest capturing host, store quorum-commit lag for held rounds).
//!
//! The scenario is a same-seed two-node experiment: a periodic-checkpoint
//! window (non-held rounds: barrier_hold == 0) followed by one stateful
//! swap cycle (a held suspend round whose barrier-hold segment covers the
//! swap-out state transfer, with a `flow.store_commit` step from the
//! file-server put). The run executes twice; the CSV must be
//! byte-identical. `results/tab_critpath.csv` has one row per analyzed
//! epoch round; the printed segment shares are derived from its ns
//! columns.

use std::fmt::Write as _;

use sim::telemetry::critpath::{self, EpochPath};

use crate::lab::checkpointed_swap_cycle;
use crate::{banner, write_csv};

const SEED: u64 = 15_001;

fn run_scenario() -> Vec<EpochPath> {
    let tb = checkpointed_swap_cycle(SEED, "obs");
    critpath::analyze(&tb.telemetry().trace_events())
}

fn paths_csv(paths: &[EpochPath]) -> String {
    let mut csv = String::from(
        "group,epoch,begin_ns,end_ns,wall_ns,notify_fanout_ns,capture_wait_ns,\
         barrier_hold_ns,resume_release_ns,committed,participants,slowest_host,\
         slowest_capture_ns,store_commit_ns\n",
    );
    for p in paths {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.group,
            p.epoch,
            p.begin_ns,
            p.end_ns,
            p.wall_ns(),
            p.notify_fanout_ns,
            p.capture_wait_ns,
            p.barrier_hold_ns,
            p.resume_release_ns,
            p.committed,
            p.participants,
            p.slowest_host,
            p.slowest_capture_ns,
            p.store_commit_ns
        );
    }
    csv
}

pub fn run() {
    banner("TAB-CRITPATH", "per-epoch critical-path attribution over the causal trace");
    eprintln!("[tab_critpath] run 1...");
    let paths = run_scenario();
    eprintln!("[tab_critpath] run 2 (same seed)...");
    let paths2 = run_scenario();
    let csv = paths_csv(&paths);
    assert_eq!(
        csv,
        paths_csv(&paths2),
        "same-seed critical-path CSVs must be byte-identical"
    );

    assert!(!paths.is_empty(), "scenario must produce analyzed rounds");
    let committed = paths.iter().filter(|p| p.committed).count();
    let held = paths.iter().filter(|p| p.barrier_hold_ns > 0).count();
    let wall: u64 = paths.iter().map(|p| p.wall_ns()).sum();
    let seg = |f: fn(&EpochPath) -> u64| -> f64 {
        let s: u64 = paths.iter().map(f).sum();
        s as f64 / wall as f64 * 100.0
    };
    let notify_pct = seg(|p| p.notify_fanout_ns);
    let capture_pct = seg(|p| p.capture_wait_ns);
    let hold_pct = seg(|p| p.barrier_hold_ns);
    let resume_pct = seg(|p| p.resume_release_ns);

    println!(
        "  {:<5} {:>5} {:>12} {:>14} {:>14} {:>14} {:>14}  {:<9}",
        "group", "epoch", "wall_ms", "notify_us", "capture_ms", "hold_ms", "resume_us", "outcome"
    );
    for p in &paths {
        println!(
            "  {:<5} {:>5} {:>12.3} {:>14.1} {:>14.3} {:>14.3} {:>14.1}  {:<9}",
            p.group,
            p.epoch,
            p.wall_ns() as f64 / 1e6,
            p.notify_fanout_ns as f64 / 1e3,
            p.capture_wait_ns as f64 / 1e6,
            p.barrier_hold_ns as f64 / 1e6,
            p.resume_release_ns as f64 / 1e3,
            if p.committed { "committed" } else { "aborted" }
        );
    }
    println!(
        "\n  {} rounds ({committed} committed, {held} held); aggregate shares: \
         notify {notify_pct:.2}%, capture {capture_pct:.2}%, hold {hold_pct:.2}%, \
         resume {resume_pct:.2}%",
        paths.len()
    );

    for p in &paths {
        assert_eq!(
            p.segments_sum_ns(),
            p.wall_ns(),
            "group {} epoch {}: segments must partition the wall time",
            p.group,
            p.epoch
        );
    }
    assert!(committed > 0, "scenario must commit rounds");
    assert!(held > 0, "the swap cycle must contribute a held round");
    assert!(
        paths.iter().any(|p| p.store_commit_ns > 0),
        "the held round must carry a store-commit attribution"
    );

    let csv_path = write_csv("tab_critpath.csv", &csv);
    println!("  critical paths: {}", csv_path.display());
}
