//! OBSREPORT — per-epoch critical-path attribution over the causal trace
//! (ours; the observability layer's committed artifact).
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
//! byte-identical.
//!
//! Artifacts:
//! - `results/tab_critpath.csv` — one row per analyzed epoch round,
//!   committed and CI-diffed;
//! - `BENCH_obs.json` (repo root) — labeled aggregate entries
//!   (segment-share percentages, held-round counts, CSV fingerprint)
//!   against the `tcd-bench-obs-v1` schema.
//!
//! Modes:
//! - default: run, write CSV, append one labeled JSON entry;
//! - `--smoke`: run + assertions + CSV, no JSON write (CI);
//! - `--check`: validate the committed JSON against the schema and exit;
//! - `--label <name>`: label for the appended entry (default "current").

use std::fmt::Write as _;
use std::process::ExitCode;

use sim::stats::fnv1a;
use sim::telemetry::critpath::{self, EpochPath};

use crate::benchfile::{bench_flags, need_hex16, need_num, need_nums, report, BenchFile};
use crate::cli::Args;
use crate::json::{num, Json};
use crate::lab::checkpointed_swap_cycle;
use crate::{banner, write_csv};

/// The committed artifact at the repo root (anchored to the crate, not the CWD).
pub const FILE: BenchFile<'static> = BenchFile {
    path: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json"),
    schema: "tcd-bench-obs-v1",
};

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

/// Required numeric fields per entry — the schema `--check` enforces.
const COUNT_FIELDS: [&str; 4] = ["seed", "rounds", "committed_rounds", "held_rounds"];
const SHARE_FIELDS: [&str; 4] = [
    "notify_fanout_pct",
    "capture_wait_pct",
    "barrier_hold_pct",
    "resume_release_pct",
];

/// The entry rule: the field tables, and the four segment shares must
/// sum to ~100% of the measured epoch wall time.
pub fn entry_rule(entry: &Json) -> Result<(), String> {
    need_nums(entry, &COUNT_FIELDS)?;
    let mut shares = 0.0;
    for f in SHARE_FIELDS {
        shares += need_num(entry, f)?;
    }
    if !(99.0..=101.0).contains(&shares) {
        return Err(format!("segment shares must sum to ~100%, got {shares:.2}"));
    }
    need_hex16(entry, "csv_fnv64")
}

pub fn run(args: &mut Args) -> ExitCode {
    let (smoke, check, label) = match bench_flags(args) {
        Ok(flags) => flags,
        Err(usage) => return usage,
    };
    if check {
        return report(FILE.check(entry_rule).map(drop));
    }

    banner("OBSREPORT", "per-epoch critical-path attribution over the causal trace");
    eprintln!("[obsreport] run 1...");
    let paths = run_scenario();
    eprintln!("[obsreport] run 2 (same seed)...");
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
        (s as f64 / wall as f64 * 10_000.0).round() / 100.0
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

    if smoke {
        println!("\n  smoke mode: paths exercised, JSON not written");
        return ExitCode::SUCCESS;
    }

    let entry = vec![
        ("seed".into(), num(SEED as f64)),
        ("rounds".into(), num(paths.len() as f64)),
        ("committed_rounds".into(), num(committed as f64)),
        ("held_rounds".into(), num(held as f64)),
        ("notify_fanout_pct".into(), num(notify_pct)),
        ("capture_wait_pct".into(), num(capture_pct)),
        ("barrier_hold_pct".into(), num(hold_pct)),
        ("resume_release_pct".into(), num(resume_pct)),
        ("csv_fnv64".into(), Json::Str(format!("{:016x}", fnv1a(csv.as_bytes())))),
    ];
    report(FILE.append(&label, entry, entry_rule))
}
