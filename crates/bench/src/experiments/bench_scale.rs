//! BENCH-SCALE — the shipped epoch protocol on the sharded engine at
//! thousands of nodes.
//!
//! Builds star topologies through the full stack (`emulab::ExperimentSpec`
//! → `ScalePlan` → `ScalePlan::build_lab`: the real `Coordinator`, and a
//! `Participant` on every node) and sweeps node count × shard count. Every
//! run must commit every round, keep the shadow model clean and conserve
//! captured bytes (`ScaleLab::check_invariants`). Per row:
//!
//! - `events_per_sec` — wall-clock dispatch rate of the (sequential)
//!   run on this machine;
//! - `agg_events_per_sec` — events over the *critical path*: per window,
//!   the busiest shard's dispatch time; summed across windows. This is
//!   the standard conservative-PDES potential-parallelism metric and is
//!   what the ≥2× acceptance gate reads, because wall-clock speedup on a
//!   single-core container measures scheduling noise, not the engine.
//!   `host_cores` is recorded so readers can judge the wall numbers.
//! - `mb_captured` — dirty state captured across all epochs;
//! - `fingerprint` / `trace_fingerprint` — FNV-1a of the merged
//!   telemetry CSV and of the merged Perfetto export, which must be
//!   identical across every shard count of the same workload (the runs
//!   are the same experiment, so this doubles as a determinism gate).
//!
//! Results append to `BENCH_scale.json` at the repo root.
//!
//! Modes:
//! - default: full sweep, appends one labeled entry to the JSON;
//! - `--smoke`: the sweep's 1,000-node star at 1 and 4 shards
//!   (sequential + threaded), every round committed and the shadow clean,
//!   fingerprints asserted equal to each other and to the latest
//!   committed entry's, no JSON write (CI);
//! - `--check`: validate the committed JSON — schema plus the scale
//!   gate: latest entry must hold a 1,000-node row pair with ≥2×
//!   aggregate speedup at 4 shards and matching fingerprints;
//! - `--label <name>`: label for the appended entry.

use std::process::ExitCode;
use std::time::Instant;

use emulab::{ExperimentSpec, ScalePlan};
use sim::SimDuration;

use crate::banner;
use crate::benchfile::{bench_flags, need_hex16, need_num, need_nums, need_rows, report, BenchFile};
use crate::cli::Args;
use crate::json::{num, Json};

/// The committed artifact at the repo root (anchored to the crate, not the CWD).
pub const FILE: BenchFile<'static> = BenchFile {
    path: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json"),
    schema: "tcd-bench-scale-v1",
};

struct Row {
    nodes: u32,
    groups: u32,
    shards: u32,
    epochs: u64,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    busy_ms: f64,
    critpath_ms: f64,
    agg_events_per_sec: f64,
    mb_captured: f64,
    speedup_vs_1shard: f64,
    /// Of the merged telemetry CSV and of the merged Perfetto export.
    fingerprints: (u64, u64),
}

/// Rounds per run, and their period.
const EPOCHS: u32 = 4;
const EPOCH_PERIOD: SimDuration = SimDuration::from_millis(200);

/// Star topology of `leaves` nodes via the emulab planner: groups of
/// about 62 nodes, each behind its own edge LAN.
fn star_plan(leaves: u32) -> ScalePlan {
    let spec = ExperimentSpec::star("bench", leaves, 100_000_000, SimDuration::from_millis(5));
    ScalePlan::from_spec(&spec, (leaves / 62).max(4)).expect("star plans")
}

/// One measured run. `parallel` only changes the execution mode, never
/// the result — callers assert that via the fingerprints.
fn run_once(plan: &ScalePlan, seed: u64, shards: u32, parallel: bool) -> Row {
    let mut lab = plan.build_lab(seed, shards, EPOCHS, EPOCH_PERIOD);
    lab.engine.set_parallel(parallel);
    let t0 = Instant::now();
    lab.run();
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    lab.check_invariants().unwrap_or_else(|e| panic!("invariants: {e}"));
    let o = lab.outcome();
    let busy_ns: u64 = lab.engine.busy_ns().iter().sum();
    let crit_ns = lab.engine.critical_path_ns().max(1);
    Row {
        nodes: o.nodes,
        groups: plan.groups.len() as u32,
        shards,
        epochs: o.epochs_committed,
        events: o.events,
        wall_ms: wall_ns as f64 / 1e6,
        events_per_sec: o.events as f64 / (wall_ns as f64 / 1e9),
        busy_ms: busy_ns as f64 / 1e6,
        critpath_ms: crit_ns as f64 / 1e6,
        agg_events_per_sec: o.events as f64 / (crit_ns as f64 / 1e9),
        mb_captured: o.bytes_captured as f64 / 1e6,
        speedup_vs_1shard: 1.0, // filled by the sweep
        fingerprints: (o.fingerprint_metrics, o.fingerprint_trace),
    }
}

fn print_row(r: &Row) {
    println!(
        "        {:>6} nodes  S={}  {:>9.0} ev/s wall  {:>10.0} ev/s agg  {:>6.2}x  {:>8.1} MB  fp {:016x}/{:016x}",
        r.nodes, r.shards, r.events_per_sec, r.agg_events_per_sec, r.speedup_vs_1shard,
        r.mb_captured, r.fingerprints.0, r.fingerprints.1
    );
}

fn row_json(r: &Row) -> Json {
    let r2 = |x: f64| (x * 100.0).round() / 100.0;
    Json::Obj(vec![
        ("nodes".into(), num(r.nodes as f64)),
        ("groups".into(), num(r.groups as f64)),
        ("shards".into(), num(r.shards as f64)),
        ("epochs".into(), num(r.epochs as f64)),
        ("events".into(), num(r.events as f64)),
        ("wall_ms".into(), num(r2(r.wall_ms))),
        ("events_per_sec".into(), num(r.events_per_sec.round())),
        ("busy_ms".into(), num(r2(r.busy_ms))),
        ("critpath_ms".into(), num(r2(r.critpath_ms))),
        ("agg_events_per_sec".into(), num(r.agg_events_per_sec.round())),
        ("mb_captured".into(), num(r2(r.mb_captured))),
        ("speedup_vs_1shard".into(), num(r2(r.speedup_vs_1shard))),
        ("fingerprint".into(), Json::Str(format!("{:016x}", r.fingerprints.0))),
        ("trace_fingerprint".into(), Json::Str(format!("{:016x}", r.fingerprints.1))),
    ])
}

const ROW_NUM_FIELDS: [&str; 12] = [
    "nodes",
    "groups",
    "shards",
    "epochs",
    "events",
    "wall_ms",
    "events_per_sec",
    "busy_ms",
    "critpath_ms",
    "agg_events_per_sec",
    "mb_captured",
    "speedup_vs_1shard",
];

/// The entry rule: host metadata and the row table.
pub fn entry_rule(entry: &Json) -> Result<(), String> {
    need_num(entry, "host_cores")?;
    for (j, row) in need_rows(entry, "rows")?.iter().enumerate() {
        need_nums(row, &ROW_NUM_FIELDS)
            .and_then(|()| need_hex16(row, "fingerprint"))
            .map_err(|e| format!("row {j}: {e}"))?;
    }
    Ok(())
}

/// The acceptance gate on the *latest* entry (already past
/// [`entry_rule`]): a 1,000-node pair at 1 and 4 shards, fingerprints
/// equal, aggregate speedup ≥ 2×.
pub fn scale_gate(latest: &Json) -> Result<(), String> {
    let one = row_1000(latest, 1.0)?;
    let four = row_1000(latest, 4.0)?;
    let (fp_one, fp_four) = (one.get("fingerprint"), four.get("fingerprint"));
    if fp_one != fp_four {
        return Err(format!(
            "1000-node fingerprints differ across shard counts: {fp_one:?} vs {fp_four:?}"
        ));
    }
    let speedup = need_num(four, "speedup_vs_1shard")?;
    if speedup < 2.0 {
        return Err(format!(
            "1000-node 4-shard aggregate speedup {speedup:.2}x is below the 2x gate"
        ));
    }
    Ok(())
}

/// The 1,000-node row of `entry` at `shards` shards.
fn row_1000(entry: &Json, shards: f64) -> Result<&Json, String> {
    need_rows(entry, "rows")?
        .iter()
        .find(|r| {
            r.get("nodes").and_then(Json::as_num) == Some(1000.0)
                && r.get("shards").and_then(Json::as_num) == Some(shards)
        })
        .ok_or(format!("latest entry has no 1000-node {shards}-shard row"))
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn run(args: &mut Args) -> ExitCode {
    let (smoke, check, label) = match bench_flags(args) {
        Ok(flags) => flags,
        Err(usage) => return usage,
    };
    if check {
        return report(FILE.check(entry_rule).and_then(|entries| {
            let latest = entries.last().expect("check rejects an empty file");
            scale_gate(latest).map_err(|e| format!("BENCH_scale.json scale gate violation: {e}"))?;
            println!("BENCH_scale.json: 1000-node >=2x aggregate gate ok");
            Ok(())
        }));
    }

    banner("BENCH-SCALE", "the shipped epoch protocol on the sharded engine at thousands of nodes");
    println!("  host cores: {}", host_cores());

    if smoke {
        // CI smoke: the sweep's 1,000-node star end to end, 1 vs 4
        // shards, sequential and threaded — every round committed, the
        // shadow clean (`run_once` checks both), fingerprints equal to
        // each other and to the committed ones: a change that moves every
        // layout alike is still a change of the sharded bytes.
        let committed = FILE.check(entry_rule).and_then(|entries| {
            let latest = entries.last().expect("check rejects an empty file");
            let row = row_1000(latest, 1.0)?;
            Ok((row.get("fingerprint").cloned(), row.get("trace_fingerprint").cloned()))
        });
        let committed = match committed {
            Ok(fingerprints) => fingerprints,
            Err(e) => return report(Err(e)),
        };
        let plan = star_plan(1000);
        println!("  [smoke] 1000-node star, {EPOCHS} epochs...");
        let base = run_once(&plan, 42, 1, false);
        print_row(&base);
        let mut four = run_once(&plan, 42, 4, false);
        four.speedup_vs_1shard = four.agg_events_per_sec / base.agg_events_per_sec;
        print_row(&four);
        let threaded = run_once(&plan, 42, 4, true);
        for (r, what) in [(&four, "4-shard"), (&threaded, "threaded 4-shard")] {
            assert_eq!(r.fingerprints, base.fingerprints, "{what} run diverged from 1-shard");
        }
        let hex = |fp: u64| Some(Json::Str(format!("{fp:016x}")));
        assert_eq!(
            (hex(base.fingerprints.0), hex(base.fingerprints.1)),
            committed,
            "run diverged from the latest BENCH_scale.json entry"
        );
        assert_eq!(base.epochs, u64::from(EPOCHS), "every round must commit");
        assert!(
            four.speedup_vs_1shard >= 2.0,
            "aggregate speedup {:.2}x below the 2x gate",
            four.speedup_vs_1shard
        );
        println!(
            "\n  smoke ok: every round committed, shadow clean, fingerprints identical \
             and as committed, {:.2}x aggregate at 4 shards",
            four.speedup_vs_1shard
        );
        return ExitCode::SUCCESS;
    }

    // Full sweep: node count x shard count.
    let sizes: &[u32] = &[1000, 4000, 10000];
    let shard_counts: &[u32] = &[1, 2, 4, 8];
    let mut rows: Vec<Row> = Vec::new();
    for (i, &leaves) in sizes.iter().enumerate() {
        let plan = star_plan(leaves);
        println!(
            "  [{}/{}] {leaves}-node star ({} groups, {EPOCHS} epochs)...",
            i + 1,
            sizes.len(),
            plan.groups.len()
        );
        let mut base_agg = 0.0;
        let mut base_fp = (0u64, 0u64);
        for &shards in shard_counts {
            let mut r = run_once(&plan, 42, shards, false);
            if shards == 1 {
                base_agg = r.agg_events_per_sec;
                base_fp = r.fingerprints;
            }
            r.speedup_vs_1shard = r.agg_events_per_sec / base_agg;
            assert_eq!(
                r.fingerprints, base_fp,
                "{leaves}-node {shards}-shard run diverged from 1-shard"
            );
            print_row(&r);
            rows.push(r);
        }
        // Threaded cross-check at the widest layout (result must be
        // byte-identical; timing is not recorded on a saturated host).
        let threaded = run_once(&plan, 42, *shard_counts.last().unwrap(), true);
        assert_eq!(threaded.fingerprints, base_fp, "threaded run diverged");
    }

    let entry = vec![
        ("host_cores".into(), num(host_cores() as f64)),
        ("rows".into(), Json::Arr(rows.iter().map(row_json).collect())),
    ];
    if let Err(e) = scale_gate(&Json::Obj(entry.clone())) {
        return report(Err(format!("generated entry violates the scale gate: {e}")));
    }
    report(FILE.append(&label, entry, entry_rule))
}
