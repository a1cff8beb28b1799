//! TAB-SCALE — the shipped epoch protocol on the sharded engine at
//! thousands of nodes.
//!
//! Builds star topologies through the full stack (`emulab::ExperimentSpec`
//! → `ScalePlan` → `ScalePlan::build_lab`: the real `Coordinator`, and a
//! `Participant` on every node) and sweeps 1,000/4,000/10,000 nodes ×
//! 1/2/4/8 shards, plus one threaded 8-shard run per size. Every run must
//! commit every round, keep the shadow model clean and conserve captured
//! bytes (`ScaleLab::check_invariants`), and every layout of a size must
//! give the 1-shard run's fingerprints.
//!
//! `results/tab_scale.csv` holds the deterministic columns, one row per
//! node count: `nodes`, `groups`, `epochs`, `events`, `mb_captured`, and
//! `fingerprint` / `trace_fingerprint` — FNV-1a of the merged telemetry
//! CSV and of the merged Perfetto export. It is the sharded side's byte
//! pin, as the other `results/*.csv` are the plain engine's.
//!
//! Host-time numbers are printed, never written: wall time, events/s,
//! and the *modelled* speedup — events over the critical path (per
//! window, the busiest shard's dispatch time, summed across windows),
//! the standard conservative-PDES potential-parallelism metric. The
//! ≥ 2× gate at 1,000 nodes and 4 shards reads it, because wall-clock
//! speedup on a host with fewer cores than shards measures scheduling
//! noise, not the engine.

use std::fmt::Write as _;
use std::time::Instant;

use emulab::{ExperimentSpec, ScalePlan};
use sim::SimDuration;

use crate::{banner, write_csv};

struct Row {
    nodes: u32,
    groups: u32,
    shards: u32,
    epochs: u64,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
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
    let crit_ns = lab.engine.critical_path_ns().max(1);
    Row {
        nodes: o.nodes,
        groups: plan.groups.len() as u32,
        shards,
        epochs: o.epochs_committed,
        events: o.events,
        wall_ms: wall_ns as f64 / 1e6,
        events_per_sec: o.events as f64 / (wall_ns as f64 / 1e9),
        agg_events_per_sec: o.events as f64 / (crit_ns as f64 / 1e9),
        mb_captured: o.bytes_captured as f64 / 1e6,
        speedup_vs_1shard: 1.0, // filled by the sweep
        fingerprints: (o.fingerprint_metrics, o.fingerprint_trace),
    }
}

fn print_row(r: &Row) {
    println!(
        "        {:>6} nodes  S={}  {:>8.1} ms wall  {:>9.0} ev/s wall  {:>10.0} ev/s critpath  \
         {:>5.2}x model  {:>8.1} MB  fp {:016x}/{:016x}",
        r.nodes, r.shards, r.wall_ms, r.events_per_sec, r.agg_events_per_sec,
        r.speedup_vs_1shard, r.mb_captured, r.fingerprints.0, r.fingerprints.1
    );
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn run() {
    banner("TAB-SCALE", "the shipped epoch protocol on the sharded engine at thousands of nodes");
    println!("  host cores: {} (wall and critical-path numbers are host time)", host_cores());

    let mut csv = String::from("nodes,groups,epochs,events,mb_captured,fingerprint,trace_fingerprint\n");
    let mut speedup_1000_4 = 0.0;
    for (i, leaves) in [1000, 4000, 10000].into_iter().enumerate() {
        let plan = star_plan(leaves);
        println!("  [{}/3] {leaves}-node star ({} groups, {EPOCHS} epochs)...", i + 1, plan.groups.len());
        let base = run_once(&plan, 42, 1, false);
        print_row(&base);
        for shards in [2, 4, 8] {
            let mut r = run_once(&plan, 42, shards, false);
            r.speedup_vs_1shard = r.agg_events_per_sec / base.agg_events_per_sec;
            assert_eq!(
                r.fingerprints, base.fingerprints,
                "{leaves}-node {shards}-shard run diverged from 1-shard"
            );
            print_row(&r);
            if (leaves, shards) == (1000, 4) {
                speedup_1000_4 = r.speedup_vs_1shard;
            }
        }
        // Threaded cross-check at the widest layout: byte-identical
        // result; its timing is not reported on a saturated host.
        let threaded = run_once(&plan, 42, 8, true);
        assert_eq!(threaded.fingerprints, base.fingerprints, "{leaves}-node threaded run diverged");
        assert_eq!(base.epochs, u64::from(EPOCHS), "every round must commit");
        let _ = writeln!(
            csv,
            "{},{},{},{},{:.2},{:016x},{:016x}",
            base.nodes,
            base.groups,
            base.epochs,
            base.events,
            base.mb_captured,
            base.fingerprints.0,
            base.fingerprints.1
        );
    }

    println!("\n  1,000 nodes, 4 shards: {speedup_1000_4:.2}x critical-path speedup (a model; gate >= 2x)");
    assert!(
        speedup_1000_4 >= 2.0,
        "1,000-node 4-shard critical-path speedup {speedup_1000_4:.2}x below the 2x gate"
    );
    println!("  sizes: {}", write_csv("tab_scale.csv", &csv).display());
}
