//! TAB-TIMELINE — event-level trace of one checkpoint epoch cycle, with
//! the time-transparency audit (ours; §4/§8 implications).
//!
//! Where TAB-TELEMETRY aggregates (histograms, counters), this experiment
//! keeps the *events*: every coordinator epoch phase, VmHost freeze
//! window, guest-visible clock observation, COW branch seal, and Dummynet
//! suspension lands in the engine's bounded trace ring against simulated
//! time. The ring exports two ways:
//!
//! - `results/tab_timeline.json` — Chrome trace-event / Perfetto JSON
//!   (load it at <https://ui.perfetto.dev>); one process per node, one
//!   thread per subsystem track;
//! - `results/tab_timeline.csv` — a compact, committed summary (event
//!   counts per tag, a content hash of the JSON, the audit verdict) that
//!   CI diffs to pin the timeline byte-for-byte.
//!
//! The run executes twice with the same seed; the full Perfetto JSON must
//! be byte-identical across runs. The transparency auditor then walks the
//! guest tracks and asserts that no host's guest ever observed the
//! checkpoint: monotonic clock reads, bounded tick gaps, no wall-clock
//! step across a firewall close → open cycle.

use sim::stats::fnv1a;
use sim::{audit_transparency, TracePhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use crate::lab::checkpointed_swap_cycle;
use crate::{banner, write_csv};

/// Tags the acceptance gate requires B (slice-begin) events for.
const REQUIRED_SLICES: [&str; 5] =
    ["vm.freeze", "guest.fw_closed", "cow.seal", "epoch", "dn.drain"];

struct RunOutput {
    json: String,
    /// Per-(name, phase) event counts, sorted — the committed fingerprint.
    counts: BTreeMap<(&'static str, char), u64>,
    events: usize,
    dropped: u64,
    verdict: String,
    passed: bool,
}

fn run_scenario() -> RunOutput {
    let tb = checkpointed_swap_cycle(15_001, "timeline");
    let t = tb.telemetry();
    let report = audit_transparency(t);
    let trace = t.trace_view();
    let mut counts = BTreeMap::new();
    for ev in trace.iter() {
        let ph = match ev.phase {
            TracePhase::Instant => 'i',
            other => other.code(),
        };
        *counts.entry((ev.name, ph)).or_insert(0) += 1;
    }
    RunOutput {
        json: t.trace_to_perfetto(),
        counts,
        events: trace.len(),
        dropped: t.trace_dropped(),
        verdict: report.verdict(),
        passed: report.passed(),
    }
}

pub fn run() {
    banner(
        "TAB-TIMELINE",
        "event-level trace ring, Perfetto export, transparency audit",
    );
    eprintln!("[tab_timeline] run 1...");
    let a = run_scenario();
    eprintln!("[tab_timeline] run 2 (same seed)...");
    let b = run_scenario();
    assert_eq!(
        a.json, b.json,
        "same-seed Perfetto exports must be byte-identical"
    );

    let counts = &a.counts;
    for name in REQUIRED_SLICES {
        assert!(
            counts.contains_key(&(name, 'B')),
            "timeline must contain a B slice for {name}"
        );
    }
    assert!(a.passed, "transparency audit failed: {}", a.verdict);

    let mut csv = String::from("key,value\n");
    let _ = writeln!(csv, "trace_events,{}", a.events);
    let _ = writeln!(csv, "trace_dropped,{}", a.dropped);
    let _ = writeln!(csv, "json_bytes,{}", a.json.len());
    let _ = writeln!(csv, "json_fnv64,{:016x}", fnv1a(a.json.as_bytes()));
    let _ = writeln!(csv, "audit,{}", a.verdict);
    for ((name, ph), n) in counts {
        let _ = writeln!(csv, "count.{name}.{ph},{n}");
    }

    let json_path = write_csv("tab_timeline.json", &a.json);
    let csv_path = write_csv("tab_timeline.csv", &csv);

    println!("  {:<28} {:>8} {:>8} {:>8}", "event", "B", "E", "i");
    let mut by_name: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
    for ((name, ph), n) in counts {
        let slot = match ph {
            'B' => 0,
            'E' => 1,
            _ => 2,
        };
        by_name.entry(name).or_insert([0; 3])[slot] += n;
    }
    for (name, row) in &by_name {
        println!("  {:<28} {:>8} {:>8} {:>8}", name, row[0], row[1], row[2]);
    }
    println!("\n  audit: {}", a.verdict);
    println!("  {} events ({} dropped), exports byte-identical across runs", a.events, a.dropped);
    println!("  timeline: {} (load at https://ui.perfetto.dev)", json_path.display());
    println!("  summary:  {}", csv_path.display());
}
