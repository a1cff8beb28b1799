//! TAB-TELEMETRY — the unified telemetry registry over a full testbed
//! run (ours).
//!
//! One scenario exercises every instrumented seam: periodic coordinated
//! checkpoints (coordinator epoch lifecycle, VmHost freeze/thaw
//! downtime), a stateful swap-out/swap-in cycle (testbed swap paths, the
//! file server's dedup store), and the engine-wide span log. The run is
//! executed twice with the same seed and the exports must be
//! byte-identical — the registry is part of the deterministic state, not
//! an observer with its own clock.
//!
//! The exported table is `results/tab_telemetry.csv`, one row per
//! instrument: `kind,name,value,count,sum,min,max,p50,p90,p99,overflow`.

use crate::lab::checkpointed_swap_cycle;
use crate::{banner, write_csv};

fn run_scenario() -> String {
    checkpointed_swap_cycle(14_001, "tele").telemetry().to_csv()
}

pub fn run() {
    banner(
        "TAB-TELEMETRY",
        "unified metrics/span registry: one testbed run, deterministic export",
    );
    eprintln!("[tab_telemetry] run 1...");
    let a = run_scenario();
    eprintln!("[tab_telemetry] run 2 (same seed)...");
    let b = run_scenario();
    assert_eq!(a, b, "same-seed telemetry exports must be byte-identical");

    let mut shown = 0;
    println!("  {:<10} {:<34} {:>9} {:>12} {:>12}", "kind", "name", "count", "p50", "p99");
    for line in a.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        // kind,name,value,count,sum,min,max,p50,p90,p99,overflow
        if f[0] == "histogram" || f[0] == "span" {
            println!("  {:<10} {:<34} {:>9} {:>12} {:>12}", f[0], f[1], f[3], f[7], f[9]);
            shown += 1;
        }
    }
    assert!(shown >= 6, "expected the instrumented seams to surface, got {shown}");

    let path = write_csv("tab_telemetry.csv", &a);
    println!("\n  two same-seed runs exported identical tables ({} rows)", a.lines().count() - 1);
    println!("  table: {}", path.display());
}
