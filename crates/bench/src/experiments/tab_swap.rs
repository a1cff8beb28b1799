//! TAB-SWAP — §7.2's stateful-swapping timings (in-text table).
//!
//! A single-node experiment swapped in and out four times consecutively,
//! generating 275 MB of disk data per swapped-in session. Paper numbers:
//!
//! - initial swap-in ≈ 8 s with the base image cached, +60 s to download
//!   it when not;
//! - swap-out ≈ 60 s, constant across cycles;
//! - subsequent swap-ins ≈ 35 s constant with lazy copy-in, growing past
//!   150 s by the fourth cycle without it;
//! - a disk-intensive workload during swap-out adds ~20%.

use emulab::{ExperimentSpec, Testbed};
use guestos::prog::FileId;
use sim::SimDuration;
use crate::{banner, row, write_csv};
use workloads::FileWriter;

/// One swapped-in session: write 275 MB of fresh data, sync, idle.
fn session(tb: &mut Testbed, cycle: u64) {
    tb.spawn(
        "swap",
        "n",
        Box::new(FileWriter::new(FileId(100 + cycle), 275 << 20)),
    );
    // Enough time for the writes to land and settle.
    tb.run_for(SimDuration::from_secs(120));
}

fn run_cycles(lazy: bool, disk_load_during_swapout: bool) -> (Vec<f64>, Vec<f64>, f64) {
    let mut tb = Testbed::new(10_001, 4);
    tb.swap_in(ExperimentSpec::new("swap").node("n")).unwrap();
    let mut swap_ins = Vec::new();
    let mut swap_outs = Vec::new();
    let mut initial_in = 0.0;
    for cycle in 0..4u64 {
        session(&mut tb, cycle);
        if disk_load_during_swapout {
            // A bounded disk-intensive load straight through the swap-out:
            // rewrites the same 64 MB file, so pre-copied blocks keep
            // getting dirtied and re-sent (the paper's +20% mechanism).
            tb.spawn(
                "swap",
                "n",
                Box::new(FileWriter::new(FileId(900 + cycle), 64 << 20).looping()),
            );
            tb.run_for(SimDuration::from_secs(2));
        }
        let out = tb.swap_out_stateful("swap");
        swap_outs.push(out.total.as_secs_f64());
        tb.run_for(SimDuration::from_secs(30));
        if cycle < 3 {
            let rep = tb.swap_in_stateful("swap", lazy);
            swap_ins.push(rep.total.as_secs_f64());
        }
    }
    // Initial (stateless) swap-in cost on a machine with the image cached.
    let mut tb2 = Testbed::new(10_002, 4);
    let d1 = tb2.swap_in(ExperimentSpec::new("x").node("n")).unwrap();
    let _ = tb2.swap_out_stateful("x");
    initial_in += d1.as_secs_f64();
    (swap_ins, swap_outs, initial_in)
}

pub fn run() {
    banner("TAB-SWAP", "stateful swapping timings over four cycles (§7.2)");

    // Uncached vs cached initial swap-in.
    let mut tb = Testbed::new(10_000, 4);
    let uncached = tb
        .swap_in(ExperimentSpec::new("u").node("n"))
        .unwrap()
        .as_secs_f64();
    let _ = tb.swap_out_stateful("u");
    tb.run_for(SimDuration::from_secs(5));
    let cached = tb
        .swap_in(ExperimentSpec::new("v").node("n"))
        .unwrap()
        .as_secs_f64();
    row(
        "initial swap-in (image cached)",
        "~8 s",
        &format!("{cached:.1} s"),
    );
    row(
        "image download penalty (uncached)",
        "+60 s",
        &format!("+{:.1} s", uncached - cached),
    );

    eprintln!("[tab_swap] eager cycles...");
    let (eager_ins, eager_outs, _) = run_cycles(false, false);
    eprintln!("[tab_swap] lazy cycles...");
    let (lazy_ins, lazy_outs, _) = run_cycles(true, false);
    eprintln!("[tab_swap] disk-loaded swap-out...");
    let (_, loaded_outs, _) = run_cycles(true, true);

    let mut csv = String::from("cycle,eager_swap_in_s,lazy_swap_in_s,swap_out_s\n");
    for i in 0..3 {
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.1}\n",
            i + 2,
            eager_ins[i],
            lazy_ins[i],
            eager_outs[i]
        ));
    }
    let path = write_csv("tab_swap.csv", &csv);

    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join("/")
    };
    row(
        "swap-in per cycle, eager (grows)",
        ">150 s by 4th",
        &format!("{} s", fmt(&eager_ins)),
    );
    row(
        "swap-in per cycle, lazy (constant)",
        "~35 s",
        &format!("{} s", fmt(&lazy_ins)),
    );
    row(
        "swap-out per cycle (constant)",
        "~60 s",
        &format!("{} s", fmt(&eager_outs)),
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    row(
        "swap-out under disk-intensive load",
        "+20%",
        &format!(
            "{:+.0}% ({} s)",
            (mean(&loaded_outs) / mean(&lazy_outs) - 1.0) * 100.0,
            fmt(&loaded_outs)
        ),
    );
    println!("  table: {}", path.display());
}
