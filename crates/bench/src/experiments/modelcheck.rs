//! MODELCHECK — exhaustive small-scope model check of the epoch
//! protocol with coordinator crash/recovery.
//!
//! Enumerates, breadth-first with visited-state dedup, every
//! interleaving of notify / ack / capture / done / deadline /
//! coordinator-crash / recovery / watchdog actions for a small
//! checkpoint group (`checkpoint::modelcheck`), checking each emitted
//! event sequence against the shadow epoch model and each quiescent
//! state for liveness (round decided, no node left suspended). The
//! result is a proof-by-enumeration over the scoped model, not the full
//! simulator — the explorer covers the timed/randomized side.
//!
//! Usage:
//!
//! ```text
//! tcd modelcheck [--nodes=N] [--max-crashes=K] [--depth-bound=D]
//!                [--sabotage] [--selftest] [--csv]
//! ```
//!
//! - default: 2 nodes, 1 crash, exhaustive (no depth bound);
//! - `--sabotage`: plant a recovery bug (roll forward on acks alone)
//!   that the checker must catch — exits nonzero if it does NOT;
//! - `--selftest`: run the default scope clean AND the sabotaged scope,
//!   demanding a counterexample from the latter (CI self-proof);
//! - `--csv`: write the checked scope's row (under `--selftest`, the clean
//!   scope's) to `results/modelcheck.csv`, replacing the row if the scope
//!   is already there — re-running a scope reproduces the file.
//!
//! Exit status is nonzero on any counterexample (sabotage inverts).

use std::process::ExitCode;

use checkpoint::modelcheck::{check, ModelConfig, ModelReport};

use crate::cli::Args;
use crate::{banner, out_dir};

fn report_scope(cfg: &ModelConfig, report: &ModelReport) {
    println!(
        "scope: {} nodes, {} coordinator crash(es){}{}",
        cfg.nodes,
        cfg.max_crashes,
        cfg.depth_bound
            .map_or(String::new(), |d| format!(", depth bound {d}")),
        if cfg.sabotage { ", SABOTAGED recovery" } else { "" },
    );
    println!(
        "  {} states explored, {} transitions, {} quiescent states, \
         max depth {}, {} truncated",
        report.states_explored,
        report.transitions,
        report.deadlocks,
        report.max_depth_seen,
        report.truncated
    );
    match &report.counterexample {
        None => println!("  no counterexample: every interleaving satisfies the epoch invariants"),
        Some(cex) => {
            println!("  COUNTEREXAMPLE ({} actions):", cex.actions.len());
            for a in &cex.actions {
                println!("    - {a}");
            }
            for p in &cex.problems {
                println!("  violated: {p}");
            }
            println!("  shadow event trace:");
            for line in cex.events_csv.lines() {
                println!("    {line}");
            }
        }
    }
}

/// Rewrites `results/modelcheck.csv` with this scope's row replaced in
/// place (rows are keyed by the four scope columns; an unseen scope is
/// added at the end), so re-running a committed scope reproduces the
/// file instead of growing it.
fn record_csv(cfg: &ModelConfig, report: &ModelReport) {
    let path = out_dir().join("modelcheck.csv");
    let header = "nodes,max_crashes,depth_bound,sabotage,states_explored,transitions,\
                  quiescent,max_depth,truncated,counterexamples";
    let key = format!(
        "{},{},{},{},",
        cfg.nodes,
        cfg.max_crashes,
        cfg.depth_bound.map_or("none".to_string(), |d| d.to_string()),
        cfg.sabotage,
    );
    let row = format!(
        "{key}{},{},{},{},{},{}",
        report.states_explored,
        report.transitions,
        report.deadlocks,
        report.max_depth_seen,
        report.truncated,
        u64::from(report.counterexample.is_some()),
    );
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<&str> = match old.lines().next() {
        Some(first) if first == header => old.lines().collect(),
        _ => vec![header],
    };
    match lines.iter_mut().find(|l| l.starts_with(&key)) {
        Some(line) => *line = &row,
        None => lines.push(&row),
    }
    std::fs::write(&path, lines.join("\n") + "\n").expect("write results/modelcheck.csv");
    println!("  csv: {}", path.display());
}

pub fn run(args: &mut Args) -> ExitCode {
    let nodes = args.int("--nodes").unwrap_or(2);
    if !(1..=4).contains(&nodes) {
        args.reject("--nodes must be 1..=4 (state space is exponential)".to_string());
    }
    let max_crashes = args.int("--max-crashes").unwrap_or(1);
    let depth_bound = args.int("--depth-bound");
    if max_crashes > u64::from(u8::MAX) || depth_bound.is_some_and(|d| d > u64::from(u32::MAX)) {
        args.reject("--max-crashes / --depth-bound out of range".to_string());
    }
    let sabotage = args.flag("--sabotage");
    let selftest = args.flag("--selftest");
    let csv = args.flag("--csv");
    if let Err(usage) = args.finish() {
        return usage;
    }
    let scope = ModelConfig {
        nodes: nodes as u8,
        max_crashes: max_crashes as u8,
        depth_bound: depth_bound.map(|d| d as u32),
        sabotage,
    };
    banner(
        "MODELCHECK",
        "exhaustive small-scope check of the crash-recoverable epoch protocol",
    );

    if selftest {
        // Clean scope must verify; sabotaged scope must produce a
        // counterexample — proving the checker can actually fail.
        let clean = ModelConfig { sabotage: false, ..scope };
        let clean_report = check(&clean);
        report_scope(&clean, &clean_report);
        if csv {
            record_csv(&clean, &clean_report);
        }
        let sab = ModelConfig { sabotage: true, ..clean };
        let sab_report = check(&sab);
        report_scope(&sab, &sab_report);
        if clean_report.counterexample.is_some() {
            println!("FAIL: clean scope produced a counterexample");
            return ExitCode::FAILURE;
        }
        if sab_report.counterexample.is_none() {
            println!("FAIL: sabotaged recovery went undetected — checker is blind");
            return ExitCode::FAILURE;
        }
        println!("selftest OK: clean scope verified, planted bug caught");
        return ExitCode::SUCCESS;
    }

    let report = check(&scope);
    report_scope(&scope, &report);
    if csv {
        record_csv(&scope, &report);
    }
    let found = report.counterexample.is_some();
    if sabotage {
        if found {
            println!("OK: planted recovery bug caught");
            ExitCode::SUCCESS
        } else {
            println!("FAIL: planted recovery bug went undetected");
            ExitCode::FAILURE
        }
    } else if found {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
