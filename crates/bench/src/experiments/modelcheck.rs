//! MODELCHECK — exhaustive small-scope model check of the shipped
//! epoch protocol with coordinator crash/recovery ([`crate::modelcheck`]):
//! every trigger / delivery / dispatch / crash interleaving of one round,
//! each state checked against the shadow epoch model and each quiescent
//! state for liveness.
//!
//! ```text
//! tcd modelcheck [--nodes=N] [--max-crashes=K] [--sabotage] [--selftest] [--csv]
//! ```
//!
//! - default: 2 nodes, 1 crash;
//! - `--sabotage`: forge `Done` records at each crash, which the checker
//!   must catch — exits nonzero if it does NOT;
//! - `--selftest`: run the scope clean AND sabotaged (CI self-proof);
//! - `--csv`: write the checked scope's row (under `--selftest`, the clean
//!   scope's) to `results/modelcheck.csv`, replacing the scope's old row.
//!
//! Exit status is nonzero on any counterexample (sabotage inverts).

use std::process::ExitCode;

use crate::cli::Args;
use crate::modelcheck::{check, ModelConfig, ModelReport};
use crate::{banner, out_dir};

fn report_scope(cfg: &ModelConfig, report: &ModelReport) {
    let sabotage = if cfg.sabotage { ", SABOTAGED recovery" } else { "" };
    println!("scope: {} nodes, {} coordinator crash(es){sabotage}", cfg.nodes, cfg.max_crashes);
    println!(
        "  {} states explored, {} transitions, {} quiescent states, max depth {}",
        report.states_explored, report.transitions, report.quiescent, report.max_depth,
    );
    match &report.counterexample {
        None => println!("  no counterexample: every interleaving satisfies the epoch invariants"),
        Some(cex) => {
            println!("  COUNTEREXAMPLE ({} choices):", cex.labels.len());
            cex.labels.iter().for_each(|a| println!("    - {a}"));
            cex.problems.iter().for_each(|p| println!("  violated: {p}"));
            println!("  shadow event trace:");
            cex.events_csv.lines().for_each(|l| println!("    {l}"));
        }
    }
}

/// Rewrites `results/modelcheck.csv` with this scope's row replaced in
/// place (rows are keyed by the three scope columns; an unseen scope is
/// added at the end), so re-running a committed scope reproduces the
/// file instead of growing it.
fn record_csv(cfg: &ModelConfig, report: &ModelReport) {
    let path = out_dir().join("modelcheck.csv");
    let header = "nodes,max_crashes,sabotage,states_explored,transitions,quiescent,\
                  max_depth,counterexamples";
    let key = format!("{},{},{},", cfg.nodes, cfg.max_crashes, cfg.sabotage);
    let row = format!(
        "{key}{},{},{},{},{}",
        report.states_explored,
        report.transitions,
        report.quiescent,
        report.max_depth,
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
    if !(1..=3).contains(&nodes) {
        args.reject("--nodes must be 1..=3 (state space is exponential)".to_string());
    }
    let max_crashes = args.int("--max-crashes").unwrap_or(1);
    if max_crashes > u64::from(u8::MAX) {
        args.reject("--max-crashes out of range".to_string());
    }
    let sabotage = args.flag("--sabotage");
    let selftest = args.flag("--selftest");
    let csv = args.flag("--csv");
    if let Err(usage) = args.finish() {
        return usage;
    }
    let scope = ModelConfig { nodes: nodes as u8, max_crashes: max_crashes as u8, sabotage };
    banner("MODELCHECK", "exhaustive small-scope check of the shipped epoch protocol");
    // A sabotaged scope must yield a counterexample, a clean one must
    // not; --selftest checks the scope both ways.
    let scopes = if selftest {
        vec![ModelConfig { sabotage: false, ..scope }, ModelConfig { sabotage: true, ..scope }]
    } else {
        vec![scope]
    };
    let mut ok = true;
    for (i, cfg) in scopes.iter().enumerate() {
        let report = check(cfg);
        report_scope(cfg, &report);
        if csv && i == 0 {
            record_csv(cfg, &report);
        }
        let found = report.counterexample.is_some();
        if cfg.sabotage {
            let verdict = if found { "OK: planted bug caught" } else { "FAIL: planted bug missed" };
            println!("{verdict}");
        }
        ok &= found == cfg.sabotage;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
