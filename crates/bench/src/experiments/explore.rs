//! EXPLORE — randomized fault exploration of the epoch protocol.
//!
//! Sweeps thousands of seeded iterations, each a fully random scenario
//! (topology, capture mix, failure policy, cadence, crash schedule)
//! run under an armed buggify registry, and checks every trace against
//! the independent shadow model of the coordinator's two-phase
//! protocol (`checkpoint::shadow`). A violation dumps the full trace
//! as CSV under `results/` and prints the exact command that replays
//! the iteration byte-identically.
//!
//! Usage:
//!
//! ```text
//! tcd explore [--iters=N] [--root-seed=S] [--preset=calm|moderate|chaos|mix]
//!             [--replay-seed=S [--sabotage]] [--selftest-replay] [--smoke]
//! ```
//!
//! - default: 5000 iterations from root seed 0xC0FFEE, mixed presets;
//! - `--smoke`: 200 iterations (CI-sized);
//! - `--replay-seed=S`: run exactly one iteration and dump its trace;
//! - `--sabotage`: drop node 1's `shadow.done` events before the
//!   shadow replay — a deliberate bookkeeping bug that must fire
//!   `CommitIncomplete` (used to prove the failure path works);
//! - `--selftest-replay`: run a sabotaged iteration twice and verify
//!   the violation reproduces byte-identically.
//!
//! Exit status is nonzero if any iteration violated the shadow model
//! (sabotaged runs invert: they fail if the violation did NOT fire).

use std::process::ExitCode;

use sim::Preset;

use crate::cli::Args;
use crate::explore::{
    events_csv, iteration_seed, repro_line, run_seed, IterationOutcome, Scenario,
};
use crate::{banner, flightrec, write_csv};

/// Dumps a failing iteration's trace and flight-recorder black box and
/// prints the repro line.
fn report_failure(out: &IterationOutcome, sabotage: bool) {
    let s = &out.scenario;
    println!();
    println!(
        "  VIOLATION seed={:#x} preset={} nodes={} interval={}ms crash={:?} coord_crash={:?}",
        s.seed,
        s.preset.name(),
        s.nodes(),
        s.interval_ms,
        s.crash,
        s.coord_crash,
    );
    for v in &out.violations {
        println!("    - {v}");
    }
    let path = write_csv(
        &format!("explore-violation-{:#x}.csv", s.seed),
        &events_csv(&out.events),
    );
    let box_path = flightrec::write_dump(out, "shadow violation", sabotage);
    println!("    trace: {} ({} events)", path.display(), out.events.len());
    println!("    black box: {}", box_path.display());
    println!("    repro: {}", repro_line(s, sabotage));
}

fn preset_name(p: Option<Preset>) -> &'static str {
    p.map_or("mix", Preset::name)
}

fn replay(seed: u64, preset: Option<Preset>, sabotage: bool) -> ExitCode {
    let scenario = Scenario::derive(seed, preset);
    println!("replaying seed {seed:#x}: {scenario:?}");
    let out = run_seed(seed, preset, sabotage);
    let (c, a, d) = out.outcomes;
    println!(
        "  epochs committed/aborted/degraded = {c}/{a}/{d}, retries = {}, \
         buggify fires = {}, coordinator crashes = {} ({} recovered), \
         shadow checked {} epochs, fingerprint = {:#018x}",
        out.retries,
        out.buggify_fires,
        out.coord_crashes,
        out.coord_recoveries,
        out.epochs_checked,
        out.fingerprint()
    );
    let path = write_csv(&format!("explore-replay-{seed:#x}.csv"), &events_csv(&out.events));
    println!("  trace: {} ({} events)", path.display(), out.events.len());
    if out.violations.is_empty() {
        println!("  shadow model: clean");
        if sabotage {
            println!("  FAIL: sabotage did not trip the shadow model");
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    } else {
        for v in &out.violations {
            println!("  violation: {v}");
        }
        if sabotage {
            let box_path = flightrec::write_dump(&out, "deliberate sabotage", sabotage);
            println!("  black box: {}", box_path.display());
            println!("  OK: deliberate violation fired as expected");
            ExitCode::SUCCESS
        } else {
            report_failure(&out, sabotage);
            ExitCode::FAILURE
        }
    }
}

/// Runs a sabotaged iteration twice and demands identical traces and
/// identical violations — the byte-identical-replay guarantee, checked
/// end to end through a real failure.
fn selftest_replay(preset: Option<Preset>) -> ExitCode {
    let seed = 5;
    let a = run_seed(seed, preset.or(Some(Preset::Calm)), true);
    let b = run_seed(seed, preset.or(Some(Preset::Calm)), true);
    if a.violations.is_empty() {
        println!("FAIL: sabotaged seed {seed:#x} produced no violation");
        return ExitCode::FAILURE;
    }
    if a.fingerprint() != b.fingerprint() || a.violations != b.violations {
        println!(
            "FAIL: replay diverged (fingerprints {:#x} vs {:#x})",
            a.fingerprint(),
            b.fingerprint()
        );
        return ExitCode::FAILURE;
    }
    // The flight recorder must be as reproducible as the run it
    // records: both runs' black boxes, byte for byte.
    let dump_a = flightrec::render(&a, "self-test sabotage", true);
    let dump_b = flightrec::render(&b, "self-test sabotage", true);
    if dump_a != dump_b {
        println!("FAIL: flight-recorder dumps diverged across replays");
        return ExitCode::FAILURE;
    }
    let box_path = flightrec::write_dump(&a, "self-test sabotage", true);
    println!(
        "OK: injected violation ({} finding{}) replayed byte-identically \
         (fingerprint {:#018x}, {} events)",
        a.violations.len(),
        if a.violations.len() == 1 { "" } else { "s" },
        a.fingerprint(),
        a.events.len()
    );
    println!("OK: flight-recorder black box reproduced byte-identically: {}", box_path.display());
    ExitCode::SUCCESS
}

pub fn run(args: &mut Args) -> ExitCode {
    let smoke = args.flag("--smoke");
    let iters = args.int("--iters").unwrap_or(if smoke { 200 } else { 5_000 });
    let root_seed = args.int("--root-seed").unwrap_or(0xC0_FFEE);
    let preset = match args.value("--preset").as_deref() {
        None | Some("mix") => None,
        Some(v) => {
            let preset = Preset::parse(v);
            if preset.is_none() {
                args.reject(format!("unknown preset {v}"));
            }
            preset
        }
    };
    let replay_seed = args.int("--replay-seed");
    let sabotage = args.flag("--sabotage");
    let selftest = args.flag("--selftest-replay");
    if let Err(usage) = args.finish() {
        return usage;
    }
    if selftest {
        return selftest_replay(preset);
    }
    if let Some(seed) = replay_seed {
        return replay(seed, preset, sabotage);
    }

    banner(
        "EXPLORE",
        "randomized fault exploration vs. the shadow epoch model",
    );
    println!(
        "root seed {:#x}, {} iterations, preset {}",
        root_seed,
        iters,
        preset_name(preset)
    );

    let mut totals = (0u64, 0u64, 0u64);
    let mut retries = 0u64;
    let mut fires = 0u64;
    let mut epochs = 0u64;
    let mut failures = 0u64;
    let mut coord_crashes = 0u64;
    let mut coord_recoveries = 0u64;
    let mut scale_probes = 0u64;
    let mut scale_failures = 0u64;
    for i in 0..iters {
        let seed = iteration_seed(root_seed, i);
        let out = run_seed(seed, preset, sabotage);
        totals.0 += out.outcomes.0;
        totals.1 += out.outcomes.1;
        totals.2 += out.outcomes.2;
        retries += out.retries;
        fires += out.buggify_fires;
        epochs += out.epochs_checked;
        coord_crashes += out.coord_crashes;
        coord_recoveries += out.coord_recoveries;
        match &out.scale_probe_result {
            Some(Ok(())) => scale_probes += 1,
            Some(Err(why)) => {
                scale_probes += 1;
                scale_failures += 1;
                let p = out.scenario.scale_probe.expect("probe ran");
                println!(
                    "\n  SCALE PROBE FAILED seed={:#x}: {}-node lab at 1 and {} shards \
                     ({} groups x {}): {why}",
                    seed,
                    p.nodes(),
                    p.shards,
                    p.groups,
                    p.per_group
                );
                println!("    repro: {}", repro_line(&out.scenario, sabotage));
            }
            None => {}
        }
        if !out.violations.is_empty() {
            failures += 1;
            report_failure(&out, sabotage);
        }
        if (i + 1) % 500 == 0 {
            println!(
                "  {}/{} iterations, {} epochs checked, {} buggify fires, {} violations",
                i + 1,
                iters,
                epochs,
                fires,
                failures
            );
        }
    }

    println!();
    println!(
        "{} iterations: {} epochs checked ({} committed / {} aborted / {} degraded), \
         {} retries, {} buggify fires, {} coordinator crashes ({} recovered)",
        iters, epochs, totals.0, totals.1, totals.2, retries, fires,
        coord_crashes, coord_recoveries
    );
    println!(
        "scale probes: {scale_probes} run, {scale_failures} failed \
         (lab invariants and shadow, 1-shard vs N-shard fingerprints)"
    );
    if failures == 0 && scale_failures == 0 {
        println!("shadow model: clean across all iterations");
        ExitCode::SUCCESS
    } else {
        if failures > 0 {
            println!("shadow model: {failures} violating iteration(s) — traces under results/");
        }
        if scale_failures > 0 {
            println!("scale lab: {scale_failures} failed scale probe(s)");
        }
        ExitCode::FAILURE
    }
}
