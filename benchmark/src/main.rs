//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! tcd-benchmark run --seed <n> [--trace] [--quick] [--runs <k>] [--seconds <s>] [--out <file>]
//! tcd-benchmark compare <a.json> <b.json>
//! tcd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last form runs one workload in this process and prints its result
//! object as the last line; `run` starts one such child per workload.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use tcd_benchmark::harness::{self, Outcome, RunArgs};
use tcd_benchmark::json;
use tcd_benchmark::scripts::WORKLOADS;
use tcd_benchmark::{compare, header_json, out_dir};

/// Host seconds one run spends on reps unless `--seconds` says otherwise
/// (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => cli.quick = true,
            // `--trace` alone (the `run` form) or `--trace 0|1` (the
            // driver form).
            "--trace" => {
                cli.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    if cli.runs == 0 || cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--runs and --seconds must be positive".to_string());
    }
    Ok(cli)
}

/// The result object the driver reads: the last line of standard output.
fn result_line(o: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len()
    );
    for (i, (m, v)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            json::quote(m.name),
            json::quote(m.unit)
        );
    }
    line.push_str("}}");
    line
}

/// Runs one workload in this process (the driver form).
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    };
    let o = harness::run(&args);
    let header = header_json(cli.seed, ("reps", o.per_rep.len()));
    println!("# header {header}");
    println!(
        "# workload {workload} trace {} quick {}",
        cli.trace as u8, cli.quick
    );
    for (m, v) in &o.metrics {
        println!("{:<40} {v:>18.6} {:<9} [{}]", m.name, m.unit, m.tags());
    }
    for (i, (setup_s, ms_per_sim_s)) in o.per_rep.iter().enumerate() {
        println!("rep {i}: setup_s {setup_s:.4} host_ms_per_sim_s {ms_per_sim_s:.4}");
    }
    println!("ops_attempted {}", o.attempted);
    println!("ops_failed {}", o.failures.len());
    for f in &o.failures {
        println!("FAILED: {f}");
    }
    println!("sim_op_samples {}", o.op_samples);
    println!("sim_fingerprint {:016x}", o.fingerprint);
    if let Some(tracer) = &o.trace {
        // Children that outweigh their operation by more than a tenth
        // mean the re-enactment was not faithful (it ran on colder memory,
        // or into a burst of machine noise): flagged, not failed.
        for (name, span_ms, children_ms) in harness::attribution(tracer) {
            println!(
                "op {name}: {span_ms:.2} ms = {children_ms:.2} ms re-enacted children + {:.2} ms self{}",
                span_ms - children_ms,
                if children_ms > 1.10 * span_ms { "  (children exceed the operation by over 10%)" } else { "" }
            );
        }
        let path = out_dir().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)));
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&o));
    if o.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run`: every workload, one child process each, `runs` times over; the
/// results land in one file `compare` can read.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let kinds: &[bool] = if cli.trace { &[false, true] } else { &[false] };
    let mut rows = Vec::new();
    let mut ok = true;
    for run in 0..cli.runs {
        for w in &workloads {
            for &trace in kinds {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w, "--seed", &cli.seed.to_string()]);
                cmd.args([
                    "--seconds",
                    &cli.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ]);
                if cli.quick {
                    cmd.arg("--quick");
                }
                println!("== run {run} workload {w} trace {}", trace as u8);
                let out = match cmd.output() {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("cannot start child: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
                let fingerprint = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix("sim_fingerprint "))
                    .unwrap_or("")
                    .to_string();
                // The child's result line is JSON already: embed it as is.
                match stdout.lines().last().filter(|l| json::parse(l).is_ok()) {
                    Some(result) => rows.push(format!(
                        "{{\"workload\": {}, \"trace\": {trace}, \"run\": {run}, \"sim_fingerprint\": {}, \"result\": {result}}}",
                        json::quote(w),
                        json::quote(&fingerprint),
                    )),
                    None => {
                        eprintln!("workload {w}: child printed no result");
                        ok = false;
                    }
                }
            }
        }
    }
    let doc = format!(
        "{{\"header\": {},\n \"runs\": [\n  {}\n ]}}\n",
        header_json(cli.seed, ("runs", cli.runs)),
        rows.join(",\n  ")
    );
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run-seed{}.json", cli.seed)));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("== results {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("== at least one workload failed a check");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: tcd-benchmark run --seed <n> [--trace] [--quick] [--runs <k>] [--seconds <s>] [--out <file>]\n       \
                 tcd-benchmark compare <a.json> <b.json>\n       \
                 tcd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) if args.len() == 3 => compare::main(a, b),
            _ => {
                eprintln!("{usage}");
                ExitCode::FAILURE
            }
        },
        Some("run") => match parse_cli(&args[1..]) {
            Ok(cli) => run_all(&cli),
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::FAILURE
            }
        },
        _ => match parse_cli(&args) {
            Ok(cli) => match cli.workload.clone() {
                Some(w) => run_one(&cli, &w),
                None => {
                    eprintln!("{usage}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::FAILURE
            }
        },
    }
}
