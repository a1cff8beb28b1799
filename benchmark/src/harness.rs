//! One run of one workload, in this process: reps, the statistics over
//! them, the checks across reps, and the traced run's differential reps and
//! probes.

use crate::layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::scripts::{run_rep, Mode, Rep, RepCfg};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the run is sized for; see [`reps_for`].
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every declared metric of this run kind, in declaration order.
    pub metrics: Vec<(&'static Metric, f64)>,
    pub fingerprint: u64,
    /// `(setup_s, host_ms_per_sim_s)` of every untraced measured rep.
    pub per_rep: Vec<(f64, f64)>,
    pub op_samples: usize,
    /// The spans of the traced rep (traced runs only).
    pub trace: Option<Tracer>,
}

/// Per workload: the host seconds one rep took on the 2-core sandbox the
/// benchmark was defined on (set-up, measured phase and checks), and the
/// fewest reps a run is made of.
const REP_SIZING: [(&str, f64, usize); 4] = [
    ("iperf_ckpt", 3.5, 7),
    ("bt_lan", 6.4, 5),
    ("state_save", 2.8, 7),
    ("state_load", 3.8, 7),
];

/// Reps that fit `seconds` at the nominal rep cost, and the workload's
/// floor. The counts are a function of the arguments alone, never of how
/// fast this run happens to go: two commits given the same `--seconds` do
/// the same work.
fn reps_for(workload: &str, seconds: f64) -> (usize, usize) {
    let (_, nominal, floor) = REP_SIZING
        .iter()
        .find(|s| s.0 == workload)
        .expect("known workload");
    ((seconds / nominal) as usize, *floor)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rep_cfg(args: &RunArgs, mode: Mode) -> RepCfg {
    RepCfg {
        seed: args.seed,
        quick: args.quick,
        mode,
    }
}

fn untraced(args: &RunArgs, mode: Mode) -> Rep {
    run_rep(&args.workload, rep_cfg(args, mode), &mut Tracer::new(false))
}

fn untraced_reps(args: &RunArgs, n: usize) -> Vec<Rep> {
    (0..n).map(|_| untraced(args, Mode::Full)).collect()
}

/// Same seed, same simulation: every rep must agree on everything that is
/// on the simulated clock, or the run is invalid.
fn check_determinism(reps: &[&Rep], failures: &mut Vec<String>) {
    let first = reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.fingerprint != first.fingerprint {
            failures.push(format!(
                "rep {i} sim_fingerprint {:016x} differs from rep 0 {:016x}: run invalid",
                r.fingerprint, first.fingerprint
            ));
        }
        if r.op_sim_ms != first.op_sim_ms
            || r.app_bytes != first.app_bytes
            || r.sim_s != first.sim_s
            || r.steps_ms.len() != first.steps_ms.len()
        {
            failures.push(format!(
                "rep {i} simulated-time results differ from rep 0: run invalid"
            ));
        }
    }
}

fn per_sim_s(r: &Rep) -> f64 {
    r.host_ms / r.sim_s
}

/// Host ms of the measured phase with every step taken at its first
/// quartile over the reps and the steps summed. The shared host slows
/// single reps to up to twice their time for seconds on end, and now and
/// then speeds one up by a sixth; the median over whole reps then moved by
/// a quarter between runs of one commit. A step's low quartile moves only
/// if three reps in four were slowed at that very step (README,
/// "Steadiness").
fn steady_host_ms(reps: &[Rep]) -> f64 {
    (0..reps[0].steps_ms.len())
        .map(|i| {
            let step: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.steps_ms.get(i).copied())
                .collect();
            percentile(&step, 25.0)
        })
        .sum()
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut failures = Vec::new();
    let (fit, floor) = reps_for(&args.workload, args.seconds);
    let n = if args.quick { 1 } else { fit.max(floor) };
    // Memory is read after the process's first rep. Later reps push the
    // high-water mark up by what the allocator failed to reuse from the
    // testbeds before them, which varies by a quarter from run to run and
    // says nothing about what one experiment needs.
    let mut reps = vec![untraced(args, Mode::Full)];
    let peak_rss = peak_rss_mb();
    reps.extend(untraced_reps(args, n - 1));
    check_determinism(&reps.iter().collect::<Vec<_>>(), &mut failures);
    let mut attempted = 1;
    for r in &reps {
        attempted += r.attempted;
        failures.extend(r.failures.iter().cloned());
    }

    let first = &reps[0];
    let ops = &first.op_sim_ms;
    let values = [
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        steady_host_ms(&reps) / first.sim_s,
        peak_rss,
        if ops.is_empty() { 0.0 } else { median(ops) },
        ops.iter().copied().fold(0.0, f64::max),
        first.app_bytes as f64 / 1e6 / first.sim_s,
    ];
    Outcome {
        attempted,
        failures,
        metrics: END_TO_END.iter().zip(values).collect(),
        fingerprint: first.fingerprint,
        per_rep: reps.iter().map(|r| (r.setup_s, per_sim_s(r))).collect(),
        op_samples: ops.len(),
        trace: None,
    }
}

/// `(name, span ms, re-enacted children ms)` of every checkpoint-class
/// operation span of the measured phase.
pub fn attribution(tracer: &Tracer) -> Vec<(String, f64, f64)> {
    let spans = tracer.spans();
    let measured = spans.iter().position(|s| s.name == "measured");
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.op != 0 && s.parent == measured)
        .map(|(id, s)| {
            let children = spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.ms())
                .sum();
            (s.name.clone(), s.ms(), children)
        })
        .collect()
}

/// The traced run: a few untraced reps for the baseline, one rep with
/// spans on, the two differential reps, and the probes.
fn run_traced(args: &RunArgs) -> Outcome {
    let mut failures = Vec::new();
    // Two fifths of the run go to the untraced baseline, the rest to the
    // traced rep, the differential reps and the probes.
    let (fit, _) = reps_for(&args.workload, 0.4 * args.seconds);
    let base = untraced_reps(args, if args.quick { 1 } else { fit.max(1) });
    let base_ms = median(&base.iter().map(|r| r.host_ms).collect::<Vec<_>>());

    let mut tracer = Tracer::new(true);
    let traced = run_rep(&args.workload, rep_cfg(args, Mode::Full), &mut tracer);
    let nockpt = untraced(args, Mode::NoCkpt);
    let idle = untraced(args, Mode::Idle);

    let mut all: Vec<&Rep> = base.iter().collect();
    all.push(&traced);
    check_determinism(&all, &mut failures);
    failures.extend(traced.failures.iter().cloned());

    let mut values: BTreeMap<&'static str, f64> = traced.layers.clone();
    layers::probes(&mut values);
    values.insert("guestos.idle_ms_per_sim_s", per_sim_s(&idle));
    values.insert(
        "workloads.nockpt_ms_per_sim_s",
        per_sim_s(&nockpt) - per_sim_s(&idle),
    );
    values.insert(
        "checkpoint.delta_ms_per_sim_s",
        (base_ms - nockpt.host_ms) / base[0].sim_s,
    );
    values.insert(
        "trace_overhead_pct",
        100.0 * (traced.host_ms - base_ms) / base_ms,
    );
    // Dispatch alone, as a share of what an event costs in the run_for
    // windows: the most a faster scheduler could save there.
    if let (Some(probe), Some(per_event)) = (
        values.get("sim.probe.dispatch_ns"),
        values.get("sim.host_ns_per_event"),
    ) {
        values.insert("sim.est_share_pct", 100.0 * probe / per_event);
    }

    // A metric that is not defined on this workload reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        attempted: traced.attempted + 1,
        failures,
        metrics,
        fingerprint: traced.fingerprint,
        per_rep: base.iter().map(|r| (r.setup_s, per_sim_s(r))).collect(),
        op_samples: traced.op_sim_ms.len(),
        trace: Some(tracer),
    }
}
