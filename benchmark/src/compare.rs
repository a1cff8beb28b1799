//! `compare <a.json> <b.json>`: applies the declared bounds to two result
//! files written by `run`, `a` being the base.
//!
//! One row per (metric, workload). Host-clock metrics compare medians
//! against the bound and are `unresolved` when either side's own spread
//! (quartile distance over median) is wider than the bound. Metrics that
//! repeat exactly for a seed — everything on the simulated clock, and
//! `sim.events` — must be identical to be `same`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::scripts::WORKLOADS;
use crate::stats::quartiles;

/// `(workload, metric) → one value per run`, plus the fingerprints seen.
struct ResultSet {
    seed: f64,
    values: BTreeMap<(String, String), Vec<f64>>,
    fingerprints: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = doc
        .get("header")
        .and_then(|h| h.get("seed"))
        .and_then(Json::as_f64);
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    let mut set = ResultSet {
        seed: seed.ok_or(format!("{path}: no header seed"))?,
        values: BTreeMap::new(),
        fingerprints: BTreeMap::new(),
    };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{path}: a {workload} run failed its checks; not comparable"
            ));
        }
        if let Some(fp) = run.get("sim_fingerprint").and_then(Json::as_str) {
            set.fingerprints
                .entry(workload.to_string())
                .or_default()
                .push(fp.to_string());
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric {name} without value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// Quartile distance as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let (qa, qb) = (quartiles(a), quartiles(b));
    if m.exact() && a.iter().chain(b).all(|v| *v == a[0]) {
        return "same";
    }
    let Some(bound) = m.bound else {
        // Per-layer metrics carry no bound: exact ones must repeat, the
        // rest are reported only.
        return if m.exact() { "differs" } else { "-" };
    };
    if !m.exact() && spread(qa).max(spread(qb)) > bound {
        return "unresolved";
    }
    let worse = match m.better {
        Better::Lower => qb[1] > qa[1] * (1.0 + bound),
        Better::Higher => qb[1] < qa[1] * (1.0 - bound),
    };
    if worse {
        "worse"
    } else {
        "same"
    }
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "base a = {a_path} (seed {}), b = {b_path} (seed {})",
        a.seed, b.seed
    );
    println!(
        "{:<12} {:<38} {:>38} {:>38} {:>9} {:>7}  verdict",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "b/a", "bound"
    );
    let mut bad = 0;
    // Workloads and metrics in declaration order, end-to-end first.
    for workload in WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = (workload.to_string(), m.name.to_string());
            let (av, bv) = match (a.values.get(&key), b.values.get(&key)) {
                (Some(av), Some(bv)) => (av, bv),
                (None, None) => continue,
                _ => {
                    println!("{workload:<12} {:<38} in one file only", m.name);
                    bad += 1;
                    continue;
                }
            };
            // Not defined on this workload.
            if m.bound.is_none() && av.iter().chain(bv).all(|v| *v == 0.0) {
                continue;
            }
            let (qa, qb) = (quartiles(av), quartiles(bv));
            let v = if a.seed != b.seed && m.exact() {
                "-"
            } else {
                verdict(m, av, bv)
            };
            if matches!(v, "worse" | "unresolved" | "differs") {
                bad += 1;
            }
            let cell = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            let ratio = if qa[1] == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", qb[1] / qa[1])
            };
            let bound = m
                .bound
                .map_or("-".to_string(), |x| format!("{:.0}%", x * 100.0));
            println!(
                "{workload:<12} {:<38} {:>38} {:>38} {ratio:>9} {bound:>7}  {v}",
                m.name,
                cell(qa),
                cell(qb)
            );
        }
    }
    if a.seed == b.seed {
        for (workload, fa) in &a.fingerprints {
            let fb = b
                .fingerprints
                .get(workload)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let same = fa.iter().chain(fb).all(|f| *f == fa[0]) && !fb.is_empty();
            println!(
                "{workload:<12} sim_fingerprint {}",
                if same { "same" } else { "differs" }
            );
            bad += usize::from(!same);
        }
    }
    if bad == 0 {
        println!("no metric is worse, unresolved or different");
        ExitCode::SUCCESS
    } else {
        println!("{bad} rows are worse, unresolved or different");
        ExitCode::FAILURE
    }
}
