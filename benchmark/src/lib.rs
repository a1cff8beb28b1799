//! The repo benchmark: four `Testbed` workloads, six end-to-end metrics
//! and a per-layer traced run. `README.md` beside this package defines
//! every workload and metric; `BENCHMARK.json` at the repo root declares
//! them for the driver.

pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod scripts;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::process::Command;

/// Where trace and result files go: `out/` inside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header every output carries: enough to tell which inputs, which
/// commit, which toolchain and which machine a number came from. `count`
/// is `("reps", n)` on a workload's output and `("runs", k)` on a result
/// file.
pub fn header_json(seed: u64, count: (&str, usize)) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"seed\": {seed}, \"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, {}: {}}}",
        json::quote(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json::quote(&command_line("rustc", &["-V"])),
        json::quote(&cpu_model),
        json::quote(count.0),
        count.1,
    )
}
