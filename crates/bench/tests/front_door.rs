//! The front door's contracts: the registry is the one list of
//! experiments (CI's table and DESIGN.md's index agree with it), a
//! rejected command line does no work, and `BenchFile` accepts the
//! committed `BENCH_*.json` while naming the entry a doctored copy breaks.

use std::process::{Command, Output};

use tcd_bench::benchfile::{BenchFile, EntryRule};
use tcd_bench::experiments::{bench_hotpath, bench_scale, bench_store, obsreport, REGISTRY};

const BENCH_FILES: [(BenchFile, EntryRule); 4] = [
    (bench_hotpath::FILE, bench_hotpath::entry_rule),
    (bench_store::FILE, bench_store::entry_rule),
    (bench_scale::FILE, bench_scale::entry_rule),
    (obsreport::FILE, obsreport::entry_rule),
];

fn tcd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tcd")).args(args).output().expect("spawn tcd")
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A new experiment lands in the registry, `tcd list`, CI's table and the
/// design index together, or this fails.
#[test]
fn registry_list_ci_table_and_design_index_agree() {
    let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 20, "twenty distinct experiments");

    let out = tcd(&["list"]);
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = listing.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(listed, REGISTRY.iter().map(|e| e.name).collect::<Vec<_>>());

    let (ci, design) = (repo_file(".github/workflows/ci.yml"), repo_file("DESIGN.md"));
    let table: Vec<&str> = ci
        .lines()
        .skip_while(|l| !l.contains("<<'TABLE'"))
        .skip(1)
        .take_while(|l| l.trim() != "TABLE")
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in &names {
        assert!(table.contains(name), "ci.yml's table never runs {name}");
        assert!(design.contains(&format!("`tcd {name}`")), "DESIGN.md §4 lacks `tcd {name}`");
    }
    for row in table {
        assert!(names.contains(&row), "ci.yml runs unregistered experiment {row}");
    }
}

#[test]
fn a_rejected_invocation_exits_2_and_leaves_the_bench_files_untouched() {
    let read_all = || BENCH_FILES.map(|(f, _)| std::fs::read(f.path).unwrap());
    let before = read_all();
    for args in [
        &["bench_store", "--smok"][..],
        &["bench_hotpath", "--label"],
        &["bench_scale", "--label="],
        &["obsreport", "--smoke", "extra"],
        &["fig4", "--smoke"],
        &["explore", "--iters=many"],
        &["modelcheck", "--nodes=9"],
        &["modelcheck", "--nodes=4"],
        &["bench_stor"],
        &[],
    ] {
        let out = tcd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} must not start running");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tcd"), "{args:?}");
    }
    assert_eq!(read_all(), before);
}

#[test]
fn committed_bench_files_pass_check_unmodified() {
    for (file, rule) in BENCH_FILES {
        file.check(rule).unwrap_or_else(|e| panic!("{e}"));
    }
    let scale = bench_scale::FILE.check(bench_scale::entry_rule).unwrap();
    bench_scale::scale_gate(scale.last().unwrap()).expect("committed scale gate");
}

#[test]
fn a_doctored_bench_file_fails_naming_the_entry() {
    let good = std::fs::read_to_string(bench_store::FILE.path).unwrap();
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCH_store.doctored.json");
    let file = BenchFile { path, ..bench_store::FILE };
    // `good` with its last `from` replaced by `to`, checked.
    let doctored = |from: &str, to: &str| -> String {
        let at = good.rfind(from).unwrap_or_else(|| panic!("no {from:?} to doctor"));
        std::fs::write(path, format!("{}{to}{}", &good[..at], &good[at + from.len()..])).unwrap();
        file.check(bench_store::entry_rule).expect_err("doctored file must fail")
    };
    for (from, to, why) in [
        ("\"tcd-bench-store-v1\"", "\"v0\"", "'schema' must be \"tcd-bench-store-v1\""),
        ("\"striped-content-hash\"", "\"\"", "entry 2: missing non-empty 'label'"),
        ("\"puts\":", "\"putz\":", "entry 2: sweep row 3 missing numeric 'puts'"),
        ("_shards\": 3.14", "_shards\": 1.9", "entry 2: speedup_4_shards 1.9 below the 2.0 floor"),
    ] {
        let e = doctored(from, to);
        assert!(e.contains(why), "{e}");
    }
    // append() re-validates before writing: a bad entry never lands.
    std::fs::write(path, &good).unwrap();
    let e = file.append("x", Vec::new(), bench_store::entry_rule).expect_err("bad entry");
    assert!(e.contains("entry 3: missing numeric 'speedup_4_shards'"), "{e}");
    assert_eq!(std::fs::read_to_string(path).unwrap(), good);
}
