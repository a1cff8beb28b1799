//! The front door's contracts: the registry is the one list of
//! experiments (CI's table and DESIGN.md's index agree with it), and a
//! rejected command line does no work.

use std::process::{Command, Output};

use tcd_bench::experiments::REGISTRY;

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
    assert_eq!(names.len(), 19, "nineteen distinct experiments");

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
fn a_rejected_invocation_exits_2_before_running() {
    for args in [
        &["tab_store", "--smoke"][..],
        &["tab_scale", "--check"],
        &["tab_store", "--smok"],
        &["tab_scale", "--label="],
        &["tab_critpath", "--smoke", "extra"],
        &["fig4", "--smoke"],
        &["explore", "--root-seed"],
        &["explore", "--iters=many"],
        &["modelcheck", "--nodes=9"],
        &["modelcheck", "--nodes=4"],
        &["tab_stor"],
        &[],
    ] {
        let out = tcd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} must not start running");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tcd"), "{args:?}");
    }
}
