//! FIG8 — Bonnie++ on the copy-on-write storage configurations
//! (paper Fig 8).
//!
//! The same 512 MB Bonnie phases (twice the guest's memory, defeating the
//! page cache) against three storage configurations:
//!
//! - **Base**: a raw disk partition;
//! - **Branch-Orig**: original LVM-snapshot behaviour with
//!   read-before-write on every first chunk touch;
//! - **Branch**: the paper's redo-log branching store.
//!
//! Each write phase runs against a *freshly sealed branch* (the previous
//! delta merged into the aggregate), matching the paper's setup where
//! Bonnie exercises a new snapshot branch — otherwise the first phase
//! would absorb every COW cost and the modes would look identical.
//!
//! Shape checks: Branch block writes within ~17% of Base on a fresh disk
//! (→ ~2% aged); Branch-Orig block writes ~74% below Branch; character
//! phases CPU-bound and mode-independent.

use cowstore::CowMode;
use guestos::prog::FileId;
use sim::{SimDuration, SimTime};
use crate::{banner, row, single_host, write_csv};
use vmm::VmHost;
use workloads::{Bonnie, BonniePhase, FileWriter, PhaseResult};

const FILE_BYTES: u64 = 512 << 20;

/// Runs one phase on a fresh rig: prep the file (untimed) unless the phase
/// itself creates it, seal the branch, then measure.
fn run_phase(seed: u64, mode: CowMode, aged: bool, phase: BonniePhase) -> PhaseResult {
    let (mut e, host) = single_host(seed, mode, aged);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    if phase != BonniePhase::CharWrite {
        // Prep: build the file, then seal so the measured phase pays the
        // branch's COW costs itself.
        let prep = e.with_component::<VmHost, _>(host, |h, _| {
            h.kernel_mut()
                .spawn(Box::new(FileWriter::new(FileId(7), FILE_BYTES)))
        });
        for _ in 0..40 {
            e.run_for(SimDuration::from_secs(15));
            let done = e
                .component_ref::<VmHost>(host)
                .unwrap()
                .kernel()
                .prog(prep)
                .unwrap()
                .as_any()
                .downcast_ref::<FileWriter>()
                .unwrap()
                .finished;
            if done {
                break;
            }
        }
        e.with_component::<VmHost, _>(host, |h, ctx| {
            let now = ctx.now();
            let _ = h.store_mut().seal_branch(now);
        });
    }

    let tid = e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut()
            .spawn(Box::new(Bonnie::new(FileId(7), FILE_BYTES).with_phases(&[phase])))
    });
    for _ in 0..60 {
        e.run_for(SimDuration::from_secs(15));
        let done = e
            .component_ref::<VmHost>(host)
            .unwrap()
            .kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<Bonnie>()
            .unwrap()
            .done();
        if done {
            break;
        }
    }
    e.component_ref::<VmHost>(host)
        .unwrap()
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<Bonnie>()
        .unwrap()
        .results[0]
}

pub fn run() {
    banner("FIG8", "Bonnie++ (512 MB) on Base / Branch-Orig / Branch storage");
    let configs: [(&str, CowMode, bool); 4] = [
        ("Base", CowMode::Base, false),
        ("Branch-Orig", CowMode::BranchOrig { chunk_blocks: 128 }, false),
        ("Branch", CowMode::Branch, false),
        ("Branch-aged", CowMode::Branch, true),
    ];
    let mut table: Vec<(&str, Vec<PhaseResult>)> = Vec::new();
    let mut csv = String::from("config,phase,throughput_MBps\n");
    for (name, mode, aged) in configs {
        eprintln!("[fig8] running {name}...");
        let mut results = Vec::new();
        for phase in BonniePhase::ALL {
            let r = run_phase(8001, mode, aged, phase);
            csv.push_str(&format!("{},{},{:.2}\n", name, r.phase.label(), r.mb_per_sec()));
            results.push(r);
        }
        table.push((name, results));
    }
    let path = write_csv("fig8_bonnie.csv", &csv);

    let mbs = |cfg: usize, phase: BonniePhase| -> f64 {
        table[cfg]
            .1
            .iter()
            .find(|r| r.phase == phase)
            .map(|r| r.mb_per_sec())
            .unwrap_or(0.0)
    };

    println!(
        "\n  {:<18} {:>10} {:>13} {:>10} {:>12}",
        "phase", "Base", "Branch-Orig", "Branch", "Branch-aged"
    );
    for phase in BonniePhase::ALL {
        println!(
            "  {:<18} {:>10.1} {:>13.1} {:>10.1} {:>12.1}",
            phase.label(),
            mbs(0, phase),
            mbs(1, phase),
            mbs(2, phase),
            mbs(3, phase),
        );
    }
    println!();

    let base_w = mbs(0, BonniePhase::BlockWrite);
    let orig_w = mbs(1, BonniePhase::BlockWrite);
    let branch_w = mbs(2, BonniePhase::BlockWrite);
    let aged_w = mbs(3, BonniePhase::BlockWrite);

    row(
        "Branch block-write overhead vs Base (fresh)",
        "~17%",
        &format!("{:.0}%", (1.0 - branch_w / base_w) * 100.0),
    );
    row(
        "Branch block-write overhead vs Base (aged)",
        "~2%",
        &format!("{:.0}%", (1.0 - aged_w / base_w) * 100.0),
    );
    row(
        "Branch-Orig block writes vs Branch",
        "74% slower",
        &format!("{:.0}% slower", (1.0 - orig_w / branch_w) * 100.0),
    );
    let base_cw = mbs(0, BonniePhase::CharWrite);
    let branch_cw = mbs(2, BonniePhase::CharWrite);
    row(
        "character phases across configs",
        "similar (CPU-bound)",
        &format!("{:.0}% apart", ((base_cw - branch_cw) / base_cw * 100.0).abs()),
    );
    println!("  table: {}", path.display());
}
