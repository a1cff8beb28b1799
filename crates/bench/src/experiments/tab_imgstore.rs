//! TAB-IMGSTORE — checkpoint image store dedup ratio vs snapshot depth.
//!
//! Not a paper table: instruments the content-addressed image store that
//! backs time travel (§6) and stateful swapping (§5). Two workloads run
//! under a deepening snapshot chain — a two-node BitTorrent transfer and
//! a single-node kernel-build-style file churn — and at each depth the
//! store reports logical bytes (sum of all snapshot images), physical
//! bytes (unique chunks actually stored), and the resulting dedup ratio.
//! The expectation mirrors the paper's branching storage argument: a
//! child snapshot physically costs only what changed since its parent,
//! so the ratio grows with depth (> 1.5x by depth 8).

use emulab::{ExperimentSpec, Testbed};
use guestos::prog::FileId;
use sim::SimDuration;
use crate::{banner, row, write_csv};
use workloads::{BtPeer, KernelBuild};

/// Snapshots `exp` to depth 8 with `gap` of execution between snapshots;
/// returns (depth, logical, physical, ratio) per level and prints rows.
fn chain(tb: &mut Testbed, exp: &str, gap: SimDuration, csv: &mut String) -> f64 {
    let mut last_ratio = 0.0;
    for depth in 1..=8u32 {
        tb.snapshot(exp, &format!("d{depth}"));
        let st = tb.experiment(exp).tt.stats();
        println!(
            "  depth {:>2}  logical {:>7.1} MiB  physical {:>7.1} MiB  ratio {:.2}x  shared chunks {}",
            depth,
            st.logical_bytes as f64 / (1 << 20) as f64,
            st.physical_bytes as f64 / (1 << 20) as f64,
            st.dedup_ratio,
            st.chunks_shared,
        );
        csv.push_str(&format!(
            "{exp},{depth},{},{},{:.4}\n",
            st.logical_bytes, st.physical_bytes, st.dedup_ratio
        ));
        last_ratio = st.dedup_ratio;
        tb.run_for(gap);
    }
    last_ratio
}

pub fn run() {
    banner(
        "TAB-IMGSTORE",
        "image-store dedup ratio vs snapshot tree depth",
    );
    let mut csv = String::from("workload,depth,logical_bytes,physical_bytes,dedup_ratio\n");

    // Workload 1: BitTorrent seeder + leecher on a 100 Mbps LAN, 16 MiB
    // file in 128 KiB pieces, snapshots every 2 s of transfer.
    println!("\nBitTorrent (2 nodes, 100 Mbps LAN, 16 MiB in 128 KiB pieces):");
    let mut tb = Testbed::new(11_001, 8);
    let spec = ExperimentSpec::new("bt")
        .node("seeder")
        .node("leecher")
        .lan(&["seeder", "leecher"], 100_000_000, SimDuration::from_micros(50));
    tb.swap_in(spec).unwrap();
    tb.run_for(SimDuration::from_secs(5));
    let npieces = 128u32;
    let piece = 128 * 1024u64;
    let seeder_addr = tb.node_addr("bt", "seeder");
    tb.spawn(
        "bt",
        "seeder",
        Box::new(BtPeer::seeder(6881, npieces, piece, FileId(1))),
    );
    tb.spawn(
        "bt",
        "leecher",
        Box::new(BtPeer::leecher(
            6881,
            vec![seeder_addr],
            npieces,
            piece,
            FileId(1),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));
    let bt_ratio = chain(&mut tb, "bt", SimDuration::from_secs(2), &mut csv);

    // Workload 2: kernel-build-style churn — many small files created and
    // rewritten on one node, snapshots every 5 s.
    println!("\nKernel build (1 node, 4000 files x 256 KiB):");
    let mut tb = Testbed::new(11_002, 4);
    tb.swap_in(ExperimentSpec::new("kb").node("n")).unwrap();
    tb.run_for(SimDuration::from_secs(5));
    tb.spawn(
        "kb",
        "n",
        Box::new(KernelBuild::new(9000, 4000, 256 * 1024, 8 << 20)),
    );
    tb.run_for(SimDuration::from_secs(2));
    let kb_ratio = chain(&mut tb, "kb", SimDuration::from_secs(5), &mut csv);

    println!();
    row(
        "BitTorrent dedup ratio @ depth 8",
        "> 1.5x",
        &format!("{bt_ratio:.2}x"),
    );
    row(
        "kernel-build dedup ratio @ depth 8",
        "> 1.5x",
        &format!("{kb_ratio:.2}x"),
    );
    let path = write_csv("tab_imgstore.csv", &csv);
    println!("csv: {}", path.display());
}
