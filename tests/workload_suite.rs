//! Cross-crate integration: every evaluation workload running on the full
//! testbed stack (short configurations, and Fig 7's swarm at paper scale;
//! `tcd` runs the paper-scale versions of the rest).

use emulab_checkpoint::emulab::{ExperimentSpec, Testbed};
use emulab_checkpoint::guestos::prog::FileId;
use emulab_checkpoint::guestos::Tid;
use emulab_checkpoint::sim::stats::fnv1a;
use emulab_checkpoint::sim::telemetry::names;
use emulab_checkpoint::sim::{audit_transparency, SimDuration};
use emulab_checkpoint::vmm::VmHost;
use emulab_checkpoint::workloads::{Bonnie, BtPeer, FileCopy, KernelBuild};

const BT_CLIENTS: [&str; 3] = ["c1", "c2", "c3"];
const BT_PIECE: u64 = 128 * 1024;

/// Fig 7's topology: a seeder and three leechers on a 100 Mbps LAN,
/// settled for 5 s, then sharing `npieces` × 128 KiB. Returns the testbed
/// and each leecher's thread.
fn bt_swarm(seed: u64, npieces: u32) -> (Testbed, Vec<(&'static str, Tid)>) {
    let mut tb = Testbed::new(seed, 8);
    let spec = ExperimentSpec::new("bt")
        .node("seeder")
        .node("c1")
        .node("c2")
        .node("c3")
        .lan(
            &["seeder", "c1", "c2", "c3"],
            100_000_000,
            SimDuration::from_micros(50),
        );
    tb.swap_in(spec).expect("swap-in");
    tb.run_for(SimDuration::from_secs(5));

    let seeder_addr = tb.node_addr("bt", "seeder");
    let tids = BT_CLIENTS
        .iter()
        .enumerate()
        .map(|(i, c)| {
            // Clients know the seeder and each other (static tracker).
            let mut peers = vec![seeder_addr];
            for (j, o) in BT_CLIENTS.iter().enumerate() {
                if j != i {
                    peers.push(tb.node_addr("bt", o));
                }
            }
            let peer = BtPeer::leecher(6881, peers, npieces, BT_PIECE, FileId(1));
            (*c, tb.spawn("bt", c, Box::new(peer)))
        })
        .collect();
    tb.spawn(
        "bt",
        "seeder",
        Box::new(BtPeer::seeder(6881, npieces, BT_PIECE, FileId(1))),
    );
    (tb, tids)
}

/// Reads one leecher's `BtPeer`.
fn bt_peer<R>(tb: &Testbed, c: &str, tid: Tid, f: impl FnOnce(&BtPeer) -> R) -> R {
    tb.kernel("bt", c, |k| {
        let p = k.prog(tid).expect("leecher thread");
        f(p.as_any().downcast_ref::<BtPeer>().expect("BtPeer"))
    })
}

/// Four-node BitTorrent swarm on a 100 Mbps LAN (the Fig 7 topology).
#[test]
fn bittorrent_swarm_distributes_pieces_over_the_lan() {
    // 200 × 128 KiB = 25 MB file (short run).
    let (mut tb, tids) = bt_swarm(81, 200);
    tb.run_for(SimDuration::from_secs(60));

    let mut total_pieces = 0;
    for &(c, tid) in &tids {
        let got = bt_peer(&tb, c, tid, |p| p.pieces());
        assert!(got > 20, "client {c} only has {got} pieces after 60 s");
        total_pieces += got;
    }
    // Peer-to-peer exchange happened: clients served each other.
    let clients_served: u64 = tids
        .iter()
        .map(|&(c, tid)| bt_peer(&tb, c, tid, |p| p.served))
        .sum();
    assert!(
        clients_served > 0,
        "leechers never served each other ({total_pieces} pieces total)"
    );
}

/// Fig 7 at the paper's own scale — a 3 GB file in 24,576 pieces — under a
/// 5 s checkpoint round: the swarm advances, the round commits, nobody
/// notices, and the run repeats exactly. A per-poll cost that grows with
/// the piece count makes this the slowest test here by a wide margin.
#[test]
fn paper_scale_swarm_checkpoints_transparently_and_repeats() {
    let run = || {
        let (mut tb, tids) = bt_swarm(7, ((3u64 << 30) / BT_PIECE) as u32);
        tb.run_for(SimDuration::from_secs(10));
        let disturbed = |tb: &Testbed| -> u64 {
            let per_node = |c: &&str| {
                let t = tb.kernel("bt", c, |k| k.net_totals());
                t.retransmissions + t.timeouts
            };
            BT_CLIENTS.iter().chain(&["seeder"]).map(per_node).sum()
        };
        let bytes = |tb: &Testbed| -> Vec<u64> {
            let of = |&(c, tid): &(&str, Tid)| bt_peer(tb, c, tid, |p| p.downloaded_bytes());
            tids.iter().map(of).collect()
        };
        let (disturbed0, bytes0) = (disturbed(&tb), bytes(&tb));

        tb.start_periodic_checkpoints(SimDuration::from_secs(5));
        tb.run_for(SimDuration::from_millis(5_500));
        tb.stop_periodic_checkpoints();
        for (before, after) in bytes0.iter().zip(bytes(&tb)) {
            assert!(after > *before, "a leecher stalled: {before} -> {after} bytes");
        }
        let count = |name| tb.telemetry().counter_value(name).unwrap_or(0);
        assert_eq!(count(names::COORD_EPOCHS_COMMITTED), 1);
        assert_eq!(count(names::COORD_EPOCHS_ABORTED) + count(names::COORD_EPOCHS_DEGRADED), 0);
        assert_eq!(disturbed(&tb), disturbed0, "TCP noticed the checkpoint");
        let report = audit_transparency(tb.telemetry());
        assert!(report.firewall_cycles >= 1 && report.passed(), "{}", report.verdict());
        fnv1a(tb.telemetry().to_csv().as_bytes())
    };
    assert_eq!(run(), run(), "same seed, same telemetry");
}

/// Bonnie phases complete and block I/O beats the cache-defeating size.
#[test]
fn bonnie_reports_five_phases_with_sane_ordering() {
    let mut tb = Testbed::new(82, 4);
    tb.swap_in(ExperimentSpec::new("bon").node("n")).unwrap();
    // The paper sizes the file at twice the guest's memory so the page
    // cache cannot absorb it: 512 MB against the ~200 MB cache.
    let tid = tb.spawn("bon", "n", Box::new(Bonnie::new(FileId(9), 512 << 20)));
    tb.run_for(SimDuration::from_secs(600));
    let results = tb.kernel("bon", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<Bonnie>()
            .unwrap()
            .results
            .clone()
    });
    assert_eq!(results.len(), 5, "all phases completed: {results:?}");
    for r in &results {
        let mbs = r.mb_per_sec();
        assert!(
            mbs > 1.0 && mbs < 500.0,
            "{}: {mbs} MB/s out of range",
            r.phase.label()
        );
    }
}

/// File copy completes and reports progress samples.
#[test]
fn filecopy_completes_with_progress_trace() {
    let mut tb = Testbed::new(83, 4);
    tb.swap_in(ExperimentSpec::new("cp").node("n")).unwrap();
    let tid = tb.spawn(
        "cp",
        "n",
        Box::new(FileCopy::new(FileId(1), FileId(2), 64 << 20)),
    );
    tb.run_for(SimDuration::from_secs(300));
    let (done, samples, elapsed) = tb.kernel("cp", "n", |k| {
        let p = k
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<FileCopy>()
            .unwrap();
        (p.done(), p.progress.len(), p.elapsed_ns())
    });
    assert!(done, "copy did not finish");
    assert!(samples > 50, "only {samples} progress samples");
    let secs = elapsed.unwrap() as f64 / 1e9;
    // 64 MB read + 64 MB write on a ~70 MB/s disk: single-digit seconds
    // to a couple of minutes depending on cache interplay.
    assert!(secs > 1.0 && secs < 200.0, "copy took {secs}s");
}

/// make + make clean leaves a small live set; the snoop sees the frees.
#[test]
fn kernel_build_frees_blocks_visible_to_the_snoop() {
    let mut tb = Testbed::new(84, 4);
    tb.swap_in(ExperimentSpec::new("kb").node("n")).unwrap();
    let tid = tb.spawn(
        "kb",
        "n",
        // 128 files × 256 KiB = 32 MB build, keep 4 MB.
        Box::new(KernelBuild::new(100, 128, 256 * 1024, 4 << 20)),
    );
    tb.run_for(SimDuration::from_secs(120));
    let finished = tb.kernel("kb", "n", |k| {
        k.prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<KernelBuild>()
            .unwrap()
            .finished
    });
    assert!(finished, "build+clean did not finish");

    let host = tb.host_id("kb", "n");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    let (filtered, eliminated) = h.store().filtered_delta();
    let full = h.store().current_delta().len() as u64;
    assert!(
        eliminated > full / 2,
        "elimination dropped {eliminated} of {full} blocks — expected most"
    );
    // The kept delta is dominated by the retained files + metadata.
    let kept_bytes = filtered.byte_size(4096);
    assert!(
        kept_bytes < 12 << 20,
        "kept {} MB — elimination ineffective",
        kept_bytes >> 20
    );
}

/// Determinism across the whole stack: same seed, same world.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut tb = Testbed::new(seed, 4);
        tb.swap_in(ExperimentSpec::new("d").node("n")).unwrap();
        let tid = tb.spawn(
            "d",
            "n",
            Box::new(FileCopy::new(FileId(1), FileId(2), 8 << 20)),
        );
        tb.start_periodic_checkpoints(SimDuration::from_secs(3));
        tb.run_for(SimDuration::from_secs(30));
        let fp = tb.kernel("d", "n", |k| k.state_fingerprint());
        let done = tb.kernel("d", "n", |k| {
            k.prog(tid)
                .unwrap()
                .as_any()
                .downcast_ref::<FileCopy>()
                .unwrap()
                .done()
        });
        (fp, done, tb.now())
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).0, run(6).0);
}

/// The sharded side's byte pin, as `results/*.csv` are the plain side's:
/// the 1,000-node, 4-epoch star of `tcd tab_scale` (built as it builds
/// it) must dispatch the events and export the telemetry whose
/// fingerprint `results/tab_scale.csv` records, on one shard and on four.
#[test]
fn scale_star_reproduces_the_committed_fingerprint() {
    use emulab_checkpoint::emulab::ScalePlan;

    let committed = include_str!("../results/tab_scale.csv");
    let mut lines = committed.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let header = lines.next().expect("a header");
    let row = lines.find(|r| r[0] == "1000").expect("a 1,000-node row");
    let column = |name: &str| row[header.iter().position(|h| *h == name).expect(name)];
    let (events, want): (u64, _) = (column("events").parse().unwrap(), column("fingerprint"));

    let spec = ExperimentSpec::star("bench", 1000, 100_000_000, SimDuration::from_millis(5));
    let plan = ScalePlan::from_spec(&spec, 1000 / 62).expect("star plans");
    for shards in [1, 4] {
        let mut lab = plan.build_lab(42, shards, 4, SimDuration::from_millis(200));
        lab.run();
        lab.check_invariants().expect("every round commits, the shadow is clean");
        let o = lab.outcome();
        assert_eq!(o.events, events, "S = {shards}");
        assert_eq!(format!("{:016x}", o.fingerprint_metrics), want, "S = {shards}");
    }
}
