//! A realistic distributed application under checkpoints: the paper's
//! four-node BitTorrent experiment (Fig 7), file size and all.
//!
//! One seeder and three leechers cooperate over a 100 Mbps LAN; the whole
//! closed system — all four guests plus the network — is checkpointed
//! repeatedly mid-swarm, and the swarm never notices.
//!
//! ```sh
//! cargo run --release --example bittorrent_checkpoint
//! ```

use emulab_checkpoint::emulab::{ExperimentSpec, Testbed};
use emulab_checkpoint::guestos::prog::FileId;
use emulab_checkpoint::sim::SimDuration;
use emulab_checkpoint::workloads::BtPeer;

fn main() {
    let mut tb = Testbed::new(1337, 8);
    let spec = ExperimentSpec::new("swarm")
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

    // Fig 7's 3 GB file in 128 KiB pieces, initially only on the seeder.
    // The static tracker is the configured peer list.
    let piece = 128 * 1024u64;
    let npieces = ((3u64 << 30) / piece) as u32;
    let seeder_addr = tb.node_addr("swarm", "seeder");
    let clients = ["c1", "c2", "c3"];
    let tids: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut peers = vec![seeder_addr];
            for (j, o) in clients.iter().enumerate() {
                if j != i {
                    peers.push(tb.node_addr("swarm", o));
                }
            }
            (
                *c,
                tb.spawn(
                    "swarm",
                    c,
                    Box::new(BtPeer::leecher(6881, peers, npieces, piece, FileId(1))),
                ),
            )
        })
        .collect();
    tb.spawn(
        "swarm",
        "seeder",
        Box::new(BtPeer::seeder(6881, npieces, piece, FileId(1))),
    );

    // Warm up, then checkpoint every 5 s while the swarm runs. (During
    // startup a SYN can race a peer that has not called listen() yet and
    // be retried — ordinary TCP life, not a checkpoint artifact — so the
    // disturbance counters baseline here.)
    tb.run_for(SimDuration::from_secs(20));
    let retx_baseline: u64 = clients
        .iter()
        .map(|c| tb.kernel("swarm", c, |k| k.net_totals().retransmissions))
        .sum();
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    for round in 1..=6 {
        tb.run_for(SimDuration::from_secs(10));
        print!("t+{:>3}s:", 20 + round * 10);
        for (c, tid) in &tids {
            let (pieces, served) = tb.kernel("swarm", c, |k| {
                let p = k
                    .prog(*tid)
                    .unwrap()
                    .as_any()
                    .downcast_ref::<BtPeer>()
                    .unwrap();
                (p.pieces(), p.served)
            });
            print!("  {c}: {pieces} pieces ({served} served)");
        }
        println!();
    }
    tb.stop_periodic_checkpoints();

    // Leechers exchanged pieces among themselves (not just seeder→client),
    // and the TCP mesh survived every checkpoint untouched.
    let mut p2p_served = 0;
    let mut retx = 0;
    for (c, tid) in &tids {
        p2p_served += tb.kernel("swarm", c, |k| {
            k.prog(*tid)
                .unwrap()
                .as_any()
                .downcast_ref::<BtPeer>()
                .unwrap()
                .served
        });
        retx += tb.kernel("swarm", c, |k| k.net_totals().retransmissions);
    }
    println!("\nleecher-to-leecher pieces served: {p2p_served}");
    println!(
        "retransmissions during the checkpointed window: {}",
        retx - retx_baseline
    );
    assert!(p2p_served > 0, "no peer-to-peer exchange happened");
    assert_eq!(retx, retx_baseline, "checkpoints disturbed the swarm");
}
