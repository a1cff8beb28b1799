//! FIG7 — Four-node BitTorrent experiment (paper Fig 7).
//!
//! One seeder and three clients on a 100 Mbps LAN, all downloading a 3 GB
//! file initially present only on the seeder. Checkpointing starts 70 s
//! into the run, fires every 5 s for 100 s, then stops; the run continues
//! to 300 s. Regenerates the per-client throughput series (1 s bins, as
//! observable from each client's download progress) and checks: ~1 MB/s
//! per client, dips at checkpoints but an unchanged center line, and no
//! TCP disturbance.

use emulab::{ExperimentSpec, Testbed};
use guestos::prog::FileId;
use sim::{SimDuration, SimTime};
use sim::trace::Series;
use crate::{banner, row, write_csv};
use vmm::VmHost;
use workloads::BtPeer;

pub fn run() {
    banner("FIG7", "4-node BitTorrent on a 100 Mbps LAN, checkpoints 70–170 s");
    let mut tb = Testbed::new(7001, 8);
    let spec = ExperimentSpec::new("fig7")
        .node("seeder")
        .node("c1")
        .node("c2")
        .node("c3")
        .lan(
            &["seeder", "c1", "c2", "c3"],
            100_000_000,
            SimDuration::from_micros(50),
        );
    tb.swap_in(spec).unwrap();
    tb.run_for(SimDuration::from_secs(5));

    // 3 GB file in 128 KiB pieces.
    let npieces = (3u64 << 30) / (128 * 1024);
    let piece = 128 * 1024u64;
    let seeder_addr = tb.node_addr("fig7", "seeder");
    let clients = ["c1", "c2", "c3"];
    let tids: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut peers = vec![seeder_addr];
            for (j, o) in clients.iter().enumerate() {
                if j != i {
                    peers.push(tb.node_addr("fig7", o));
                }
            }
            (
                *c,
                tb.spawn(
                    "fig7",
                    c,
                    Box::new(BtPeer::leecher(6881, peers, npieces as u32, piece, FileId(1))),
                ),
            )
        })
        .collect();
    tb.spawn(
        "fig7",
        "seeder",
        Box::new(BtPeer::seeder(6881, npieces as u32, piece, FileId(1))),
    );

    // 70 s steady state, 100 s of 5 s checkpoints, 130 s tail = 300 s.
    let t0 = tb.now();
    tb.run_for(SimDuration::from_secs(70));
    // Baseline TCP counters before checkpointing: connection setup may
    // retry a SYN against a not-yet-listening peer, which is unrelated to
    // checkpoint transparency.
    let base: Vec<_> = clients
        .iter()
        .map(|c| tb.kernel("fig7", c, |k| k.net_totals()))
        .collect();
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(100));
    tb.stop_periodic_checkpoints();
    tb.run_for(SimDuration::from_secs(130));

    // Per-client 1 s-binned download throughput from progress samples.
    let mut csv = String::from("time_s,client,throughput_MBps\n");
    let mut rates = Vec::new();
    for (c, tid) in &tids {
        let progress = tb.kernel("fig7", c, |k| {
            k.prog(*tid)
                .unwrap()
                .as_any()
                .downcast_ref::<BtPeer>()
                .unwrap()
                .progress
                .clone()
        });
        let mut series = Series::new();
        let mut prev = 0u64;
        for &(t, bytes) in &progress {
            series.push(SimTime::from_nanos(t), (bytes - prev) as f64);
            prev = bytes;
        }
        let start = SimTime::from_nanos(progress.first().map(|&(t, _)| t).unwrap_or(0));
        let end = SimTime::from_nanos(progress.last().map(|&(t, _)| t).unwrap_or(1));
        let bins = series.binned_rate(start, end, SimDuration::from_secs(1));
        for &(t, rate) in &bins {
            csv.push_str(&format!("{:.1},{},{:.4}\n", t, c, rate / 1e6));
        }
        let total = progress.last().map(|&(_, b)| b).unwrap_or(0);
        let secs = (end - start).as_secs_f64();
        rates.push((c.to_string(), total as f64 / 1e6 / secs));
    }
    let path = write_csv("fig7_bittorrent.csv", &csv);

    let totals: Vec<_> = clients
        .iter()
        .map(|c| tb.kernel("fig7", c, |k| k.net_totals()))
        .collect();
    let host = tb.host_id("fig7", "seeder");
    let ckpts = tb
        .engine
        .component_ref::<VmHost>(host)
        .unwrap()
        .stats
        .checkpoints;

    println!("  run: 300 s, checkpoints at 70–170 s every 5 s ({ckpts} taken)");
    for (c, r) in &rates {
        row(
            &format!("client {c} mean throughput"),
            "~1 MB/s",
            &format!("{r:.2} MB/s"),
        );
    }
    let retx: u64 = totals
        .iter()
        .zip(base.iter())
        .map(|(t, b)| t.retransmissions - b.retransmissions)
        .sum();
    let timeouts: u64 = totals
        .iter()
        .zip(base.iter())
        .map(|(t, b)| t.timeouts - b.timeouts)
        .sum();
    row("retransmissions after steady state", "0", &retx.to_string());
    row("RTO timeouts after steady state", "0", &timeouts.to_string());
    let elapsed = (tb.now() - t0).as_secs_f64();
    println!("  simulated {elapsed:.0} s; series: {}", path.display());
}
