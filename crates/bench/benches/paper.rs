//! Wall-clock benches: one scaled-down scenario per paper artifact.
//!
//! These measure the *simulator's* wall-clock cost of each experiment
//! class, and double as smoke tests that every figure's machinery runs
//! end-to-end. The full-scale regenerators are the `fig*`/`tab*`
//! experiments of the `tcd` binary
//! (`cargo run --release -p tcd-bench -- fig6` etc.).
//!
//! Plain self-timed harness (`harness = false`): each scenario runs a
//! short warm-up pass and then `ITERS` timed passes, reporting min/mean
//! wall-clock per pass. No external bench framework, so a cold offline
//! checkout builds without registry access.

use std::time::{Duration, Instant};

use cowstore::CowMode;
use emulab::{ExperimentSpec, Testbed};
use guestos::prog::FileId;
use sim::{SimDuration, SimTime};
use vmm::VmHost;
use workloads::{Bonnie, BtPeer, CpuLoop, IperfReceiver, IperfSender, UsleepLoop};

const ITERS: usize = 3;

/// Runs `f` once to warm up and `ITERS` timed passes; prints a row.
/// The closure returns an opaque "result" folded into a checksum so the
/// optimizer cannot discard the work.
fn bench<R: std::hash::Hash>(name: &str, mut f: impl FnMut() -> R) {
    use std::hash::{DefaultHasher, Hasher};
    let mut sink = DefaultHasher::new();
    std::hash::Hash::hash(&f(), &mut sink); // Warm-up.
    let mut times = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        std::hash::Hash::hash(&r, &mut sink);
    }
    let min = times.iter().min().copied().unwrap_or(Duration::ZERO);
    let mean = times.iter().sum::<Duration>() / ITERS as u32;
    println!(
        "{name:<32} min {:>9.3} ms   mean {:>9.3} ms   (checksum {:x})",
        min.as_secs_f64() * 1e3,
        mean.as_secs_f64() * 1e3,
        sink.finish()
    );
}

/// FIG4 (scaled): usleep loop for 3 s with one checkpoint.
fn fig4_usleep() -> u64 {
    let mut tb = Testbed::new(1, 4);
    tb.swap_in(ExperimentSpec::new("e").node("n")).unwrap();
    tb.spawn("e", "n", Box::new(UsleepLoop::new(10_000_000, 100_000)));
    tb.run_for(SimDuration::from_secs(2));
    tb.checkpoint_once();
    tb.run_for(SimDuration::from_secs(1));
    tb.kernel("e", "n", |k| k.jiffies())
}

/// FIG5 (scaled): CPU loop for 3 s with one checkpoint.
fn fig5_cpuloop() -> u64 {
    let mut tb = Testbed::new(2, 4);
    tb.swap_in(ExperimentSpec::new("e").node("n")).unwrap();
    tb.spawn("e", "n", Box::new(CpuLoop::paper_default(1000)));
    tb.run_for(SimDuration::from_secs(2));
    tb.checkpoint_once();
    tb.run_for(SimDuration::from_secs(1));
    tb.kernel("e", "n", |k| k.jiffies())
}

/// FIG6 (scaled): 3 s of gigabit iperf with one checkpoint.
fn fig6_iperf() -> u64 {
    let mut tb = Testbed::new(3, 8);
    let spec = ExperimentSpec::new("e")
        .node("a")
        .node("b")
        .link("a", "b", 1_000_000_000, SimDuration::from_micros(100), 0.0);
    tb.swap_in(spec).unwrap();
    let b_addr = tb.node_addr("e", "b");
    tb.spawn("e", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("e", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.checkpoint_once();
    tb.run_for(SimDuration::from_secs(1));
    tb.kernel("e", "b", |k| k.net_totals().bytes_delivered)
}

/// FIG7 (scaled): 20 s of a small BitTorrent swarm with one checkpoint.
fn fig7_bittorrent() -> u64 {
    let mut tb = Testbed::new(4, 8);
    let spec = ExperimentSpec::new("e")
        .node("s")
        .node("c1")
        .node("c2")
        .lan(&["s", "c1", "c2"], 100_000_000, SimDuration::from_micros(50));
    tb.swap_in(spec).unwrap();
    let s_addr = tb.node_addr("e", "s");
    tb.spawn(
        "e",
        "c1",
        Box::new(BtPeer::leecher(6881, vec![s_addr], 50, 128 * 1024, FileId(1))),
    );
    tb.spawn(
        "e",
        "c2",
        Box::new(BtPeer::leecher(6881, vec![s_addr], 50, 128 * 1024, FileId(1))),
    );
    tb.spawn("e", "s", Box::new(BtPeer::seeder(6881, 50, 128 * 1024, FileId(1))));
    tb.run_for(SimDuration::from_secs(10));
    tb.checkpoint_once();
    tb.run_for(SimDuration::from_secs(10));
    tb.kernel("e", "c1", |k| k.net_totals().bytes_delivered)
}

/// FIG8 (scaled): one 32 MB Bonnie block-write phase per storage mode.
fn fig8_bonnie(mode: CowMode) -> usize {
    let (mut e, host) = tcd_bench::single_host(5, mode, false);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    let tid = e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(Bonnie::new(FileId(7), 32 << 20)))
    });
    e.run_for(SimDuration::from_secs(120));
    e.component_ref::<VmHost>(host)
        .unwrap()
        .kernel()
        .prog(tid)
        .unwrap()
        .as_any()
        .downcast_ref::<Bonnie>()
        .unwrap()
        .results
        .len()
}

/// FIG9 (scaled): 16 s of file copy with a lazy copy-in mirror.
fn fig9_transfer() -> u64 {
    use cowstore::{BlockData, DeltaMap, Direction, MirrorTransfer};
    use vmm::MirrorConfig;
    use workloads::FileCopy;
    let (mut e, host) = tcd_bench::single_host(6, CowMode::Branch, false);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    e.with_component::<VmHost, _>(host, |h, ctx| {
        let mut agg = DeltaMap::new();
        for i in 0..8192u64 {
            agg.put(1_000_000 + i, BlockData::Opaque(i));
        }
        let blocks = agg.vbas();
        h.store_mut().install_aggregate(agg);
        let t = MirrorTransfer::new(Direction::CopyIn, blocks, 4096, 60_000_000);
        h.attach_mirror(
            ctx,
            t,
            MirrorConfig {
                latency: SimDuration::from_micros(200),
                net_bps: 60_000_000,
                notify: None,
                idle_priority: false,
            },
        );
    });
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut()
            .spawn(Box::new(FileCopy::new(FileId(1), FileId(2), 64 << 20)))
    });
    e.run_for(SimDuration::from_secs(16));
    e.component_ref::<VmHost>(host).unwrap().stats.block_batches
}

/// TAB-SWAP (scaled): one stateful swap cycle with a small session.
fn tab_swap_cycle() -> (u64, u64) {
    use workloads::FileWriter;
    let mut tb = Testbed::new(7, 4);
    tb.swap_in(ExperimentSpec::new("e").node("n")).unwrap();
    tb.spawn("e", "n", Box::new(FileWriter::new(FileId(1), 32 << 20)));
    tb.run_for(SimDuration::from_secs(20));
    let out = tb.swap_out_stateful("e");
    tb.run_for(SimDuration::from_secs(5));
    let rep = tb.swap_in_stateful("e", true);
    (out.total.as_nanos(), rep.total.as_nanos())
}

/// TAB-FBE (scaled): a small build + clean with elimination.
fn tab_freeblock() -> (usize, u64) {
    use workloads::KernelBuild;
    let (mut e, host) = tcd_bench::single_host(8, CowMode::Branch, false);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut()
            .spawn(Box::new(KernelBuild::new(100, 128, 256 * 1024, 4 << 20)))
    });
    e.run_for(SimDuration::from_secs(90));
    let h = e.component_ref::<VmHost>(host).unwrap();
    let (f, removed) = h.store().filtered_delta();
    (f.len(), removed)
}

fn main() {
    println!("paper scenario benches ({ITERS} iters each, scaled-down inputs)\n");
    bench("fig4_usleep_3s_1ckpt", fig4_usleep);
    bench("fig5_cpuloop_3s_1ckpt", fig5_cpuloop);
    bench("fig6_iperf_3s_1ckpt", fig6_iperf);
    bench("fig7_bt_20s_1ckpt", fig7_bittorrent);
    bench("fig8_bonnie_32mb/base", || fig8_bonnie(CowMode::Base));
    bench("fig8_bonnie_32mb/branch_orig", || {
        fig8_bonnie(CowMode::BranchOrig { chunk_blocks: 128 })
    });
    bench("fig8_bonnie_32mb/branch", || fig8_bonnie(CowMode::Branch));
    bench("fig9_copy_16s_lazy_mirror", fig9_transfer);
    bench("tab_swap_one_cycle_32mb", tab_swap_cycle);
    bench("tab_freeblock_32mb", tab_freeblock);
}
