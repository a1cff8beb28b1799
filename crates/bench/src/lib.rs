//! The experiment harness behind the `tcd` binary.
//!
//! Each `fig*`/`tab*` experiment reproduces one artifact of the paper's
//! §7: it assembles the experiment on the full testbed stack, runs it,
//! writes the plottable series as CSV under `results/`, and prints a
//! paper-vs-measured summary. Absolute values come from the calibrated
//! models (see DESIGN.md §6); the summaries focus on the *shape* claims.
//! [`experiments::REGISTRY`] names every experiment; [`cli`] parses the
//! command line and dispatches; the rest of this crate is what they share.

pub mod cli;
pub mod experiments;
pub mod explore;
pub mod flightrec;
pub mod lab;
pub mod modelcheck;

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use clocksync::{NtpRequest, NtpServer};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use guestos::{Kernel, KernelConfig};
use hwsim::{
    profile, ControlLan, Endpoint, Frame, HardwareClock, IfaceId, LanTransmit, LinkDeliver,
    NodeAddr,
};
use sim::{stats, Component, ComponentId, Ctx, Engine, Payload, SimDuration};
use vmm::{VmHost, VmHostConfig};

/// Directory the regenerators write CSV into.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV artifact, returning its path.
pub fn write_csv(name: &str, content: &str) -> PathBuf {
    let path = out_dir().join(name);
    fs::write(&path, content).expect("write csv");
    path
}

/// Prints a banner for one experiment.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Prints one paper-vs-measured row.
pub fn row(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:<18} measured: {measured}");
}

/// Summary stats of a sample set, in milliseconds.
pub struct MsSummary {
    pub mean: f64,
    pub p97_dev: f64,
    pub max_dev: f64,
}

/// Summarizes iteration times (ns) against a nominal value (ns).
pub fn summarize_ms(samples_ns: &[u64], nominal_ns: u64) -> MsSummary {
    let devs: Vec<f64> = samples_ns
        .iter()
        .map(|&s| (s as f64 - nominal_ns as f64).abs())
        .collect();
    MsSummary {
        mean: stats::mean(
            &samples_ns.iter().map(|&s| s as f64 / 1e6).collect::<Vec<_>>(),
        ),
        p97_dev: stats::percentile(&devs, 0.97) / 1e6,
        max_dev: stats::max(&devs) / 1e6,
    }
}

/// Minimal ops node answering NTP (for single-host rigs outside the
/// full testbed, e.g. the Fig 8 storage-mode comparison).
struct NtpOps {
    addr: NodeAddr,
    lan: ComponentId,
    clock: HardwareClock,
    server: NtpServer,
}

impl Component for NtpOps {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let Ok(del) = payload.downcast::<LinkDeliver>() else {
            return;
        };
        if let Some(req) = del.frame.payload::<NtpRequest>() {
            let t = self.clock.read_ns(ctx.now());
            let resp = self.server.respond(*req, t, t);
            let frame = Frame::new(self.addr, del.frame.src, 90, resp);
            ctx.post(self.lan, SimDuration::ZERO, LanTransmit { frame });
        }
    }
    sim::component_boilerplate!();
}

/// Builds a single pc3000 host outside the testbed, with a chosen COW
/// mode and disk aging — the Fig 8 / Fig 9 rig. Returns the started
/// engine and host.
pub fn single_host(seed: u64, mode: CowMode, aged: bool) -> (Engine, ComponentId) {
    let mut e = Engine::new(seed);
    let lan = e.add_component(Box::new(ControlLan::new(
        profile::CTRL_LAN_BPS,
        profile::CTRL_LAN_LATENCY,
        profile::CTRL_LAN_JITTER,
    )));
    let ops_addr = NodeAddr(1000);
    let ops = e.add_component(Box::new(NtpOps {
        addr: ops_addr,
        lan,
        clock: HardwareClock::new(0, 0.0),
        server: NtpServer,
    }));
    let node = NodeAddr(1);
    let disk_blocks = profile::GUEST_DISK_BYTES / 4096;
    let golden = Arc::new(GoldenImageBuilder::new("FC4-STD", disk_blocks, 4096, 7).build());
    let mut layout = StoreLayout::for_image(&golden);
    layout.aged = aged;
    let mut store = BranchingStore::new(golden, mode, layout);
    store.set_snoop(cowstore::Ext3Snoop::new());
    let mut kcfg = KernelConfig::pc3000_guest(node);
    kcfg.disk_blocks = disk_blocks;
    let kernel = Kernel::new(kcfg);
    let host = VmHost::new(
        VmHostConfig {
            node,
            lan,
            ntp_server: ops_addr,
            services: ops_addr,
            clock_offset_ns: 1_000_000,
            clock_drift_ppm: 25.0,
            coordinator: None,
            trigger_jitter_mean: SimDuration::ZERO,
            conceal_downtime: true,
        },
        store,
        kernel,
    );
    let host_id = e.add_component(Box::new(host));
    e.with_component::<ControlLan, _>(lan, |l, _| {
        l.attach(node, Endpoint { component: host_id, iface: IfaceId::CONTROL });
        l.attach(ops_addr, Endpoint { component: ops, iface: IfaceId::CONTROL });
    });
    e.with_component::<VmHost, _>(host_id, |h, ctx| h.start(ctx));
    let _ = ops;
    (e, host_id)
}
