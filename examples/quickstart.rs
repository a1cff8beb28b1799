//! Quickstart: build a two-node experiment, stream TCP across it, take a
//! transparent checkpoint mid-stream, and verify from *inside* the guest
//! that nothing observable happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use emulab_checkpoint::emulab::{ExperimentSpec, Testbed};
use emulab_checkpoint::sim::SimDuration;
use emulab_checkpoint::vmm::VmHost;
use emulab_checkpoint::workloads::{IperfReceiver, IperfSender};

fn main() {
    // A testbed with 8 physical machines and the standard image library.
    let mut tb = Testbed::new(42, 8);

    // The experiment: two PCs joined by a shaped gigabit link. Emulab
    // interposes a delay node on the link automatically.
    let spec = ExperimentSpec::new("quickstart")
        .node("client")
        .node("server")
        .link(
            "client",
            "server",
            1_000_000_000,
            SimDuration::from_micros(100),
            0.0,
        );
    let swap_in = tb.swap_in(spec).expect("swap-in failed");
    println!("swap-in took {swap_in} (image load + boot)");

    // Start an iperf pair on the two nodes.
    let server_addr = tb.node_addr("quickstart", "server");
    tb.with_host("quickstart", "server", |h| h.kernel_mut().trace.enable());
    tb.spawn("quickstart", "server", Box::new(IperfReceiver::new(5001)));
    tb.spawn(
        "quickstart",
        "client",
        Box::new(IperfSender::new(server_addr, 5001)),
    );

    // Let NTP discipline the clocks and the stream reach steady state.
    tb.run_for(SimDuration::from_secs(10));

    // Take three coordinated transparent checkpoints under load.
    for i in 1..=3 {
        tb.checkpoint_once();
        println!("checkpoint {i} complete");
        tb.run_for(SimDuration::from_secs(3));
    }

    // The paper's §7.1 verdict, measured from inside the system under test.
    let totals = tb.kernel("quickstart", "client", |k| k.net_totals());
    let received = tb.kernel("quickstart", "server", |k| k.net_totals().bytes_delivered);
    println!();
    println!("delivered:        {} MB", received >> 20);
    println!("retransmissions:  {}", totals.retransmissions);
    println!("RTO timeouts:     {}", totals.timeouts);
    println!("duplicate ACKs:   {}", totals.dup_acks);
    println!("window shrinks:   {}", totals.window_shrinks);
    assert_eq!(totals.retransmissions, 0);
    assert_eq!(totals.timeouts, 0);

    // Host-side truth: real downtime existed, the guest just never saw it.
    let host = tb.host_id("quickstart", "client");
    let h = tb.engine.component_ref::<VmHost>(host).unwrap();
    println!(
        "real downtime concealed from the guest: {} over {} checkpoints",
        h.stats.total_downtime, h.stats.checkpoints
    );
}
