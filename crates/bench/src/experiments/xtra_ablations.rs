//! XTRA-ABL — ablations of the design choices DESIGN.md calls out.
//!
//! Each row removes one ingredient of the paper's mechanism and shows what
//! breaks:
//!
//! 1. **No delay-node checkpoint** (§4.4): the network core's in-flight
//!    packets are discarded at the checkpoint instead of preserved —
//!    TCP must repair the loss (retransmissions appear).
//! 2. **No NTP** (§4.3): checkpoints are scheduled against undisciplined
//!    clocks — suspension skew explodes to the raw clock offsets.
//! 3. **Scheduling lead sensitivity** (§4.3): a lead shorter than
//!    notification propagation degrades a scheduled checkpoint into an
//!    (uncoordinated) event-driven one.

use checkpoint::{Coordinator, DelayNodeHost};
use sim::SimDuration;
use crate::lab::{build_lab, LabConfig};
use crate::{banner, write_csv};

pub fn run() {
    banner("XTRA-ABL", "ablations: remove one mechanism, observe the damage");
    let mut csv = String::from(
        "ablation,retx,timeouts,dup_acks,max_gap_us,suspend_skew_us,throughput_MBps\n",
    );

    println!(
        "  {:<34} {:>5} {:>8} {:>8} {:>11} {:>9} {:>7}",
        "configuration", "retx", "timeouts", "dup-acks", "max gap µs", "skew µs", "MB/s"
    );

    // --- Full mechanism (control) + no-delay-node-checkpoint ablation. ---
    for wipe_dn in [false, true] {
        let mut lab = build_lab(LabConfig {
            seed: 13_001,
            ..LabConfig::default()
        });
        lab.engine.run_for(SimDuration::from_secs(20));
        lab.start_iperf();
        lab.engine.run_for(SimDuration::from_secs(2));
        // Five manual checkpoint rounds; in the ablated run, the delay
        // node's captured pipe state is discarded while suspended —
        // what would happen if the network core were not checkpointed.
        for _ in 0..5 {
            lab.engine.run_for(SimDuration::from_secs(5));
            let coord = lab.coordinator;
            lab.engine
                .with_component::<Coordinator, _>(coord, |c, ctx| c.suspend(ctx));
            for _ in 0..100 {
                lab.engine.run_for(SimDuration::from_millis(20));
                if lab
                    .engine
                    .component_ref::<Coordinator>(coord)
                    .unwrap()
                    .barrier_complete()
                {
                    break;
                }
            }
            if wipe_dn {
                let dn = lab.delay_node;
                lab.engine
                    .with_component::<DelayNodeHost, _>(dn, |d, ctx| {
                        // Discard the suspended pipes and their log: restore
                        // them empty. The node stays suspended, as the resume
                        // broadcast expects.
                        let empty = empty_image_like(d);
                        d.restore(ctx, &empty, Vec::new());
                    });
            }
            lab.engine
                .with_component::<Coordinator, _>(coord, |c, ctx| c.release_resume(ctx));
            lab.engine.run_for(SimDuration::from_millis(100));
        }
        lab.engine.run_for(SimDuration::from_secs(3));
        let o = lab.outcome(30.0);
        let name = if wipe_dn {
            "no delay-node checkpoint"
        } else {
            "full mechanism (control)"
        };
        print_row(name, &o, &mut csv);
        if wipe_dn {
            assert!(
                o.retransmissions > 0,
                "dropping the network core's packets must be visible"
            );
        } else {
            assert_eq!(o.retransmissions, 0);
        }
    }

    // --- NTP ablation. ---
    {
        let mut lab = build_lab(LabConfig {
            seed: 13_002,
            ntp: false,
            offsets_ns: (8_000_000, -9_000_000),
            ..LabConfig::default()
        });
        lab.run_iperf_under_checkpoints(25);
        let o = lab.outcome(25.0);
        print_row("no NTP (raw clocks)", &o, &mut csv);
        assert!(
            o.max_suspend_skew_us > 2_000,
            "undisciplined clocks should skew by milliseconds, got {} µs",
            o.max_suspend_skew_us
        );
    }

    // --- Scheduling-lead sweep. ---
    for lead_ms in [1u64, 10, 50, 200, 1000] {
        let mut lab = build_lab(LabConfig {
            seed: 13_003,
            lead: Some(SimDuration::from_millis(lead_ms)),
            ..LabConfig::default()
        });
        lab.run_iperf_under_checkpoints(25);
        let o = lab.outcome(25.0);
        print_row(&format!("scheduled, lead = {lead_ms} ms"), &o, &mut csv);
    }

    let path = write_csv("xtra_ablations.csv", &csv);
    println!("\n  every removed ingredient shows up as a §3 anomaly");
    println!("  table: {}", path.display());
}

fn print_row(name: &str, o: &crate::lab::LabOutcome, csv: &mut String) {
    println!(
        "  {:<34} {:>5} {:>8} {:>8} {:>11} {:>9} {:>7.1}",
        name,
        o.retransmissions,
        o.timeouts,
        o.dup_acks,
        o.max_gap_us,
        o.max_suspend_skew_us,
        o.throughput_mbps
    );
    csv.push_str(&format!(
        "{},{},{},{},{},{},{:.1}\n",
        name,
        o.retransmissions,
        o.timeouts,
        o.dup_acks,
        o.max_gap_us,
        o.max_suspend_skew_us,
        o.throughput_mbps
    ));
}

/// An empty Dummynet image with the same pipe configs as the node's
/// current instance (so routing stays valid, just with no packets).
fn empty_image_like(d: &DelayNodeHost) -> dummynet::DummynetImage {
    let mut fresh = dummynet::Dummynet::new();
    for i in 0..d.dummynet().pipe_count() {
        fresh.add_pipe(d.dummynet().pipe(dummynet::PipeId(i)).config());
    }
    fresh.suspend(sim::SimTime::ZERO);
    fresh.serialize(sim::SimTime::ZERO)
}
