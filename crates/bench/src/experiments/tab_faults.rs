//! TAB-FAULTS — control-plane fault sweep (ours; §4.3's failure detector
//! exercised).
//!
//! The paper's coordinator "implements a simple failure detection
//! protocol" over the checkpoint bus; this experiment measures how the
//! two-phase epoch protocol behaves when the control plane actually
//! misbehaves. It sweeps notification loss rate × a straggler node's
//! done-report stall (plus a control-interface crash), and reports per
//! cell how epochs terminated (committed / aborted / degraded), how hard
//! the failure detector worked (retries), and whether the system under
//! test noticed (guest TCP anomalies).
//!
//! Invariants asserted here:
//!
//! - every epoch terminates — no fault combination wedges the protocol;
//! - runs whose epochs all committed are transparent: zero
//!   retransmissions, duplicate ACKs, or window changes in the guest;
//! - a stall longer than the epoch deadline aborts (rollback), a crashed
//!   node degrades (excluded commit), and plain loss is absorbed by
//!   retries.

use checkpoint::FailurePolicy;
use sim::{FaultPlan, SimDuration, SimTime};
use crate::lab::{build_lab, LabConfig, LabOutcome};
use crate::{banner, write_csv};

/// One sweep cell: loss rate, straggler stall, optional control crash.
struct Cell {
    loss: f64,
    stall: Option<SimDuration>,
    crash: bool,
}

fn run_cell(cell: &Cell) -> LabOutcome {
    let mut plan = FaultPlan::new(7_001).with_loss(cell.loss);
    if cell.crash {
        // Host B's control interface dies mid-sweep (key = NodeAddr.0).
        plan = plan.with_crash(2, SimTime::from_nanos(32_000_000_000));
    }
    let policy = FailurePolicy {
        // Resume and abort publications are repeated so a lossy LAN
        // cannot strand a suspended node on a single dropped frame.
        resume_repeats: 2,
        ..FailurePolicy::default()
    };
    let mut lab = build_lab(LabConfig {
        seed: 13_001,
        faults: Some(plan),
        straggler_stall: cell.stall,
        policy: Some(policy),
        ..LabConfig::default()
    });
    lab.run_iperf_under_checkpoints(25);
    lab.drain_checkpoints();
    lab.outcome(31.0)
}

pub fn run() {
    banner(
        "TAB-FAULTS",
        "epoch outcomes under control-plane faults (loss × straggler stall, plus a crash)",
    );

    let stalls: [(Option<SimDuration>, &str); 3] = [
        (None, "0"),
        (Some(SimDuration::from_millis(50)), "50"),
        (Some(SimDuration::from_secs(3)), "3000"),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        for &(stall, _) in &stalls {
            cells.push(Cell { loss, stall, crash: false });
        }
    }
    cells.push(Cell { loss: 0.0, stall: None, crash: true });

    let mut csv = String::from(
        "loss,stall_ms,crash,committed,aborted,degraded,retries,retx,dup_acks,window_shrinks,p50_notify_to_acks_us,p99_notify_to_acks_us,p50_barrier_hold_us,p99_barrier_hold_us,throughput_MBps\n",
    );
    println!(
        "  {:>5} {:>8} {:>5} {:>9} {:>7} {:>8} {:>7} {:>5} {:>8} {:>7} {:>9} {:>9} {:>9} {:>7}",
        "loss",
        "stall ms",
        "crash",
        "committed",
        "aborted",
        "degraded",
        "retries",
        "retx",
        "dup-acks",
        "shrinks",
        "acks p50",
        "acks p99",
        "hold p99",
        "MB/s"
    );
    for cell in &cells {
        let stall_ms = cell.stall.map(|s| s.as_nanos() / 1_000_000).unwrap_or(0);
        eprintln!(
            "[tab_faults] loss {:.2}, stall {} ms, crash {}...",
            cell.loss, stall_ms, cell.crash
        );
        let o = run_cell(cell);
        println!(
            "  {:>5.2} {:>8} {:>5} {:>9} {:>7} {:>8} {:>7} {:>5} {:>8} {:>7} {:>9} {:>9} {:>9} {:>7.1}",
            cell.loss,
            stall_ms,
            cell.crash,
            o.committed,
            o.aborted,
            o.degraded,
            o.retries,
            o.retransmissions,
            o.dup_acks,
            o.window_shrinks,
            o.p50_notify_to_acks_us,
            o.p99_notify_to_acks_us,
            o.p99_barrier_hold_us,
            o.throughput_mbps
        );
        csv.push_str(&format!(
            "{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.1}\n",
            cell.loss,
            stall_ms,
            cell.crash,
            o.committed,
            o.aborted,
            o.degraded,
            o.retries,
            o.retransmissions,
            o.dup_acks,
            o.window_shrinks,
            o.p50_notify_to_acks_us,
            o.p99_notify_to_acks_us,
            o.p50_barrier_hold_us,
            o.p99_barrier_hold_us,
            o.throughput_mbps
        ));

        // Liveness: no fault combination may wedge an epoch.
        assert_eq!(
            o.unresolved, 0,
            "epoch wedged at loss {:.2} stall {stall_ms} ms crash {}",
            cell.loss, cell.crash
        );
        assert!(o.committed + o.aborted + o.degraded > 0, "no epochs ran");
        // Transparency: a run whose epochs all committed must leave the
        // guest TCP stream untouched.
        if o.aborted == 0 && o.degraded == 0 {
            assert_eq!(
                o.retransmissions + o.timeouts + o.dup_acks + o.window_shrinks,
                0,
                "committed epochs disturbed the guest at loss {:.2} stall {stall_ms} ms",
                cell.loss
            );
        }
        // Shape of the outcome space.
        if cell.crash {
            assert!(o.degraded >= 1, "crash did not degrade any epoch");
        }
        if stall_ms >= 3000 {
            assert!(o.aborted >= 1, "over-deadline straggler did not abort");
        }
        if cell.loss >= 0.05 && !cell.crash {
            assert!(o.retries >= 1, "loss {:.2} never triggered a retry", cell.loss);
        }
    }

    let path = write_csv("tab_faults.csv", &csv);
    println!("\n  every epoch terminates; all-committed rows show zero TCP anomalies");
    println!("  table: {}", path.display());
}
