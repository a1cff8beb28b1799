//! TAB-FBE — §5.1's free-block elimination validation (in-text).
//!
//! "We verified that this optimization is crucial by running a make
//! followed by make clean command on a Linux kernel source tree.
//! Free-block elimination reduces the delta size from 490 MB to 36 MB."
//!
//! The workload builds ~490 MB of object files and deletes all but the
//! retained artifacts; the ext3-snooping plugin then filters the delta at
//! swap-out.

use cowstore::CowMode;
use sim::{SimDuration, SimTime};
use crate::{banner, row, single_host, write_csv};
use vmm::VmHost;
use workloads::KernelBuild;

pub fn run() {
    banner("TAB-FBE", "make + make clean: free-block elimination (§5.1)");
    let (mut e, host) = single_host(11_001, CowMode::Branch, false);
    e.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    let tid = e.with_component::<VmHost, _>(host, |h, _| {
        h.kernel_mut().spawn(Box::new(KernelBuild::paper_default()))
    });
    for _ in 0..60 {
        e.run_for(SimDuration::from_secs(30));
        let done = e
            .component_ref::<VmHost>(host)
            .unwrap()
            .kernel()
            .prog(tid)
            .unwrap()
            .as_any()
            .downcast_ref::<KernelBuild>()
            .unwrap()
            .finished;
        if done {
            break;
        }
    }

    let h = e.component_ref::<VmHost>(host).unwrap();
    let bs = h.store().block_size();
    let raw = h.store().current_delta().byte_size(bs);
    let (filtered, removed_blocks) = h.store().filtered_delta();
    let kept = filtered.byte_size(bs);

    let mut csv = String::from("metric,bytes\n");
    csv.push_str(&format!("raw_delta,{raw}\n"));
    csv.push_str(&format!("filtered_delta,{kept}\n"));
    let path = write_csv("tab_freeblock.csv", &csv);

    row(
        "delta before elimination",
        "490 MB",
        &format!("{:.0} MB", raw as f64 / 1e6),
    );
    row(
        "delta after elimination",
        "36 MB",
        &format!("{:.0} MB", kept as f64 / 1e6),
    );
    row(
        "reduction factor",
        "~13.6x",
        &format!("{:.1}x ({} blocks dropped)", raw as f64 / kept as f64, removed_blocks),
    );
    println!("  table: {}", path.display());
    assert!(kept * 5 < raw, "elimination ineffective");
}
