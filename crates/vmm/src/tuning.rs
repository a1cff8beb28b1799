//! Hypervisor timing calibration.
//!
//! These constants encode the Xen-era costs the paper measures around its
//! mechanisms. Each is justified by a §7 observation; the *mechanisms*
//! (what work exists, when it runs, who it steals from) are structural —
//! only magnitudes are calibrated.

use sim::SimDuration;

/// Mean of the exponential timer-interrupt delivery jitter. With mean
/// 8 µs the 97th percentile is ~28 µs — Fig 4: "for 97% of the
/// iterations the timer is accurate to within 28 µs".
pub const TICK_JITTER_MEAN: SimDuration = SimDuration::from_micros(8);
/// Per-packet processing cost of the paravirtual network path (guest
/// frontend + dom0 backend). Xen's net path is CPU-bound under load
/// (§4.4, citing Cherkasova/Santos); 25 µs/packet caps a 1 Gbps TCP
/// stream near the ~55 MB/s Fig 6 shows.
pub const TX_PROC_COST: SimDuration = SimDuration::from_micros(25);
/// Temporal-firewall entry path, lower bound: time from the suspend
/// decision until time sources are actually frozen (suspend thread
/// scheduling, device quiesce). Observed by the guest as the extra timer
/// error at a checkpoint (Fig 4 inset: ~80 µs vs 28 µs baseline).
pub const FW_ENTRY_MIN: SimDuration = SimDuration::from_micros(40);
/// Temporal-firewall entry path, upper bound (see [`FW_ENTRY_MIN`]).
pub const FW_ENTRY_MAX: SimDuration = SimDuration::from_micros(90);
/// Extra delivery latency of the first timer interrupt after resume
/// (devices reconnecting, pending-IRQ replay), lower bound.
pub const RESUME_IRQ_MIN: SimDuration = SimDuration::from_micros(30);
/// Upper bound of the post-resume interrupt latency (see
/// [`RESUME_IRQ_MIN`]).
pub const RESUME_IRQ_MAX: SimDuration = SimDuration::from_micros(80);
/// Rate, bytes/s, at which dom0 captures the memory snapshot while the
/// guest is frozen (memcpy-bound). Concealed from the guest by time
/// virtualization.
pub const CAPTURE_BPS: u64 = 2_000_000_000;
/// Rate, bytes/s, for the *residual* post-resume dom0 work (compressing
/// and writing out the captured image) — this is NOT concealed and is
/// the "residual checkpoint-related activity" behind Fig 5's ≤27 ms.
pub const RESIDUAL_BPS: u64 = 3_000_000_000;
/// Fixed post-resume dom0 bookkeeping (xend, event channels).
pub const RESIDUAL_FIXED: SimDuration = SimDuration::from_millis(8);
/// Baseline dirty-set size per checkpoint (kernel + app working set).
pub const DIRTY_FLOOR: u64 = 48 << 20;
/// Rate, bytes/s, at which the snapshot image drains to the second local
/// disk in the background after resume.
pub const SNAPSHOT_DISK_BPS: u64 = 70_000_000;

/// Canonical dom0 management-job CPU costs (§7.1: running jobs in the
/// privileged domain stretches a guest CPU burst by these amounts).
#[derive(Clone, Copy, Debug)]
pub enum Dom0Job {
    /// `ls` of the root directory: 5–7 ms.
    Ls,
    /// `sum` of the kernel binary: 13–17 ms.
    Sum,
    /// `xm list`: ~130 ms.
    XmList,
}

impl Dom0Job {
    /// CPU cost range (min, max) of the job.
    pub fn cost_range(self) -> (SimDuration, SimDuration) {
        match self {
            Dom0Job::Ls => (SimDuration::from_millis(5), SimDuration::from_millis(7)),
            Dom0Job::Sum => (SimDuration::from_millis(13), SimDuration::from_millis(17)),
            Dom0Job::XmList => (
                SimDuration::from_millis(120),
                SimDuration::from_millis(140),
            ),
        }
    }
}
