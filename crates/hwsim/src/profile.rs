//! The pc3000 calibration: the one machine type the paper evaluates on.
//!
//! Everything here corresponds to the evaluation platform of paper §7:
//! Emulab "pc3000" nodes (3.0 GHz Xeon, 2 GB RAM, two 146 GB 10k-RPM SCSI
//! disks, see [`crate::DiskProfile::pc3000_scsi`]), 1 Gbps experiment
//! links, a dedicated 100 Mbps control LAN, and 256 MB Xen guests with
//! 6 GB disk images. Every experiment runs on this one profile, so these
//! are constants rather than configuration.

use sim::SimDuration;

/// Experiment-link rate (1 Gbps).
pub const EXP_LINK_BPS: u64 = 1_000_000_000;
/// Control-LAN port rate (dedicated 100 Mbps Ethernet).
pub const CTRL_LAN_BPS: u64 = 100_000_000;
/// Control-LAN base switch latency.
pub const CTRL_LAN_LATENCY: SimDuration = SimDuration::from_micros(40);
/// Control-LAN queueing-jitter mean (limits NTP accuracy to ~200 µs).
pub const CTRL_LAN_JITTER: SimDuration = SimDuration::from_micros(60);
/// Guest memory size (256 MB per VM in §7).
pub const GUEST_MEM_BYTES: u64 = 256 << 20;
/// Virtual disk image size (6 GB in §7).
pub const GUEST_DISK_BYTES: u64 = 6 << 30;
/// Guest timer frequency (HZ=100: usleep(10 ms) rounds to ~20 ms,
/// matching Fig 4's 20 ms iteration baseline).
pub const GUEST_HZ: u32 = 100;
