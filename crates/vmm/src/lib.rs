//! The hypervisor layer: Xen-like hosts driving guest kernels.
//!
//! Each [`VmHost`] is one simulated pc3000 machine: hardware clock
//! disciplined by NTP, a CPU shared between dom0 and the guest, two local
//! disks (virtual-disk backend over the branching store, plus a snapshot
//! disk), a paravirtual network backend with per-packet processing cost,
//! and the paper's live local checkpoint with virtualized time (§4.1–4.2).
//! A host with a coordinator runs the coordinated protocol's node side,
//! [`checkpoint::Participant`], over its own hook table.

mod domain;
mod host;
pub mod tuning;

pub use domain::{Domain, DomainImage};
pub use host::{
    ExpPort, GuestRpc, GuestRpcReply, HostStats, MirrorConfig, MirrorDrained, RxLog,
    VmHost, VmHostConfig,
};
pub use tuning::Dom0Job;
