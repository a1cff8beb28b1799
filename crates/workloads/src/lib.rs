//! Guest workload programs for the evaluation (§7).
//!
//! Every figure's workload, implemented against the [`guestos::GuestProg`]
//! syscall interface:
//!
//! - [`UsleepLoop`] — Fig 4's timer microbenchmark;
//! - [`CpuLoop`] — Fig 5's CPU-intensive loop;
//! - [`IperfSender`]/[`IperfReceiver`] — Fig 6's bulk TCP stream; the
//!   programs keep byte counts only (their state is in every checkpoint
//!   image), and Fig 6's throughput series is binned from the receiving
//!   kernel's opt-in [`NetTrace`];
//! - [`BtPeer`] — Fig 7's BitTorrent swarm (static tracker; piece sets are
//!   bitfields, as on the real protocol's wire);
//! - [`Bonnie`] — Fig 8's filesystem benchmark;
//! - [`FileCopy`] — Fig 9 / §7.2's disk-intensive copy;
//! - [`KernelBuild`] — §5.1's make / make-clean free-block workload.
//!
//! [`NetTrace`]: guestos::net::NetTrace

mod bittorrent;
#[cfg(test)]
mod testutil;
mod bonnie;
mod filecopy;
mod iperf;
mod kernelbuild;
mod micro;

pub use bittorrent::{BtMsg, BtPeer};
pub use bonnie::{Bonnie, BonniePhase, PhaseResult};
pub use filecopy::{FileCopy, FileWriter};
pub use iperf::{IperfReceiver, IperfSender};
pub use kernelbuild::KernelBuild;
pub use micro::{CpuLoop, UsleepLoop};
