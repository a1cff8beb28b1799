//! The Emulab testbed "operating system" (paper §2, §5, §6).
//!
//! Builds full experiments over the simulated substrate and provides the
//! execution controls the paper contributes:
//!
//! - [`ExperimentSpec`] / [`Testbed::swap_in`] — topology mapping with
//!   automatic delay-node interposition, image distribution with
//!   per-machine caches, and control services (NTP, checkpoint bus, NFS
//!   with timestamp transduction);
//! - [`Testbed::checkpoint_once`] / periodic checkpoints — the coordinated
//!   transparent checkpoint over every node and delay node;
//! - [`Testbed::swap_out_stateful`] / [`Testbed::swap_in_stateful`] —
//!   stateful swapping with eager pre-copy, free-block elimination,
//!   offline merge, and lazy copy-in (§5);
//! - [`Testbed::snapshot`] / [`Testbed::travel_to`] — the time-travel
//!   tree (§6).

mod errors;
mod restore;
mod services;
mod sharding;
mod spec;
mod swap;
mod testbed;
mod timetravel;

pub use errors::{SpecError, SwapError, TestbedError};
pub use services::FileServer;
pub use sharding::{PlanError, ScaleLab, ScaleOutcome, ScalePlan};
pub use spec::{ExperimentSpec, LanSpec, LinkSpec, NodeSpec};
pub use swap::{NodeState, SwapInReport, SwapInWarning, SwapOutReport, SwappedExperiment};
pub use testbed::{
    splice_shaped_link, DelayNodeHandle, Experiment, NodeHandle, PhysMachine, Testbed,
    BOOT_OVERHEAD, FS_ADDR, OPS_ADDR,
};
pub use timetravel::{Snapshot, SnapshotId, TimeTravelError, TimeTravelTree};
