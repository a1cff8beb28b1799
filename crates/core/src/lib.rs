//! Transparent coordinated checkpointing of closed distributed systems —
//! the paper's primary contribution (§4).
//!
//! The pieces, mapped to the paper:
//!
//! - [`BusMsg`] — the publish-subscribe checkpoint notification bus on the
//!   control network (§4.3);
//! - [`Coordinator`] — the ops-side protocol driver: scheduled
//!   ("checkpoint at time t") or event-driven ("checkpoint now") triggers,
//!   completion barrier, resume notification; doubles as the NTP
//!   reference;
//! - [`Participant`] — the node-side half of the protocol, written once:
//!   ack, de-duplicate, arm the local timer, report done, resume or roll
//!   back, over a [`NodeHooks`] table that is everything it may do to the
//!   node it runs on;
//! - [`CheckpointAgent`] — the hook table over a [`vmm::VmHost`]: local
//!   timers against the NTP-disciplined clock and the host's local live
//!   checkpoint;
//! - [`DelayNodeHost`] — the hook table over the network core: Dummynet
//!   suspension, non-destructive serialization, and time-virtualized
//!   resume (§4.4);
//! - [`ScaleNode`] — the hook table of the many-node scale lab
//!   (`emulab::ScaleLab`): a few self-posted capture steps and gossip;
//! - [`Strategy`] — the runnable baselines (event-driven triggering,
//!   non-concealing stop-and-copy) the evaluation compares against.
//!
//! Transparency is an end-to-end property of this stack: the integration
//! tests assert the paper's §7.1 observation — a TCP stream checkpointed
//! repeatedly shows **no retransmissions, no duplicate ACKs, no window
//! changes** — and that the baselines violate it.

mod agent;
mod baselines;
mod bus;
mod coordinator;
mod delaynode;
pub mod modelcheck;
mod participant;
mod scalenode;
pub mod shadow;
pub mod wal;

pub use agent::CheckpointAgent;
pub use baselines::Strategy;
pub use bus::{BusMsg, BUS_MSG_BYTES};
pub use coordinator::{
    Coordinator, CoordinatorBuilder, EpochOutcome, EpochRecord, FailurePolicy, GroupId,
    TriggerMode,
};
pub use delaynode::{splice_shaped_link, DelayNodeHost, DelayNodeStats};
pub use participant::{NodeHooks, Participant};
pub use scalenode::{ScaleMsg, ScaleNode, GOSSIP_PERIOD};
pub use shadow::{ShadowEpochState, ShadowOutcome, ShadowViolation};
pub use wal::{Wal, WalRecord};
