//! The checkpoint notification bus (§4.3).
//!
//! "We have implemented a fast publish-subscribe checkpoint notification
//! bus. All nodes in the system subscribe to the bus, and any node can
//! publish a notification in order to trigger an action on all nodes."
//!
//! Messages ride the Emulab control network as typed frames. The bus
//! supports both checkpoint styles the paper describes: *scheduled*
//! ("checkpoint at time t", converted to a true event time through each
//! node's NTP-disciplined clock) and *event-driven* ("checkpoint now",
//! limited by notification delivery spread).
//!
//! Every round-scoped message carries the round's [`TraceCtx`] so the
//! causal flow the coordinator mints at publication survives the hop to
//! participants and back: receivers record flow steps against the carried
//! context and echo it on their replies. The context is two `u32`s and
//! every message stays `Copy`, so propagation costs nothing on the wire
//! model ([`BUS_MSG_BYTES`] already budgets a generous datagram).

use sim::TraceCtx;

/// A notification published on the bus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BusMsg {
    /// Schedule a checkpoint at the given *local clock* reading (ns since
    /// the testbed epoch). The time is "far enough in the future to allow
    /// for propagation and processing of the notifications". `full`
    /// demands a full (non-incremental) capture: sent to a node whose
    /// incremental chain broke, e.g. one re-admitted after a crash.
    CheckpointAt {
        epoch: u64,
        at_clock_ns: f64,
        full: bool,
        trace: TraceCtx,
    },
    /// Take a checkpoint immediately on receipt (event-driven mode).
    /// `full` as in [`BusMsg::CheckpointAt`].
    CheckpointNow { epoch: u64, full: bool, trace: TraceCtx },
    /// A node acknowledges receipt of a checkpoint notification. The
    /// coordinator's failure detector re-publishes the notification (with
    /// exponential backoff) to nodes whose ack is missing, so a lost
    /// notification costs one retry round-trip instead of a wedged epoch.
    /// `trace` echoes the notification's context.
    NotifyAck { epoch: u64, trace: TraceCtx },
    /// A node finished capturing its local checkpoint. `image_bytes`
    /// reports the size of the captured state so the coordinator can
    /// account per-epoch image volume. Doubles as an implicit ack.
    /// `trace` echoes the notification's context.
    NodeDone {
        epoch: u64,
        image_bytes: u64,
        trace: TraceCtx,
    },
    /// All nodes are done: resume execution.
    Resume { epoch: u64, trace: TraceCtx },
    /// The epoch failed to assemble its barrier before the deadline:
    /// nodes roll back their local checkpoint sequence and resume through
    /// the temporal firewall as if the epoch had never been triggered.
    Abort { epoch: u64, trace: TraceCtx },
    /// A node asks the coordinator for an immediate checkpoint round
    /// (event-driven trigger raised inside a guest). Carries no context:
    /// the round it provokes mints its own.
    RequestCheckpoint,
}

impl BusMsg {
    /// Returns the notification with its full-capture flag raised;
    /// non-notification messages pass through unchanged. Used by the
    /// coordinator to upgrade the copy sent to a rejoining node.
    pub fn with_full(self) -> BusMsg {
        match self {
            BusMsg::CheckpointAt { epoch, at_clock_ns, trace, .. } => BusMsg::CheckpointAt {
                epoch,
                at_clock_ns,
                full: true,
                trace,
            },
            BusMsg::CheckpointNow { epoch, trace, .. } => BusMsg::CheckpointNow {
                epoch,
                full: true,
                trace,
            },
            other => other,
        }
    }

    /// The causal context the message carries ([`TraceCtx::NONE`] for
    /// [`BusMsg::RequestCheckpoint`]).
    pub fn trace(&self) -> TraceCtx {
        match *self {
            BusMsg::CheckpointAt { trace, .. }
            | BusMsg::CheckpointNow { trace, .. }
            | BusMsg::NotifyAck { trace, .. }
            | BusMsg::NodeDone { trace, .. }
            | BusMsg::Resume { trace, .. }
            | BusMsg::Abort { trace, .. } => trace,
            BusMsg::RequestCheckpoint => TraceCtx::NONE,
        }
    }
}

/// Wire size of a bus notification (UDP datagram on the control net).
pub const BUS_MSG_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_value_types() {
        let m = BusMsg::CheckpointAt {
            epoch: 3,
            at_clock_ns: 1.5e9,
            full: false,
            trace: TraceCtx::for_round(1, 3),
        };
        assert_eq!(m, m);
        assert_ne!(
            m,
            BusMsg::Resume {
                epoch: 3,
                trace: TraceCtx::for_round(1, 3)
            }
        );
    }

    #[test]
    fn with_full_upgrades_notifications_only() {
        let ctx = TraceCtx::for_round(2, 1);
        let at = BusMsg::CheckpointAt {
            epoch: 1,
            at_clock_ns: 2.0,
            full: false,
            trace: ctx,
        };
        assert_eq!(
            at.with_full(),
            BusMsg::CheckpointAt {
                epoch: 1,
                at_clock_ns: 2.0,
                full: true,
                trace: ctx,
            }
        );
        let now = BusMsg::CheckpointNow {
            epoch: 4,
            full: false,
            trace: TraceCtx::NONE,
        };
        assert_eq!(
            now.with_full(),
            BusMsg::CheckpointNow {
                epoch: 4,
                full: true,
                trace: TraceCtx::NONE,
            }
        );
        let resume = BusMsg::Resume {
            epoch: 9,
            trace: TraceCtx::NONE,
        };
        assert_eq!(resume.with_full(), resume);
    }

    #[test]
    fn trace_accessor_reads_the_carried_context() {
        let ctx = TraceCtx::for_round(7, 42);
        assert_eq!(
            BusMsg::NodeDone {
                epoch: 42,
                image_bytes: 1,
                trace: ctx,
            }
            .trace(),
            ctx
        );
        assert!(BusMsg::RequestCheckpoint.trace().is_none());
    }
}
