//! Guest-observable clock witness.
//!
//! The transparency claim (§4) is about what the *guest* can see, so the
//! evidence has to come from inside the kernel: every guest-visible
//! clock event — a timer tick, a `gettimeofday` answer, the temporal
//! firewall closing and reopening — is recorded here with the guest-time
//! value the guest actually observed. The hosting vmm drains the witness
//! after each kernel entry and republishes the observations as trace
//! events on the host's `guest` track, where the
//! `sim::telemetry::audit` walker checks the paper's invariants.
//!
//! The witness is deliberately *not* part of the checkpointed guest
//! image: it is observability plumbing, not guest state, and it is
//! drained before any capture, so restored kernels start with an empty
//! buffer.

/// Kind of guest-observable clock event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockEventKind {
    /// A `gettimeofday` syscall was answered.
    ClockRead,
    /// A timer interrupt advanced jiffies and xtime.
    Tick,
    /// The temporal firewall closed (suspend began).
    FirewallClosed,
    /// The temporal firewall reopened (resume completed).
    FirewallOpened,
}

/// One guest-observable clock event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockObservation {
    /// What the guest observed.
    pub kind: ClockEventKind,
    /// The guest-time value involved (the answer returned, the tick
    /// stamp, the close/reopen instant).
    pub guest_ns: u64,
    /// Jiffies at the observation.
    pub jiffies: u64,
}

/// Bound on buffered observations between vmm drains. A drain happens on
/// every kernel entry, so the buffer only sees one entry's worth of
/// events; the cap is a defensive backstop, counted when hit.
const WITNESS_CAP: usize = 1024;

/// Bounded buffer of guest clock observations awaiting a vmm drain.
#[derive(Clone, Debug, Default)]
pub struct ClockWitness {
    buf: Vec<ClockObservation>,
    dropped: u64,
}

impl ClockWitness {
    /// Records one observation (drops and counts beyond the cap).
    pub fn record(&mut self, kind: ClockEventKind, guest_ns: u64, jiffies: u64) {
        if self.buf.len() >= WITNESS_CAP {
            self.dropped += 1;
            return;
        }
        self.buf.push(ClockObservation {
            kind,
            guest_ns,
            jiffies,
        });
    }

    /// Hands every buffered observation to `out`, in order, by trading
    /// buffers: the caller gets the observations, the witness keeps
    /// recording into the caller's (empty) vector, and neither side
    /// reallocates per drain.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not empty.
    pub fn drain(&mut self, out: &mut Vec<ClockObservation>) {
        assert!(out.is_empty(), "witness drain into a non-empty buffer");
        std::mem::swap(&mut self.buf, out);
    }

    /// Observations currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Observations dropped because the buffer cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_empties_and_preserves_order() {
        let mut w = ClockWitness::default();
        w.record(ClockEventKind::Tick, 10, 1);
        w.record(ClockEventKind::ClockRead, 11, 1);
        let mut obs = Vec::new();
        w.drain(&mut obs);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].kind, ClockEventKind::Tick);
        assert_eq!(obs[1].guest_ns, 11);
        assert!(w.is_empty());
        assert_eq!(w.dropped(), 0);
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut w = ClockWitness::default();
        for i in 0..1100u64 {
            w.record(ClockEventKind::Tick, i, i);
        }
        assert_eq!(w.len(), 1024);
        assert_eq!(w.dropped(), 76);
    }
}
