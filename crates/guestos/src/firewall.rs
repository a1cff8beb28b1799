//! The temporal firewall (§4.1, Fig 2).
//!
//! "We implement a temporal firewall: a minimal layer of control inside a
//! system's kernel, designed to isolate time and execution of the
//! checkpointing code from the rest of the system. We virtualize time and
//! atomically stop execution of all code running inside the temporal
//! firewall."
//!
//! The firewall tracks what is stopped: scheduling of inside-classes
//! (enforced by [`crate::sched::RunQueue::pick_next`]), IRQ and softirq
//! dispatch masks, and the freeze of guest-visible time (enforced by the
//! vmm, which stops shared-page updates and offsets the TSC). The state
//! also records transparency metrics: how long the entry path ran before
//! execution actually stopped, which bounds what the guest can observe.

/// The firewall control state.
#[derive(Clone, Debug, Default)]
pub struct FirewallState {
    closed: bool,
    /// Guest time at which the firewall last closed.
    closed_at_guest_ns: u64,
    /// IRQ dispatch suspended (all but the XenBus checkpoint channel).
    irqs_masked: bool,
    /// Softirq/tasklet/workqueue dispatch suspended.
    softirqs_masked: bool,
    /// Checkpoint generation counter.
    pub generation: u64,
    /// Cumulative closures (for tests/metrics).
    pub closures: u64,
}

impl FirewallState {
    /// Creates an open firewall.
    pub fn new() -> Self {
        FirewallState::default()
    }

    /// True while the firewall is closed (checkpoint in progress).
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Guest time at the last closure.
    pub fn closed_at(&self) -> u64 {
        self.closed_at_guest_ns
    }

    /// Closes the firewall: stops inside-classes, masks interrupt
    /// delivery, and records the freeze instant.
    ///
    /// # Panics
    ///
    /// Panics if already closed — a nested checkpoint is a protocol bug.
    pub fn close(&mut self, guest_now_ns: u64) {
        assert!(!self.closed, "temporal firewall closed twice");
        self.closed = true;
        self.closed_at_guest_ns = guest_now_ns;
        self.irqs_masked = true;
        self.softirqs_masked = true;
        self.generation += 1;
        self.closures += 1;
    }

    /// Reopens the firewall after resume.
    ///
    /// # Panics
    ///
    /// Panics if not closed.
    pub fn open(&mut self, _guest_now_ns: u64) {
        assert!(self.closed, "temporal firewall opened while open");
        self.closed = false;
        self.irqs_masked = false;
        self.softirqs_masked = false;
    }

    /// Whether an IRQ from `source` may be dispatched.
    ///
    /// Only the checkpoint control channel (XenBus) and block-device
    /// drain interrupts run outside the firewall (§4.1: "block device
    /// drivers need their IRQ handlers to run outside of the firewall in
    /// order to drain in-flight requests").
    pub fn irq_allowed(&self, source: IrqSource) -> bool {
        if !self.irqs_masked {
            return true;
        }
        matches!(source, IrqSource::XenBus | IrqSource::BlockDrain)
    }

    /// Whether softirq processing may run (network rx/tx bottom halves).
    pub fn softirqs_allowed(&self) -> bool {
        !self.softirqs_masked
    }
}

ckptstore::wire!(struct FirewallState {
    closed,
    closed_at_guest_ns,
    irqs_masked,
    softirqs_masked,
    generation,
    closures,
});

/// Interrupt sources the firewall discriminates between.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrqSource {
    /// Guest timer tick.
    Timer,
    /// Network device.
    Net,
    /// Block device completion during checkpoint drain.
    BlockDrain,
    /// The XenBus control channel used by the checkpoint protocol.
    XenBus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_masks_everything_but_checkpoint_paths() {
        let mut fw = FirewallState::new();
        assert!(fw.irq_allowed(IrqSource::Timer));
        assert!(fw.softirqs_allowed());
        fw.close(1_000);
        assert!(fw.closed());
        assert_eq!(fw.closed_at(), 1_000);
        assert!(!fw.irq_allowed(IrqSource::Timer));
        assert!(!fw.irq_allowed(IrqSource::Net));
        assert!(fw.irq_allowed(IrqSource::XenBus), "control channel stays live");
        assert!(fw.irq_allowed(IrqSource::BlockDrain), "drain IRQs stay live");
        assert!(!fw.softirqs_allowed());
        fw.open(1_000);
        assert!(fw.irq_allowed(IrqSource::Net));
    }

    #[test]
    fn generation_counts_checkpoints() {
        let mut fw = FirewallState::new();
        for i in 1..=3 {
            fw.close(i);
            fw.open(i);
        }
        assert_eq!(fw.generation, 3);
        assert_eq!(fw.closures, 3);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn nested_close_panics() {
        let mut fw = FirewallState::new();
        fw.close(1);
        fw.close(2);
    }
}
