//! Guest domains and checkpoint images.
//!
//! A [`Domain`] wraps a guest kernel with the hypervisor-side time state:
//! the accumulated concealed downtime and, during a checkpoint, the frozen
//! guest-time value. Saving a domain produces a [`DomainImage`] — the
//! kernel state (a clone; the simulator's stand-in for the memory image)
//! plus the sizes that cost its storage and transfer.

use ckptstore::{Dec, DecodeError, Enc, Wire};
use guestos::wire::GuestResidue;
use guestos::Kernel;

/// Hypervisor-side state of one guest.
#[derive(Clone)]
pub struct Domain {
    /// The guest kernel (its "memory").
    pub kernel: Kernel,
    /// Guest memory size (costs the full image).
    pub mem_bytes: u64,
    /// Clock-time accumulated while the guest was frozen, subtracted from
    /// the host clock to produce guest time (the Xen tsc_offset analogue).
    pub concealed_clock_ns: f64,
    /// Time-dilation factor (§6's non-determinism knob, after Gupta's
    /// time-warped emulation): guest time advances at `1/dilation` of
    /// real time. 1.0 = native.
    pub dilation: f64,
    /// Frozen guest time during a checkpoint; `None` while running.
    pub frozen_guest_ns: Option<u64>,
    /// Estimated bytes dirtied since the last checkpoint (drives the
    /// incremental image size).
    pub dirty_since_ckpt: u64,
    /// Checkpoints taken of this domain.
    pub checkpoints: u64,
}

impl Domain {
    /// Creates a running domain around a freshly booted kernel.
    pub fn new(kernel: Kernel, mem_bytes: u64) -> Self {
        Domain {
            kernel,
            mem_bytes,
            concealed_clock_ns: 0.0,
            dilation: 1.0,
            frozen_guest_ns: None,
            dirty_since_ckpt: 0,
            checkpoints: 0,
        }
    }

    /// True while frozen for a checkpoint.
    pub fn frozen(&self) -> bool {
        self.frozen_guest_ns.is_some()
    }

    /// Guest time for a given host-clock reading (ns): the clock minus all
    /// concealed downtime, pinned while frozen.
    pub fn guest_ns(&self, host_clock_ns: f64) -> u64 {
        if let Some(f) = self.frozen_guest_ns {
            return f;
        }
        ((host_clock_ns - self.concealed_clock_ns) / self.dilation).max(0.0) as u64
    }

    /// Host-clock reading at which the (running) guest clock will read
    /// `guest_target_ns` — the inverse of [`Domain::guest_ns`].
    pub fn clock_ns_when_guest(&self, guest_target_ns: u64) -> f64 {
        guest_target_ns as f64 * self.dilation + self.concealed_clock_ns
    }

    /// Changes the dilation factor, keeping guest time continuous.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive factor or while frozen.
    pub fn set_dilation(&mut self, host_clock_ns: f64, dilation: f64) {
        assert!(dilation > 0.0, "non-positive dilation");
        assert!(self.frozen_guest_ns.is_none(), "set dilation while frozen");
        let g = self.guest_ns(host_clock_ns);
        self.dilation = dilation;
        self.concealed_clock_ns = host_clock_ns - g as f64 * dilation;
    }

    /// Freezes guest time at the current instant.
    ///
    /// # Panics
    ///
    /// Panics if already frozen.
    pub fn freeze(&mut self, host_clock_ns: f64) -> u64 {
        assert!(self.frozen_guest_ns.is_none(), "domain frozen twice");
        let g = self.guest_ns(host_clock_ns);
        self.frozen_guest_ns = Some(g);
        g
    }

    /// Unfreezes at `host_clock_ns`, folding the downtime into the
    /// concealed offset so guest time is continuous.
    ///
    /// # Panics
    ///
    /// Panics if not frozen.
    pub fn unfreeze(&mut self, host_clock_ns: f64) -> u64 {
        let f = self.frozen_guest_ns.take().expect("unfreeze while running");
        // After this, guest_ns(host_clock_ns) == f.
        self.concealed_clock_ns = host_clock_ns - f as f64 * self.dilation;
        f
    }

    /// Unfreezes WITHOUT concealing the downtime: guest time jumps forward
    /// by however long the domain was suspended. This is the conventional
    /// (non-transparent) checkpoint behaviour the paper is arguing
    /// against; it exists for the baseline comparison.
    ///
    /// # Panics
    ///
    /// Panics if not frozen.
    pub fn unfreeze_leaking(&mut self, host_clock_ns: f64) -> u64 {
        let _ = self.frozen_guest_ns.take().expect("unfreeze while running");
        self.guest_ns(host_clock_ns)
    }

    /// Records guest activity that dirties memory (I/O and network
    /// delivery are the dominant page-dirtying sources for our workloads).
    pub fn note_dirty(&mut self, bytes: u64) {
        self.dirty_since_ckpt = (self.dirty_since_ckpt + bytes).min(self.mem_bytes);
    }

    /// Captures a checkpoint image while frozen; resets dirty tracking.
    ///
    /// # Panics
    ///
    /// Panics if the domain is not frozen or the guest has in-flight I/O.
    pub fn capture(&mut self, dirty_floor: u64) -> DomainImage {
        let guest_ns = self.frozen_guest_ns.expect("capture requires a frozen domain");
        assert!(self.kernel.suspend_ready(), "capture with in-flight I/O");
        let dirty = (self.dirty_since_ckpt + dirty_floor).min(self.mem_bytes);
        self.dirty_since_ckpt = 0;
        self.checkpoints += 1;
        DomainImage {
            kernel: self.kernel.clone(),
            guest_ns,
            dirty_bytes: dirty,
            mem_bytes: self.mem_bytes,
            pending_bursts: Vec::new(),
        }
    }
}

/// A captured domain: restore swaps the kernel back in.
#[derive(Clone)]
pub struct DomainImage {
    /// The full guest state.
    pub kernel: Kernel,
    /// The guest time at which it was frozen.
    pub guest_ns: u64,
    /// Incremental image size (transfer/storage cost of this checkpoint).
    pub dirty_bytes: u64,
    /// Full memory image size.
    pub mem_bytes: u64,
    /// vCPU context: banked compute bursts `(id, remaining ns)` that were
    /// in flight at the freeze — part of the machine state, restored into
    /// the host's burst queue.
    pub pending_bursts: Vec<(u64, u64)>,
}

impl DomainImage {
    /// Rebuilds a (frozen) domain from the image; the caller unfreezes it
    /// at resume time.
    pub fn restore(&self) -> Domain {
        Domain {
            kernel: self.kernel.clone(),
            mem_bytes: self.mem_bytes,
            concealed_clock_ns: 0.0,
            dilation: 1.0,
            frozen_guest_ns: Some(self.guest_ns),
            dirty_since_ckpt: 0,
            checkpoints: 0,
        }
    }

    /// Serializes the image ([`Wire::put`]): the guest kernel followed
    /// by the vCPU and sizing context. Program objects and message markers
    /// land in `residue`, which rides beside the byte image. The restore
    /// paths and `benchmark/` call the image codec by this name.
    pub fn encode_wire(&self, e: &mut Enc, residue: &mut GuestResidue) {
        self.put(e, residue);
    }

    /// Inverse of [`DomainImage::encode_wire`] ([`Wire::get`]).
    pub fn decode_wire(d: &mut Dec<'_>, residue: &GuestResidue) -> Result<Self, DecodeError> {
        Self::get(d, residue)
    }
}

ckptstore::wire!(struct DomainImage in GuestResidue {
    kernel,
    guest_ns,
    dirty_bytes,
    mem_bytes,
    pending_bursts,
});

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::KernelConfig;
    use hwsim::NodeAddr;

    fn domain() -> Domain {
        let mut cfg = KernelConfig::pc3000_guest(NodeAddr(1));
        cfg.disk_blocks = 10_000;
        cfg.cache_blocks = 128;
        Domain::new(Kernel::new(cfg), 256 << 20)
    }

    #[test]
    fn guest_time_tracks_clock_minus_concealed() {
        let d = domain();
        assert_eq!(d.guest_ns(5_000.0), 5_000);
    }

    #[test]
    fn freeze_pins_time_and_unfreeze_is_continuous() {
        let mut d = domain();
        let f = d.freeze(1_000_000.0);
        assert_eq!(f, 1_000_000);
        assert_eq!(d.guest_ns(9_999_999.0), 1_000_000, "frozen");
        let f2 = d.unfreeze(51_000_000.0); // 50 ms downtime
        assert_eq!(f2, 1_000_000);
        assert_eq!(d.guest_ns(51_000_000.0), 1_000_000, "continuous at resume");
        assert_eq!(d.guest_ns(52_000_000.0), 2_000_000, "advances normally after");
    }

    #[test]
    fn repeated_checkpoints_accumulate_concealment() {
        let mut d = domain();
        d.freeze(10.0e6);
        d.unfreeze(20.0e6);
        d.freeze(30.0e6); // guest sees 20e6 here
        assert_eq!(d.frozen_guest_ns, Some(20_000_000));
        d.unfreeze(90.0e6);
        assert_eq!(d.guest_ns(100.0e6), 30_000_000, "two downtimes concealed");
    }

    #[test]
    fn capture_restores_identically() {
        let mut d = domain();
        d.note_dirty(10 << 20);
        d.freeze(1.0e9);
        let img = d.capture(32 << 20);
        assert_eq!(img.dirty_bytes, 42 << 20);
        assert_eq!(img.guest_ns, 1_000_000_000);
        let d2 = img.restore();
        assert!(d2.frozen());
        assert_eq!(
            d2.kernel.state_fingerprint(),
            d.kernel.state_fingerprint()
        );
        assert_eq!(d.dirty_since_ckpt, 0, "dirty tracking reset");
    }

    #[test]
    fn image_wire_round_trip_restores_identically() {
        let mut d = domain();
        d.note_dirty(10 << 20);
        d.freeze(1.0e9);
        let mut img = d.capture(32 << 20);
        img.pending_bursts.push((7, 123_456));
        let mut residue = GuestResidue::new();
        let mut e = Enc::new();
        img.encode_wire(&mut e, &mut residue);
        let bytes = e.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = DomainImage::decode_wire(&mut dec, &residue).unwrap();
        assert_eq!(dec.remaining(), 0);
        assert_eq!(back.guest_ns, img.guest_ns);
        assert_eq!(back.dirty_bytes, img.dirty_bytes);
        assert_eq!(back.mem_bytes, img.mem_bytes);
        assert_eq!(back.pending_bursts, img.pending_bursts);
        assert_eq!(
            back.kernel.state_fingerprint(),
            img.kernel.state_fingerprint()
        );
    }

    #[test]
    fn dirty_saturates_at_memory_size() {
        let mut d = domain();
        d.note_dirty(1 << 40);
        assert_eq!(d.dirty_since_ckpt, 256 << 20);
    }

    #[test]
    #[should_panic(expected = "frozen twice")]
    fn double_freeze_panics() {
        let mut d = domain();
        d.freeze(1.0);
        d.freeze(2.0);
    }
}
