//! Deterministic fault plans for robustness experiments.
//!
//! A [`FaultPlan`] describes the control-plane faults a run injects:
//! i.i.d. message loss and scheduled node crashes (the node's control
//! traffic stops at a virtual instant). The plan carries its own seed and
//! hands out derived [`SimRng`] streams, so fault decisions never consume
//! draws from the component streams they perturb — two runs with the same
//! seed and the same plan produce identical traces, and a plan whose loss
//! is exactly 0 or 1 consumes *no* draws at all (the [`SimRng::chance`]
//! extremes are draw-free), which is what lets a fully-partitioned run be
//! compared byte-for-byte against an undisturbed one.
//!
//! The plan is interpreted by the control LAN (`hwsim::ControlLan`), not
//! here: it drops frames and enforces crashes. Duplication and extra
//! delay on that LAN come from the buggify points `lan.send_dup` and
//! `lan.send_delay`; straggling nodes from the bench lab's
//! `LabConfig::straggler_stall`.

use crate::rng::SimRng;
use crate::time::SimTime;

/// A deterministic, seeded fault-injection plan.
///
/// Keys identifying nodes are raw `u32` addresses (the simulator's
/// `NodeAddr` payload) so the plan stays free of higher-layer types.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    loss: f64,
    crashes: Vec<(u32, SimTime)>,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Drops each control message i.i.d. with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss out of range");
        self.loss = p;
        self
    }

    /// Crashes node `key` at virtual time `at`: from then on its control
    /// traffic (sent and received) is dropped.
    pub fn with_crash(mut self, key: u32, at: SimTime) -> Self {
        self.crashes.push((key, at));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Control-message loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The scheduled crash time of node `key`, if any.
    pub fn crash_time(&self, key: u32) -> Option<SimTime> {
        self.crashes
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, at)| at)
    }

    /// True if node `key` has crashed by `now`.
    pub fn crashed(&self, key: u32, now: SimTime) -> bool {
        self.crash_time(key).is_some_and(|at| at <= now)
    }

    /// A derived random stream for the fault site salted with `salt`.
    /// Distinct sites use distinct salts so their decisions never
    /// interleave, and no site ever draws from a component's own stream.
    pub fn stream(&self, salt: u32) -> SimRng {
        SimRng::for_component(self.seed, salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::new(7)
            .with_loss(0.1)
            .with_crash(4, SimTime::from_nanos(10 * 1_000_000_000));
        assert_eq!(p.seed(), 7);
        assert_eq!(p.loss(), 0.1);
        assert_eq!(p.crash_time(4), Some(SimTime::from_nanos(10 * 1_000_000_000)));
        assert_eq!(p.crash_time(5), None);
        assert!(!p.crashed(4, SimTime::from_nanos(9 * 1_000_000_000)));
        assert!(p.crashed(4, SimTime::from_nanos(10 * 1_000_000_000)));
    }

    #[test]
    fn streams_are_deterministic_and_salt_separated() {
        let p = FaultPlan::new(42);
        let mut a = p.stream(1);
        let mut b = p.stream(1);
        let mut c = p.stream(2);
        let va: Vec<u64> = (0..8).map(|_| a.range_u64(0, 1 << 32)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.range_u64(0, 1 << 32)).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.range_u64(0, 1 << 32)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
