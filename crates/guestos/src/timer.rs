//! Jiffies accounting and the kernel timer wheel.
//!
//! "By stopping the periodic timer, we suspend the delivery of timer
//! interrupts to the guest kernel... timer jobs inside the system will not
//! be scheduled since time does not progress" (§4.1–4.2). The wheel is
//! keyed by jiffies; if ticks stop arriving, nothing here can fire — the
//! firewall gets timer suspension for free.

use std::collections::BTreeMap;

use crate::sched::Tid;

/// A jiffies-keyed timer wheel.
#[derive(Clone, Debug, Default)]
pub struct TimerWheel {
    entries: BTreeMap<u64, Vec<Tid>>,
    armed: usize,
}

impl TimerWheel {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Arms a wakeup for `tid` at absolute jiffy `expires`.
    pub fn arm(&mut self, expires: u64, tid: Tid) {
        self.entries.entry(expires).or_default().push(tid);
        self.armed += 1;
    }

    /// Pops every entry due at or before `jiffies`.
    pub fn expire(&mut self, jiffies: u64) -> Vec<Tid> {
        let mut out = Vec::new();
        let due: Vec<u64> = self.entries.range(..=jiffies).map(|(&j, _)| j).collect();
        for j in due {
            if let Some(mut v) = self.entries.remove(&j) {
                self.armed -= v.len();
                out.append(&mut v);
            }
        }
        out
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// True if nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Earliest armed expiry, if any.
    pub fn next_expiry(&self) -> Option<u64> {
        self.entries.keys().next().copied()
    }
}

// The wheel in jiffy order; the armed count is re-derived on decode.
ckptstore::wire!(struct TimerWheel {
    entries,
    derived armed = entries.values().map(Vec::len).sum(),
});

/// Converts a sleep request to an absolute wake jiffy, with Linux rounding:
/// ceil to whole ticks, plus one tick for the in-progress one.
pub fn sleep_to_wake_jiffy(now_jiffies: u64, ns: u64, tick_ns: u64) -> u64 {
    let ticks = ns.div_ceil(tick_ns);
    now_jiffies + ticks + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expire_pops_all_due_entries_in_order() {
        let mut w = TimerWheel::new();
        w.arm(10, Tid(1));
        w.arm(5, Tid(2));
        w.arm(10, Tid(3));
        w.arm(20, Tid(4));
        let fired = w.expire(10);
        assert_eq!(fired, vec![Tid(2), Tid(1), Tid(3)]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_expiry(), Some(20));
    }

    #[test]
    fn expire_with_nothing_due_is_empty() {
        let mut w = TimerWheel::new();
        w.arm(10, Tid(1));
        assert!(w.expire(9).is_empty());
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn usleep_10ms_at_hz100_wakes_two_ticks_later() {
        // The Fig 4 baseline: 10 ms sleep measures ~20 ms per iteration.
        let tick = 10_000_000; // 10 ms.
        assert_eq!(sleep_to_wake_jiffy(100, 10_000_000, tick), 102);
        // 1 ns sleep still waits into the second tick boundary.
        assert_eq!(sleep_to_wake_jiffy(100, 1, tick), 102);
        // 10.5 ms rounds up to 2 ticks + 1.
        assert_eq!(sleep_to_wake_jiffy(100, 10_500_000, tick), 103);
    }
}
