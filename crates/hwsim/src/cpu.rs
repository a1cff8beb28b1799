//! CPU work accounting shared between a guest vCPU and dom0.
//!
//! Xen on the pc3000 nodes runs the guest and the privileged domain on one
//! physical CPU; dom0 work (checkpoint state saving, management commands)
//! steals cycles from the guest. The paper's Fig 5 shows exactly this
//! residue: a CPU-bound guest loop stretches by up to ~27 ms around a
//! checkpoint, and even an `ls` in dom0 costs 5–7 ms. [`SharedCpu`] models
//! a strict-priority processor: dom0 work preempts guest work, and guest
//! bursts stretch by however much dom0 ran while they were in progress.

use sim::{SimDuration, SimTime};

/// A single physical CPU multiplexed between dom0 (high priority) and one
/// guest vCPU (low priority).
///
/// Dom0 reservations are recorded as busy intervals; a guest burst of pure
/// CPU work started at `t` completes once enough non-dom0 time has elapsed.
#[derive(Clone, Debug, Default)]
pub struct SharedCpu {
    /// Sorted, non-overlapping dom0-busy intervals (start, end): every
    /// reservation starts at or after the previous one's end, so the last
    /// end bounds them all. The owner prunes history it can no longer
    /// query with [`SharedCpu::forget_before`].
    dom0_busy: Vec<(SimTime, SimTime)>,
    /// Total dom0 time consumed (for stats).
    pub dom0_total: SimDuration,
}

impl SharedCpu {
    /// Creates an idle CPU.
    pub fn new() -> Self {
        SharedCpu::default()
    }

    /// Reserves dom0 CPU time starting no earlier than `now`, queued behind
    /// any existing dom0 work. Returns the interval actually reserved.
    pub fn reserve_dom0(&mut self, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
        let start = self
            .dom0_busy
            .last()
            .map(|&(_, end)| end.max(now))
            .unwrap_or(now);
        let end = start + work;
        self.dom0_busy.push((start, end));
        self.dom0_total += work;
        (start, end)
    }

    /// Reserves `total` of dom0 work in `slice`-long pieces spaced `period`
    /// apart, starting at `from` — how the credit scheduler spreads
    /// low-priority background work instead of monopolizing the CPU.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is zero or longer than `period`.
    pub fn reserve_dom0_sliced(
        &mut self,
        from: SimTime,
        total: SimDuration,
        slice: SimDuration,
        period: SimDuration,
    ) {
        assert!(!slice.is_zero() && slice <= period, "bad slicing");
        let mut left = total;
        let mut t = from;
        while !left.is_zero() {
            let w = left.min(slice);
            let start = self
                .dom0_busy
                .last()
                .map(|&(_, end)| end.max(t))
                .unwrap_or(t);
            self.dom0_busy.push((start, start + w));
            self.dom0_total += w;
            left = left.saturating_sub(w);
            t = start + period;
        }
    }

    /// Computes when a guest burst of `work` CPU time started at `start`
    /// finishes, accounting for dom0 preemption.
    pub fn guest_completion(&self, start: SimTime, work: SimDuration) -> SimTime {
        // No dom0 work at or after `start` — every burst outside a
        // checkpoint's residue — runs unpreempted: answered from the last
        // interval alone, without looking at history.
        if self.dom0_busy.last().is_none_or(|&(_, end)| end <= start) {
            return start + work;
        }
        let mut t = start;
        let mut left = work;
        loop {
            // Find the next dom0 interval that overlaps [t, t+left).
            let naive_end = t + left;
            let next = self
                .dom0_busy
                .iter()
                .filter(|&&(s, e)| e > t && s < naive_end)
                .min_by_key(|&&(s, _)| s);
            match next {
                None => return naive_end,
                Some(&(s, e)) => {
                    if s > t {
                        // Guest runs until preempted.
                        let ran = s - t;
                        left = left.saturating_sub(ran);
                    }
                    if left.is_zero() {
                        return s;
                    }
                    t = e; // Resume after dom0 finishes.
                }
            }
        }
    }

    /// Total dom0 time falling inside `[a, b)` — the "steal time" a guest
    /// observes over that window.
    pub fn dom0_time_in(&self, a: SimTime, b: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &(s, e) in &self.dom0_busy {
            let lo = s.max(a);
            let hi = e.min(b);
            if hi > lo {
                total += hi - lo;
            }
        }
        total
    }

    /// Discards bookkeeping for intervals entirely before `horizon`, so long
    /// runs don't accumulate unbounded history. Answers for bursts and
    /// windows starting at or after `horizon` are unchanged.
    pub fn forget_before(&mut self, horizon: SimTime) {
        self.dom0_busy.retain(|&(_, e)| e >= horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn unobstructed_burst_runs_at_full_speed() {
        let cpu = SharedCpu::new();
        assert_eq!(cpu.guest_completion(t(10), SimDuration::from_millis(5)), t(15));
    }

    #[test]
    fn dom0_interval_stretches_guest_burst() {
        let mut cpu = SharedCpu::new();
        // Dom0 busy 12–14 ms.
        cpu.reserve_dom0(t(12), SimDuration::from_millis(2));
        // Guest burst 10–15 ms of work: preempted for 2 ms → ends at 17 ms.
        assert_eq!(cpu.guest_completion(t(10), SimDuration::from_millis(5)), t(17));
    }

    #[test]
    fn burst_finishing_exactly_at_preemption_boundary() {
        let mut cpu = SharedCpu::new();
        cpu.reserve_dom0(t(15), SimDuration::from_millis(10));
        // Work fits exactly before dom0 starts.
        assert_eq!(cpu.guest_completion(t(10), SimDuration::from_millis(5)), t(15));
    }

    #[test]
    fn burst_started_inside_dom0_interval_waits() {
        let mut cpu = SharedCpu::new();
        cpu.reserve_dom0(t(10), SimDuration::from_millis(5));
        assert_eq!(cpu.guest_completion(t(12), SimDuration::from_millis(1)), t(16));
    }

    #[test]
    fn multiple_dom0_intervals_accumulate() {
        let mut cpu = SharedCpu::new();
        cpu.reserve_dom0(t(11), SimDuration::from_millis(1)); // 11–12
        cpu.reserve_dom0(t(14), SimDuration::from_millis(1)); // queued: 14–15
        let done = cpu.guest_completion(t(10), SimDuration::from_millis(4));
        // 1 ms run, 1 ms steal, 2 ms run, 1 ms steal, 1 ms run → ends 16 ms.
        assert_eq!(done, t(16));
    }

    #[test]
    fn dom0_reservations_queue_fifo() {
        let mut cpu = SharedCpu::new();
        let (s1, e1) = cpu.reserve_dom0(t(10), SimDuration::from_millis(5));
        let (s2, _e2) = cpu.reserve_dom0(t(11), SimDuration::from_millis(5));
        assert_eq!((s1, e1), (t(10), t(15)));
        assert_eq!(s2, t(15), "second dom0 job waits for the first");
    }

    #[test]
    fn steal_time_window_query() {
        let mut cpu = SharedCpu::new();
        cpu.reserve_dom0(t(10), SimDuration::from_millis(4));
        assert_eq!(cpu.dom0_time_in(t(11), t(13)), SimDuration::from_millis(2));
        assert_eq!(cpu.dom0_time_in(t(20), t(30)), SimDuration::ZERO);
    }

    #[test]
    fn forget_before_trims_history() {
        let mut cpu = SharedCpu::new();
        cpu.reserve_dom0(t(1), SimDuration::from_millis(1));
        cpu.reserve_dom0(t(100), SimDuration::from_millis(1));
        cpu.forget_before(t(50));
        assert_eq!(cpu.dom0_time_in(t(0), t(50)), SimDuration::ZERO);
        assert_eq!(cpu.dom0_time_in(t(100), t(102)), SimDuration::from_millis(1));
    }
}
