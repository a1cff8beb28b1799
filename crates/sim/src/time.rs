//! Simulation time and duration types.
//!
//! All simulation time is kept in whole nanoseconds in a `u64`, which covers
//! about 584 years from the simulation epoch — far beyond any experiment.
//! Nanosecond resolution matters here: the paper's transparency residuals are
//! tens of microseconds, and inter-packet gaps on a 1 Gbps link are ~12 µs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation timeline, in nanoseconds since the epoch.
///
/// This is the hidden "true" time of the simulated physical world. Hosts
/// never observe it directly; they read drifting hardware clocks
/// (`hwsim`-level) or virtualized guest time (`vmm`-level).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanosecond count since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulation logic should
    /// never compute a negative elapsed time.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, non-finite, or overflows the range.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s <= u64::MAX as f64 / 1e9,
            "invalid duration seconds: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Multiplies the duration by a non-negative float, rounding to ns.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Computes the serialization time of `bytes` at `bits_per_sec`.
///
/// This is the standard wire-time helper used by link, NIC, and disk models.
pub fn transmission_time(bytes: u64, bits_per_sec: u64) -> SimDuration {
    assert!(bits_per_sec > 0, "zero bandwidth");
    // Use u128 to avoid overflow on large transfers.
    let ns = (bytes as u128 * 8 * 1_000_000_000) / bits_per_sec as u128;
    SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
}

/// A fixed line rate that remembers the last transmission time it gave.
///
/// One direction of a link carries one frame size nearly all the time
/// (full segments one way, acks the other), and the 128-bit divide by a
/// run-time rate is a library call, so a sender asks its rate: a repeated
/// size costs a compare. The answer is always
/// exactly [`transmission_time`].
#[derive(Clone, Copy, Debug)]
pub struct LineRate {
    bits_per_sec: u64,
    last: (u64, SimDuration),
}

// `#[inline]` throughout: compiled where it is used, the type leaves the
// code generated for this crate — the scheduler's hot loop included — as it
// was; without it `Scheduler::take` grew by half and `iperf_ckpt` slowed.
impl LineRate {
    /// A rate of `bits_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics on a zero rate.
    #[inline]
    pub fn new(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "zero bandwidth");
        LineRate { bits_per_sec, last: (0, SimDuration::ZERO) }
    }

    /// [`transmission_time`] of `bytes` at this rate.
    #[inline]
    pub fn transmission_time(&mut self, bytes: u64) -> SimDuration {
        if bytes != self.last.0 {
            self.last = (bytes, transmission_time(bytes, self.bits_per_sec));
        }
        self.last.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(5_000);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn saturating_ops_clamp() {
        let t0 = SimTime::from_nanos(10);
        let t1 = SimTime::from_nanos(20);
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn transmission_time_matches_hand_math() {
        // 1500 bytes at 1 Gbps = 12 µs.
        assert_eq!(
            transmission_time(1500, 1_000_000_000),
            SimDuration::from_micros(12)
        );
        // 100 MB at 100 Mbps = 8 s.
        assert_eq!(
            transmission_time(100_000_000, 100_000_000),
            SimDuration::from_secs(8)
        );
    }

    #[test]
    fn line_rate_remembers_only_what_it_last_answered() {
        // The memo starts at zero bytes, changes size both ways, and holds
        // a saturated answer.
        let sizes = [0, 0, 1_526, 1_526, 78, 1_526, u64::MAX, u64::MAX, 78];
        for bps in [1, 1_000_000_000, u64::MAX] {
            let mut rate = LineRate::new(bps);
            for bytes in sizes {
                let want = transmission_time(bytes, bps);
                assert_eq!(rate.transmission_time(bytes), want, "{bytes} bytes at {bps} b/s");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn line_rate_refuses_a_zero_rate() {
        let _ = LineRate::new(0);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn negative_elapsed_panics() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 1500);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
