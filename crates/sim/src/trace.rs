//! Time-series capture and post-processing for experiment output.
//!
//! Benchmarks record raw samples with [`Series`] and reduce them to the
//! binned throughput / per-iteration plots the paper's figures use.

use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// A time-stamped scalar series (e.g. bytes received, iteration latency).
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Appends a sample. Samples must be pushed in nondecreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "series samples out of order");
        }
        self.points.push((t, v));
    }

    /// The raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sums samples into fixed-width bins over `[start, end)` and converts
    /// each bin's total to a per-second rate. This is how the paper plots
    /// throughput ("averages taken over 20 ms intervals").
    pub fn binned_rate(&self, start: SimTime, end: SimTime, bin: SimDuration) -> Vec<(f64, f64)> {
        assert!(end > start && !bin.is_zero(), "bad binning window");
        let nbins = (end - start).as_nanos().div_ceil(bin.as_nanos());
        let mut sums = vec![0.0; nbins as usize];
        for &(t, v) in &self.points {
            if t < start || t >= end {
                continue;
            }
            let idx = ((t - start).as_nanos() / bin.as_nanos()) as usize;
            sums[idx] += v;
        }
        let bin_secs = bin.as_secs_f64();
        sums.into_iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    start.as_secs_f64() + (i as f64 + 0.5) * bin_secs,
                    s / bin_secs,
                )
            })
            .collect()
    }

    /// Total of all sample values.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).sum()
    }

    /// Renders the series as `time_s,value` CSV with a header line.
    pub fn to_csv(&self, value_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "time_s,{value_name}");
        for &(t, v) in &self.points {
            let _ = writeln!(out, "{:.9},{v}", t.as_secs_f64());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn binned_rate_sums_and_normalizes() {
        let mut s = Series::new();
        // 1000 units at 5 ms and 10 ms, 500 at 25 ms.
        s.push(t(5), 1000.0);
        s.push(t(10), 1000.0);
        s.push(t(25), 500.0);
        let bins = s.binned_rate(t(0), t(40), SimDuration::from_millis(20));
        assert_eq!(bins.len(), 2);
        // First bin: 2000 units / 0.02 s = 100000 units/s.
        assert!((bins[0].1 - 100_000.0).abs() < 1e-9);
        assert!((bins[1].1 - 25_000.0).abs() < 1e-9);
        // Bin centers.
        assert!((bins[0].0 - 0.010).abs() < 1e-12);
        assert!((bins[1].0 - 0.030).abs() < 1e-12);
    }

    #[test]
    fn binned_rate_ignores_out_of_window() {
        let mut s = Series::new();
        s.push(t(5), 7.0);
        s.push(t(100), 9.0);
        let bins = s.binned_rate(t(0), t(50), SimDuration::from_millis(50));
        assert!((bins[0].1 - 7.0 / 0.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut s = Series::new();
        s.push(t(5), 1.0);
        s.push(t(4), 1.0);
    }

    #[test]
    fn csv_format() {
        let mut s = Series::new();
        s.push(t(1), 2.0);
        let csv = s.to_csv("bytes");
        assert!(csv.starts_with("time_s,bytes\n"));
        assert!(csv.contains("0.001000000,2"));
    }

    #[test]
    fn total_sums() {
        let mut s = Series::new();
        s.push(t(1), 2.0);
        s.push(t(2), 3.5);
        assert!((s.total() - 5.5).abs() < 1e-12);
    }
}
