//! Small statistics helpers used when summarizing experiment results.

/// FNV-1a over a byte string: the workspace's one cheap, dependency-free
/// hash — result fingerprints, buggify point-name streams.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; zero for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `p`-quantile (0.0–1.0) by nearest-rank on a sorted copy.
///
/// NaN inputs are a caller bug: they trip a debug assertion, and in
/// release builds `total_cmp` sorts them after every real number (IEEE
/// total order) so the function still returns the documented nearest-rank
/// value instead of panicking mid-sort.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&p), "p out of range");
    debug_assert!(!xs.iter().any(|x| x.is_nan()), "NaN in percentile input");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Fraction of samples whose absolute deviation from `center` is ≤ `tol`.
pub fn fraction_within(xs: &[f64], center: f64, tol: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.iter().filter(|&&x| (x - center).abs() <= tol).count();
    n as f64 / xs.len() as f64
}

/// Minimum of a slice; zero for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Maximum of a slice; zero for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.97), 5.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_of_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn percentile_one_element_any_quantile() {
        assert_eq!(percentile(&[7.5], 0.0), 7.5);
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn percentile_boundary_quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0, "p=0 is the minimum");
        assert_eq!(percentile(&xs, 1.0), 4.0, "p=1 is the maximum");
        // Just above a rank boundary: ceil(0.25 * 4) = 1 → first element;
        // ceil(0.26 * 4) = 2 → second.
        assert_eq!(percentile(&xs, 0.25), 1.0);
        assert_eq!(percentile(&xs, 0.26), 2.0);
    }

    #[test]
    fn percentile_duplicate_values() {
        // Runs of equal samples must not confuse nearest-rank selection.
        let xs = [2.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&xs, 0.0), 2.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.8), 2.0, "rank 4 is still in the run");
        assert_eq!(percentile(&xs, 0.81), 9.0, "rank 5 leaves the run");
        assert_eq!(percentile(&xs, 1.0), 9.0);
        let all_same = [5.0; 7];
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&all_same, p), 5.0);
        }
    }

    #[test]
    fn fraction_within_counts() {
        let xs = [10.0, 10.5, 11.0, 20.0];
        assert!((fraction_within(&xs, 10.0, 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn max_of_empty_is_zero() {
        assert_eq!(max(&[]), 0.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
    }
}
