//! Order statistics of a run's samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples (the value at 1-based rank `ceil(p/100 · n)`).
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile of `n ≥ 1` samples. The
/// product is nudged down so that, e.g., `0.999 · 10000` ranks 9990, not
/// 9991 after rounding error.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Fewest samples for which the `p`-th percentile has at least ten
/// samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= 10)
        .expect("some n qualifies")
}

/// The highest of `candidates` (percentiles, e.g. `[99.9, 99.0, 90.0]`)
/// that keeps at least ten of `n` samples beyond it.
pub fn highest_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= 10)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// A percentile of a sample, reported with the count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// Which percentile.
    pub p: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let n = s.len();
    let r = rank(n, p);
    Percentile {
        p,
        value: s[r - 1],
        n,
        beyond: n - r,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
        let cands = [99.9, 99.0, 95.0, 90.0, 50.0];
        assert_eq!(highest_tail(5000, &cands), Some(99.0));
        assert_eq!(highest_tail(10_000, &cands), Some(99.9));
        assert_eq!(highest_tail(150, &cands), Some(90.0));
        assert_eq!(highest_tail(19, &cands), None);
    }

    #[test]
    fn percentile_reports_value_and_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&xs, 99.0);
        assert_eq!((p.value, p.n, p.beyond), (990.0, 1000, 10));
        let p = percentile(&xs, 50.0);
        assert_eq!((p.value, p.beyond), (500.0, 500));
        assert_eq!(percentile(&[7.0], 99.0).value, 7.0);
    }
}
