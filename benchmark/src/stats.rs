//! Order statistics used by every workload: percentiles that refuse when
//! the sample cannot support them, segment medians, and the quartile spread
//! the acceptance rule is written in.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Sort a sample ascending (latencies are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending sample, `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// A tail percentile, refused unless at least [`MIN_BEYOND_TAIL`] samples
/// lie strictly beyond its rank — a p99 of 300 samples is three points, not
/// a percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{:.0} of {n} samples leaves {beyond} beyond it (need {MIN_BEYOND_TAIL})",
            p * 100.0
        ));
    }
    Ok(percentile(sorted, p))
}

/// Which of `segments` equal parts of `[0, window_s)` the instant `t`
/// (seconds since the window began) falls in; `None` outside the window.
pub fn segment_of(t: f64, window_s: f64, segments: usize) -> Option<usize> {
    (t >= 0.0 && t < window_s)
        .then(|| ((t / window_s * segments as f64) as usize).min(segments - 1))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_refused_without_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, exactly 10 beyond.
        assert_eq!(tail_percentile(&s, 0.99).unwrap(), 990.0);
        // p99 of 999: rank 990, 9 beyond.
        let err = tail_percentile(&s[..999], 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p90 of 100 has exactly 10 beyond; p90 of 99 has 9.
        assert_eq!(tail_percentile(&s[..100], 0.90).unwrap(), 90.0);
        assert!(tail_percentile(&s[..99], 0.90).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn segments_by_hand() {
        // A 10 s window in 5 parts of 2 s.
        let part = |t| segment_of(t, 10.0, 5);
        assert_eq!(part(0.0), Some(0));
        assert_eq!(part(1.999), Some(0));
        assert_eq!(part(2.0), Some(1));
        assert_eq!(part(9.999), Some(4));
        assert_eq!(part(10.0), None);
        assert_eq!(part(-0.1), None);
        // Counts 6, 10, 0, 0, 8 over 2 s parts are rates 3, 5, 0, 0, 4:
        // the median part answers 3 rows/s.
        assert_eq!(median(&[3.0, 5.0, 0.0, 0.0, 4.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
