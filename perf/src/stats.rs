//! Order statistics and the tail-percentile picker.
//!
//! Nothing here knows about the repository; every function is plain
//! arithmetic over slices so it can be unit-tested exhaustively.

/// Percentiles the picker may report as the tail. Capped at p99: the
/// serving tier's SLO is written against p99, and higher percentiles do not
/// repeat within a tenth on a shared two-core box.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, for a sample of `n`. Falls back to the median when even p75
/// is too thin; the caller reports the choice next to the value.
pub fn tail_percentile(n: usize) -> f64 {
    let mut best = TAIL_LADDER[0];
    for &p in &TAIL_LADDER {
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        if beyond >= MIN_BEYOND {
            best = p;
        }
    }
    best
}

/// Median and tail of a sample: `(p50, tail value, tail percentile)`.
pub fn median_and_tail(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len());
    (percentile(&sorted, 50.0), percentile(&sorted, p), p)
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so the
/// spreads printed by `--repeat` are the ones the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: not even the median has ten beyond it; still the floor.
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        // never above p99, however large the sample
        assert_eq!(tail_percentile(10_000_000), 99.0);
    }

    #[test]
    fn median_and_tail_pick_from_the_sorted_sample() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p50, tail, p) = median_and_tail(&values);
        assert_eq!(p, 99.0);
        assert_eq!(p50, 500.0);
        assert_eq!(tail, 990.0);
        let beyond = values.iter().filter(|&&v| v > tail).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn nearest_rank_percentile_edges() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
    }
}
