//! Log-bucketed latency accounting for the SLO harness.
//!
//! Tail percentiles over millions of samples need O(1) recording and a
//! fixed footprint, not a sorted vector: [`LatencyHistogram`] buckets
//! nanosecond values by (power of two x linear sub-bucket), giving a worst
//! case relative quantization error of `1/SUB_BUCKETS` (~3%) — far below
//! the run-to-run noise of any latency measurement, and independent of the
//! sample count.

/// Linear sub-buckets per power-of-two decade.
const SUB_BUCKETS: usize = 32;
/// Number of power-of-two decades (2^0 .. 2^63 ns covers any latency).
const DECADES: usize = 64;

/// Fixed-footprint histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; DECADES * SUB_BUCKETS], total: 0, max_ns: 0 }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let decade = 63 - ns.leading_zeros() as usize;
        // Position within [2^decade, 2^(decade+1)): the top bits below the
        // leading one select the linear sub-bucket.
        let sub = ((ns - (1u64 << decade)) >> (decade - 5)) as usize;
        decade * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// Lower bound of a bucket, used to report percentile values.
    fn bucket_floor(b: usize) -> u64 {
        if b < SUB_BUCKETS {
            return b as u64;
        }
        let decade = b / SUB_BUCKETS;
        let sub = (b % SUB_BUCKETS) as u64;
        (1u64 << decade) + (sub << (decade - 5))
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Value at quantile `q` in `[0, 1]` (0 when empty). Reported as the
    /// bucket floor, except the top bucket which reports the exact max.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let last_occupied = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if b == last_occupied {
                    // The exact maximum lives in this bucket and is a
                    // tighter answer than the bucket floor.
                    return self.max_ns;
                }
                return Self::bucket_floor(b).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// `(p50, p99, p999)` in nanoseconds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile_ns(0.50), self.quantile_ns(0.99), self.quantile_ns(0.999))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut prev = 0;
        for ns in [0u64, 1, 31, 32, 33, 100, 1_000, 65_536, 1 << 30, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(b >= prev, "bucket order violated at {ns}");
            prev = b;
            assert!(LatencyHistogram::bucket_floor(b) <= ns, "floor above value at {ns}");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        let p50 = h.quantile_ns(0.5) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50 off: {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99 off: {p99}");
        assert_eq!(h.quantile_ns(1.0), 100_000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..5_000u64 {
            let v = (i * 7919) % 1_000_000;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.percentiles(), both.percentiles());
        assert_eq!(a.max_ns(), both.max_ns());
    }

    #[test]
    fn tail_is_distinguished_from_body() {
        let mut h = LatencyHistogram::new();
        for _ in 0..9_900 {
            h.record(1_000);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        assert!(h.quantile_ns(0.5) < 2_000);
        assert!(h.quantile_ns(0.999) > 500_000, "p999 must surface the slow 1%");
    }
}
