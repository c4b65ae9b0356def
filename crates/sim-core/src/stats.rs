//! Simulation statistics: named counters and small integer histograms.
//!
//! The paper's evaluation reports page-fault counts, eviction counts,
//! untouch levels per interval (Tables III/IV) and derived speedups.

use std::collections::BTreeMap;

/// A monotonically increasing named counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Histogram over small non-negative integer observations
/// (e.g. per-interval untouch levels, walk depths).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// How many observations equalled `value`.
    #[must_use]
    pub fn bucket(&self, value: u64) -> u64 {
        self.buckets.get(&value).copied().unwrap_or(0)
    }

    /// Nearest-rank quantile: the smallest recorded value whose
    /// cumulative count reaches `⌈q·count⌉`.
    ///
    /// Edge cases are explicit: an empty histogram reports 0 for every
    /// `q`; a single-sample histogram reports that sample for every `q`;
    /// `q` is clamped to `[0, 1]` (so `q = 1` is the maximum and `q ≤ 0`
    /// the minimum); a NaN `q` is treated as 0 and reports the minimum.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (value, n) in self.iter() {
            cum = cum.saturating_add(n);
            if cum >= rank {
                return value;
            }
        }
        self.max
    }

    /// Median (nearest-rank).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (nearest-rank).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (nearest-rank).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Iterate `(value, count)` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &c)| (v, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::new();
        for v in [1, 2, 2, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(99), 0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_empty_histogram_report_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn quantiles_single_bucket_report_that_value() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(42);
        }
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p95(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn quantiles_single_sample_report_that_sample() {
        // One observation: every quantile is that sample — the rank
        // floor of 1 must not index past it and q=0 must not miss it.
        let mut h = Histogram::new();
        h.record(7);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7, "q = {q}");
        }
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p99(), 7);
    }

    #[test]
    fn quantile_nan_q_reports_minimum() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(7);
        assert_eq!(h.quantile(f64::NAN), 3);
        assert_eq!(Histogram::new().quantile(f64::NAN), 0);
    }

    #[test]
    fn quantiles_nearest_rank_over_spread() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p95(), 95);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to the first rank");
    }

    #[test]
    fn quantiles_saturate_out_of_range_q() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(7);
        assert_eq!(h.quantile(-1.0), 3, "q below 0 clamps to the minimum");
        assert_eq!(h.quantile(2.0), 7, "q above 1 clamps to the maximum");
        // u64::MAX observations must not overflow the rank arithmetic.
        let mut big = Histogram::new();
        big.record(u64::MAX);
        assert_eq!(big.p99(), u64::MAX);
    }

    #[test]
    fn quantile_rank_boundaries_between_buckets() {
        // Two buckets of 5: ranks 1..=5 are value 1, ranks 6..=10 are
        // value 9. The nearest-rank boundary sits exactly at q = 0.5.
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(1);
        }
        for _ in 0..5 {
            h.record(9);
        }
        assert_eq!(h.quantile(0.5), 1, "rank 5 is still the low bucket");
        assert_eq!(h.quantile(0.500_001), 9, "rank 6 crosses over");
        assert_eq!(h.p95(), 9);
        assert_eq!(h.quantile(0.1), 1);
    }

    #[test]
    fn quantile_tiny_q_on_large_count_hits_minimum() {
        // ⌈q·count⌉ rounds to 0 for tiny q; the rank floor of 1 must
        // keep the answer at the minimum, not skip every bucket.
        let mut h = Histogram::new();
        for v in [4, 8, 15] {
            for _ in 0..1000 {
                h.record(v);
            }
        }
        assert_eq!(h.quantile(1e-9), 4);
        assert_eq!(h.quantile(0.999_999), 15);
    }

    #[test]
    fn zero_valued_observations_are_real_samples() {
        // A histogram of zeros is not "empty": count advances, the
        // quantiles legitimately report 0 and mean stays 0.
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.bucket(0), 3);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_iter_sorted() {
        let mut h = Histogram::new();
        for v in [9, 1, 5, 1] {
            h.record(v);
        }
        let items: Vec<_> = h.iter().collect();
        assert_eq!(items, vec![(1, 2), (5, 1), (9, 1)]);
    }
}
