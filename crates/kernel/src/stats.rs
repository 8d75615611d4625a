//! Statistics primitives: running means, histograms, and confidence
//! intervals.
//!
//! The experiment harness reports means with 95% confidence intervals over
//! multiple perturbed runs, mirroring the methodology of the paper (which
//! follows Alameldeen et al., *"Simulating a $2M Commercial Server on a $2K
//! PC"*).

use std::fmt;

/// An online mean/variance accumulator (Welford's algorithm).
///
/// Used for, e.g., the dynamic average round-trip latency that PATCH's
/// adaptive tenure timeout is derived from.
///
/// # Examples
///
/// ```
/// use patchsim_kernel::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 6.0] { s.record(x); }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples; zero if no samples have been recorded.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n − 1 denominator); zero with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// An exponentially weighted moving average, used for adaptive protocol
/// timeouts (PATCH sets its tenure timeout from the *dynamic* average
/// round-trip latency).
///
/// # Examples
///
/// ```
/// use patchsim_kernel::stats::Ewma;
/// let mut e = Ewma::new(0.5, 100.0);
/// e.record(200.0);
/// assert_eq!(e.value(), 150.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]` and an
    /// initial value.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(alpha: f64, initial: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            alpha,
            value: initial,
        }
    }

    /// Folds one observation into the average.
    pub fn record(&mut self, x: f64) {
        self.value += self.alpha * (x - self.value);
    }

    /// Current smoothed value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// A power-of-two bucketed histogram for latency-style distributions.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`, except bucket 0 which also
/// holds zero. 32 buckets cover every plausible cycle count.
///
/// # Examples
///
/// ```
/// use patchsim_kernel::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(5);
/// h.record(6);
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() > 5.0 && h.mean() < 6.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            (63 - value.leading_zeros()).min(31) as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or zero if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples; zero if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile of the recorded samples, for `p` in `[0, 1]`.
    ///
    /// Returns the lower bound of the power-of-two bucket containing the
    /// percentile rank (so the value is exact to within one octave), or
    /// zero for an empty histogram. `percentile(1.0)` is clamped to the
    /// exact recorded maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        if p >= 1.0 {
            return self.max;
        }
        // Rank of the percentile sample, 1-based (ceil(p * n), at least 1).
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                return lower.min(self.max);
            }
        }
        self.max
    }

    /// Reconstructs a histogram from its sparse [`Histogram::buckets`]
    /// representation plus the exact sample `sum` and `max` — the inverse
    /// of serializing those three pieces, used by the on-disk result
    /// store to round-trip latency distributions.
    ///
    /// Returns `None` if any `lower` bound is not a value
    /// [`Histogram::buckets`] can produce (zero or a power of two below
    /// 2³²) or if a bucket repeats, so a decoder can treat a malformed
    /// input as corrupt instead of panicking.
    pub fn from_parts(pairs: &[(u64, u64)], sum: u64, max: u64) -> Option<Self> {
        let mut h = Histogram {
            buckets: [0; 32],
            count: 0,
            sum,
            max,
        };
        for &(lower, count) in pairs {
            let index = match lower {
                0 => 0,
                l if l.is_power_of_two() => l.trailing_zeros() as usize,
                _ => return None,
            };
            // Index 0 is spelled `lower == 0`; `lower == 1` never occurs.
            if lower == 1 || index >= h.buckets.len() || h.buckets[index] != 0 {
                return None;
            }
            h.buckets[index] = count;
            h.count = h.count.checked_add(count)?;
        }
        Some(h)
    }

    /// Returns `(lower_bound, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

/// A sample mean with a symmetric 95% confidence half-width, produced from
/// repeated simulation runs with perturbed seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`mean ± half_width`).
    pub half_width: f64,
    /// Number of samples.
    pub n: usize,
}

impl ConfidenceInterval {
    /// Computes the 95% confidence interval of the mean of `samples`.
    ///
    /// Uses Student's t critical values for small n (the common case: the
    /// paper used a handful of perturbed runs per data point).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "confidence interval of no samples");
        let n = samples.len();
        let mut stats = RunningStats::new();
        for &s in samples {
            stats.record(s);
        }
        let half_width = if n < 2 {
            0.0
        } else {
            t_critical_95(n - 1) * stats.std_dev() / (n as f64).sqrt()
        };
        ConfidenceInterval {
            mean: stats.mean(),
            half_width,
            n,
        }
    }

    /// Lower edge of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether this interval overlaps `other` — used to decide if two
    /// protocol configurations are statistically distinguishable.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.low() <= other.high() && other.low() <= self.high()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

/// Two-sided 95% Student's t critical value for `df` degrees of freedom.
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_and_variance() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.571428571428571).abs() < 1e-9);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_empty_is_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.25, 0.0);
        for _ in 0..200 {
            e.record(100.0);
        }
        assert!((e.value() - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0, 1.0);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 1)]);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
    }

    #[test]
    fn histogram_merge_sums_everything() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(100);
        let mut b = Histogram::new();
        b.record(3);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 3 + 100 + 3 + 5000);
        assert_eq!(a.max(), 5000);
        let buckets: Vec<_> = a.buckets().collect();
        assert_eq!(buckets, vec![(2, 2), (64, 1), (4096, 1)]);
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 8, 16, 32, 64, 128, 1000] {
            h.record(v);
        }
        // 10 samples: p50 is the 5th (value 8, bucket lower bound 8).
        assert_eq!(h.percentile(0.5), 8);
        // p90 is the 9th sample (128).
        assert_eq!(h.percentile(0.9), 128);
        // p100 clamps to the exact max.
        assert_eq!(h.percentile(1.0), 1000);
        // p -> 0 picks the first non-empty bucket.
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn histogram_percentile_empty_is_zero() {
        assert_eq!(Histogram::new().percentile(0.99), 0);
        // The whole percentile range is defined on an empty histogram.
        assert_eq!(Histogram::new().percentile(0.0), 0);
        assert_eq!(Histogram::new().percentile(1.0), 0);
        assert_eq!(Histogram::new().max(), 0);
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn histogram_single_bucket_percentiles_are_flat() {
        // All samples in one power-of-two bucket: every percentile must
        // return that bucket's lower bound, and p100 the exact max.
        let mut h = Histogram::new();
        for v in [70u64, 64, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.buckets().count(), 1);
        for p in [0.0, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(h.percentile(p), 64, "p{p} in a single-bucket histogram");
        }
        assert_eq!(h.percentile(1.0), 127);
        // A single sample degenerates the same way.
        let mut one = Histogram::new();
        one.record(5);
        assert_eq!(one.percentile(0.5), 4);
        assert_eq!(one.percentile(1.0), 5);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        for v in [3u64, 9, 4096] {
            a.record(v);
        }
        let before: Vec<_> = a.buckets().collect();

        // Non-empty ← empty: nothing changes.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 3 + 9 + 4096);
        assert_eq!(a.max(), 4096);
        assert_eq!(a.buckets().collect::<Vec<_>>(), before);

        // Empty ← non-empty: adopts the other side wholesale.
        let mut b = Histogram::new();
        b.merge(&a);
        assert_eq!(b.count(), a.count());
        assert_eq!(b.sum(), a.sum());
        assert_eq!(b.max(), a.max());
        assert_eq!(b.buckets().collect::<Vec<_>>(), before);
        assert_eq!(b.percentile(0.5), a.percentile(0.5));

        // Empty ← empty stays empty.
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.percentile(0.5), 0);
    }

    #[test]
    fn histogram_from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 9, 100, 4096, u64::MAX / 2] {
            h.record(v);
        }
        let pairs: Vec<_> = h.buckets().collect();
        let rebuilt = Histogram::from_parts(&pairs, h.sum(), h.max()).unwrap();
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.sum(), h.sum());
        assert_eq!(rebuilt.max(), h.max());
        assert_eq!(rebuilt.buckets().collect::<Vec<_>>(), pairs);
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(rebuilt.percentile(p), h.percentile(p));
        }
        // An empty histogram round-trips too.
        let empty = Histogram::from_parts(&[], 0, 0).unwrap();
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn histogram_from_parts_rejects_malformed_input() {
        // Not a power of two.
        assert!(Histogram::from_parts(&[(3, 1)], 3, 3).is_none());
        // Bucket 0 is spelled with lower bound 0, never 1.
        assert!(Histogram::from_parts(&[(1, 1)], 1, 1).is_none());
        // Duplicate bucket.
        assert!(Histogram::from_parts(&[(4, 1), (4, 2)], 12, 5).is_none());
        // Past the last bucket.
        assert!(Histogram::from_parts(&[(1u64 << 40, 1)], 0, 0).is_none());
        // Counts that overflow the total.
        assert!(Histogram::from_parts(&[(0, u64::MAX), (4, 1)], 0, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn histogram_percentile_rejects_out_of_range() {
        let _ = Histogram::new().percentile(1.5);
    }

    #[test]
    fn confidence_interval_single_sample() {
        let ci = ConfidenceInterval::from_samples(&[5.0]);
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn confidence_interval_known_value() {
        // n=4, sd=1 => hw = 3.182 * 1/2
        let ci = ConfidenceInterval::from_samples(&[4.0, 5.0, 5.0, 6.0]);
        assert!((ci.mean - 5.0).abs() < 1e-12);
        let expected = 3.182 * (2.0f64 / 3.0).sqrt() / 2.0;
        assert!((ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn interval_overlap_detection() {
        let a = ConfidenceInterval {
            mean: 1.0,
            half_width: 0.2,
            n: 5,
        };
        let b = ConfidenceInterval {
            mean: 1.3,
            half_width: 0.2,
            n: 5,
        };
        let c = ConfidenceInterval {
            mean: 2.0,
            half_width: 0.1,
            n: 5,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn t_table_sane() {
        assert!(t_critical_95(1) > t_critical_95(2));
        assert_eq!(t_critical_95(1000), 1.96);
    }
}
