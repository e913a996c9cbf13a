//! Online statistics used by the experiment harness.
//!
//! Two collectors cover the harness's measurements:
//!
//! * [`Samples`] — exact sample set with percentile queries (flow completion
//!   times; the paper reports medians, 90th percentiles and CDFs);
//! * [`TimeSeries`] — decimated `(t, value)` trace for figures.

use crate::time::SimTime;

/// Exact sample collector with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// New, empty collector.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty())
            .then(|| self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (q in `[0,1]`) by linear interpolation between order
    /// statistics, matching `numpy.percentile`'s default. `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return Some(self.values[0]); // n == 1 checked above
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Median (0.5-quantile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Empirical CDF as `(value, cumulative_fraction)` points, one per
    /// sample, suitable for plotting Figure 15-style curves.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.values.len();
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Immutable view of the raw samples (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A decimated `(t_seconds, value)` trace for figure output.
///
/// Recording every event would produce unwieldy traces; `TimeSeries` keeps at
/// most one point per `resolution` of simulated time (always keeping the most
/// recent value within each bucket, plus the first point).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    resolution_secs: f64,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// New trace with the given bucket width in seconds (0 keeps everything).
    pub fn new(resolution_secs: f64) -> Self {
        assert!(resolution_secs >= 0.0);
        TimeSeries {
            resolution_secs,
            points: Vec::new(),
        }
    }

    /// Record `value` at time `now`.
    pub fn record(&mut self, now: SimTime, value: f64) {
        let t = now.as_secs_f64();
        if let Some(last) = self.points.last_mut() {
            if self.resolution_secs > 0.0 && t - last.0 < self.resolution_secs {
                // Same bucket: keep the latest value.
                last.1 = value;
                return;
            }
        }
        self.points.push((t, value));
    }

    /// The recorded `(t, value)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The bucket width in seconds this trace was built with.
    pub fn resolution(&self) -> f64 {
        self.resolution_secs
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert!((s.median().unwrap() - 2.5).abs() < 1e-12);
        // p90 of [1,2,3,4]: pos = 2.7 -> 3*0.3 + 4*0.7... careful:
        // pos=0.9*3=2.7, lo=2 (value 3), hi=3 (value 4), frac=0.7 -> 3.7
        assert!((s.quantile(0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (5.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn empty_samples() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn single_sample_quantiles_are_the_sample() {
        let mut s = Samples::new();
        s.push(42.0);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(s.quantile(q), Some(42.0), "q = {q}");
        }
    }

    #[test]
    fn duplicate_samples_interpolate_flat() {
        let mut s = Samples::new();
        for v in [7.0, 7.0, 7.0, 7.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.3), Some(7.0));
        assert_eq!(s.median(), Some(7.0));
        // A mixed set with a duplicated extreme still pins p0/p100 exactly.
        let mut s = Samples::new();
        for v in [1.0, 1.0, 2.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_above_one_panics() {
        let mut s = Samples::new();
        s.push(1.0);
        let _ = s.quantile(1.5);
    }

    #[test]
    fn time_series_decimates() {
        let mut ts = TimeSeries::new(1e-6); // 1 us buckets
        for ns in 0..1000u64 {
            ts.record(SimTime::from_nanos(ns), ns as f64);
        }
        // All 1000 points fall within one bucket (plus the initial point).
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.points()[0].1, 999.0, "keeps latest value in bucket");
        ts.record(t(2), 7.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn time_series_zero_resolution_keeps_all() {
        let mut ts = TimeSeries::new(0.0);
        for i in 0..10u64 {
            ts.record(SimTime::from_nanos(i), i as f64);
        }
        assert_eq!(ts.len(), 10);
    }
}
