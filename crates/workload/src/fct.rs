//! Flow-completion-time statistics (Figures 14 and 15).

use desim::stats::Samples;

/// A completed flow for FCT accounting.
#[derive(Debug, Clone, Copy)]
pub struct FctSample {
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Completion time in seconds.
    pub fct_s: f64,
}

/// FCT statistics with the paper's small-flow cut (pFabric convention:
/// "we define small flows as flows that send fewer than 100KB").
#[derive(Debug, Clone)]
pub struct FctStats {
    /// The small-flow threshold in bytes (100 KB by default).
    pub small_threshold_bytes: u64,
    all: Vec<FctSample>,
}

impl Default for FctStats {
    fn default() -> Self {
        Self::new(100_000)
    }
}

impl FctStats {
    /// New collector with the given small-flow threshold.
    pub fn new(small_threshold_bytes: u64) -> Self {
        FctStats {
            small_threshold_bytes,
            all: Vec::new(),
        }
    }

    /// Record one completed flow.
    pub fn push(&mut self, size_bytes: u64, fct_s: f64) {
        assert!(fct_s >= 0.0 && fct_s.is_finite());
        self.all.push(FctSample { size_bytes, fct_s });
    }

    /// Number of completions recorded.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    fn small_samples(&self) -> Samples {
        let mut s = Samples::new();
        for r in &self.all {
            if r.size_bytes < self.small_threshold_bytes {
                s.push(r.fct_s);
            }
        }
        s
    }

    /// Median FCT of small flows (seconds).
    pub fn small_median(&self) -> Option<f64> {
        self.small_samples().median()
    }

    /// 90th-percentile FCT of small flows (seconds).
    pub fn small_p90(&self) -> Option<f64> {
        self.small_samples().quantile(0.9)
    }

    /// 99th-percentile FCT of small flows (seconds).
    pub fn small_p99(&self) -> Option<f64> {
        self.small_samples().quantile(0.99)
    }

    /// Number of small-flow completions.
    pub fn small_count(&self) -> usize {
        self.all
            .iter()
            .filter(|r| r.size_bytes < self.small_threshold_bytes)
            .count()
    }

    /// CDF of small-flow FCTs (Figure 15).
    pub fn small_cdf(&self) -> Vec<(f64, f64)> {
        self.small_samples().cdf()
    }

    /// The raw records.
    pub fn records(&self) -> &[FctSample] {
        &self.all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_flow_filtering() {
        let mut s = FctStats::default();
        s.push(50_000, 1.0); // small
        s.push(200_000, 10.0); // big
        s.push(99_999, 3.0); // small
        s.push(100_000, 7.0); // not small (strictly fewer than 100 KB)
        assert_eq!(s.small_count(), 2);
        assert!((s.small_median().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p90_of_uniform_ladder() {
        let mut s = FctStats::default();
        for k in 1..=100 {
            s.push(1_000, k as f64);
        }
        let p90 = s.small_p90().unwrap();
        assert!((p90 - 90.1).abs() < 0.5, "p90 {p90}");
    }

    #[test]
    fn cdf_shape() {
        let mut s = FctStats::default();
        for k in 1..=4 {
            s.push(1_000, k as f64);
        }
        let cdf = s.small_cdf();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[3], (4.0, 1.0));
    }

    #[test]
    fn empty_stats() {
        let s = FctStats::default();
        assert!(s.is_empty());
        assert!(s.small_median().is_none());
    }
}
