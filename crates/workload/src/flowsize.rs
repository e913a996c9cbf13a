//! Empirical flow-size distributions.
//!
//! The web-search distribution is the DCTCP \[2\] measurement as digitized in
//! the public pFabric/ProjecToR-era traffic generators. Sizes between knots are
//! interpolated log-linearly (flow sizes span five orders of magnitude, so
//! linear interpolation would skew small sizes).

use desim::SimRng;

/// An empirical CDF over flow sizes: `(size_bytes, cumulative_prob)` knots.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    knots: Vec<(f64, f64)>,
}

impl FlowSizeDist {
    /// Build from `(size_bytes, cumulative_probability)` knots. The knots
    /// must be strictly increasing in both coordinates and end at
    /// probability 1.
    pub fn from_cdf(knots: &[(f64, f64)]) -> Self {
        assert!(knots.len() >= 2, "need at least two knots");
        for w in knots.windows(2) {
            assert!(
                w[1].0 > w[0].0 && w[1].1 >= w[0].1,
                "CDF knots must increase"
            );
        }
        #[expect(clippy::unwrap_used, reason = "knot count validated non-empty above")]
        let last = knots.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at probability 1");
        assert!(knots[0].0 > 0.0, "sizes must be positive");
        FlowSizeDist {
            knots: knots.to_vec(),
        }
    }

    /// The DCTCP web-search workload \[2\]: ~60 % of flows under 100 KB but
    /// >90 % of bytes from flows over 1 MB. Mean ≈ 1.1 MB.
    pub fn web_search() -> Self {
        Self::from_cdf(&[
            (6_000.0, 0.15),
            (13_000.0, 0.30),
            (19_000.0, 0.40),
            (33_000.0, 0.53),
            (53_000.0, 0.60),
            (133_000.0, 0.70),
            (667_000.0, 0.80),
            (1_333_000.0, 0.90),
            (3_333_000.0, 0.95),
            (6_667_000.0, 0.98),
            (20_000_000.0, 1.00),
        ])
    }

    /// Sample one flow size in bytes (≥ 1).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        self.quantile(u).round().max(1.0) as u64
    }

    /// The size at cumulative probability `u` (log-linear interpolation).
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let first = self.knots[0];
        if u <= first.1 {
            // Interpolate from a nominal minimum of 1 byte.
            let frac = u / first.1;
            return (frac * first.0.ln()).exp().max(1.0);
        }
        for w in self.knots.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                if p1 == p0 {
                    return s1;
                }
                let frac = (u - p0) / (p1 - p0);
                return (s0.ln() + frac * (s1.ln() - s0.ln())).exp();
            }
        }
        #[expect(
            clippy::unwrap_used,
            reason = "knots validated non-empty at construction"
        )]
        self.knots.last().unwrap().0
    }

    /// Exact mean of the interpolated distribution, by numerical quadrature
    /// over the quantile function (10k panels is plenty for calibration).
    pub fn mean_bytes(&self) -> f64 {
        let n = 10_000;
        let mut acc = 0.0;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            acc += self.quantile(u);
        }
        acc / n as f64
    }

    /// Fraction of flows strictly smaller than `bytes`.
    #[cfg(test)]
    pub fn fraction_below(&self, bytes: f64) -> f64 {
        // Invert by bisection on the quantile (monotone).
        let mut lo = 0.0;
        let mut hi = 1.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.quantile(mid) < bytes {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_hits_knots() {
        let d = FlowSizeDist::web_search();
        assert!((d.quantile(0.15) - 6_000.0).abs() < 1.0);
        assert!((d.quantile(0.90) - 1_333_000.0).abs() < 1.0);
        assert!((d.quantile(1.0) - 20_000_000.0).abs() < 1.0);
    }

    #[test]
    fn quantile_monotone() {
        let d = FlowSizeDist::web_search();
        let mut prev = 0.0;
        for k in 0..=1000 {
            let q = d.quantile(k as f64 / 1000.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn web_search_mean_plausible() {
        // The DCTCP search distribution has mean around 1 MB.
        let mean = FlowSizeDist::web_search().mean_bytes();
        assert!(
            (0.5e6..2.5e6).contains(&mean),
            "web-search mean {mean:.0} out of expected range"
        );
    }

    #[test]
    fn web_search_small_flow_fraction() {
        // Roughly 60+ % of flows are "small" (< 100 KB) — this drives the
        // Figure 14 metric.
        let d = FlowSizeDist::web_search();
        let frac = d.fraction_below(100_000.0);
        assert!(
            (0.55..0.75).contains(&frac),
            "small-flow fraction {frac:.3}"
        );
    }

    #[test]
    fn sampling_matches_cdf() {
        let d = FlowSizeDist::web_search();
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let below = (0..n).filter(|_| d.sample(&mut rng) < 33_000).count() as f64 / n as f64;
        // CDF at 33 KB is 0.53.
        assert!((below - 0.53).abs() < 0.01, "empirical {below}");
    }

    #[test]
    fn sample_mean_matches_quadrature() {
        let d = FlowSizeDist::web_search();
        let mut rng = SimRng::new(11);
        let n = 300_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let emp = sum / n as f64;
        let exact = d.mean_bytes();
        assert!(
            (emp - exact).abs() / exact < 0.05,
            "empirical {emp:.0} vs exact {exact:.0}"
        );
    }

    #[test]
    #[should_panic(expected = "CDF must end")]
    fn incomplete_cdf_rejected() {
        FlowSizeDist::from_cdf(&[(10.0, 0.5), (20.0, 0.9)]);
    }
}
