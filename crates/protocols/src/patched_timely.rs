//! Patched TIMELY (the paper's Algorithm 2).
//!
//! Identical to TIMELY outside the gradient band; inside it, the update is
//!
//! ```text
//! weight ← w(rttGradient)                (Eq 30: 0 below −1/4, 2g+1/2, 1 above 1/4)
//! error  ← (newRTT − RTT_ref)/RTT_ref
//! rate   ← δ·(1 − weight) + rate·(1 − β·weight·error)
//! ```
//!
//! with `β = 0.008` and 16 KB segments. The absolute-RTT error term gives
//! every flow knowledge of the common queue, which is what buys the unique
//! fair fixed point (Theorem 5).

use crate::timely::TimelyCcParams;
use desim::{SimDuration, SimTime};
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};

/// Patched-TIMELY parameters: the TIMELY set plus `RTT_ref`.
#[derive(Debug, Clone)]
pub struct PatchedTimelyCcParams {
    /// Base TIMELY parameters (β and Seg are overridden by
    /// [`PatchedTimelyCcParams::default`] to the paper's patched values).
    pub base: TimelyCcParams,
    /// Reference RTT (the paper sets the reference queue to `C·T_low`,
    /// i.e. `RTT_ref = T_low` of queueing delay).
    pub rtt_ref: SimDuration,
}

impl Default for PatchedTimelyCcParams {
    fn default() -> Self {
        let mut base = TimelyCcParams::default();
        base.beta = 0.008;
        base.seg_bytes = 16_000;
        // HAI is irrelevant inside the continuous-weight band; keep the
        // TIMELY default for the outer regions.
        PatchedTimelyCcParams {
            base,
            rtt_ref: SimDuration::from_micros(50),
        }
    }
}

/// The weight function `w(g)` of Eq 30.
pub fn weight(g: f64) -> f64 {
    if g <= -0.25 {
        0.0
    } else if g >= 0.25 {
        1.0
    } else {
        2.0 * g + 0.5
    }
}

/// The Patched TIMELY sender.
#[derive(Debug, Clone)]
pub struct PatchedTimelyCc {
    /// Parameters.
    pub params: PatchedTimelyCcParams,
    rate_bps: f64,
    line_rate_bps: f64,
    prev_rtt_s: Option<f64>,
    rtt_diff_s: f64,
    samples: u64,
}

impl PatchedTimelyCc {
    /// New sender.
    pub fn new(params: PatchedTimelyCcParams) -> Self {
        PatchedTimelyCc {
            params,
            rate_bps: 0.0,
            line_rate_bps: 0.0,
            prev_rtt_s: None,
            rtt_diff_s: 0.0,
            samples: 0,
        }
    }

    /// Default-configured sender.
    pub fn default_cc() -> Self {
        Self::new(PatchedTimelyCcParams::default())
    }

    /// Number of samples processed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Normalized gradient (tests).
    pub fn gradient(&self) -> f64 {
        self.rtt_diff_s / self.params.base.min_rtt.as_secs_f64()
    }

    /// Process one sample (Algorithm 2).
    pub fn update(&mut self, raw_rtt: SimDuration) -> f64 {
        self.samples += 1;
        let p = &self.params.base;
        let self_ser = SimDuration::serialization(p.seg_bytes as u64, self.line_rate_bps.max(1e3));
        let new_rtt = raw_rtt.as_secs_f64().max(self_ser.as_secs_f64()) - self_ser.as_secs_f64();

        let new_rtt_diff = match self.prev_rtt_s {
            Some(prev) => new_rtt - prev,
            None => 0.0,
        };
        self.prev_rtt_s = Some(new_rtt);
        self.rtt_diff_s = (1.0 - p.ewma_alpha) * self.rtt_diff_s + p.ewma_alpha * new_rtt_diff;
        let gradient = self.rtt_diff_s / p.min_rtt.as_secs_f64();

        if new_rtt < p.t_low.as_secs_f64() {
            self.rate_bps += p.delta_bps;
        } else if new_rtt > p.t_high.as_secs_f64() {
            self.rate_bps *= 1.0 - p.beta * (1.0 - p.t_high.as_secs_f64() / new_rtt);
        } else {
            // Algorithm 2 lines 10–12.
            let w = weight(gradient);
            let error =
                (new_rtt - self.params.rtt_ref.as_secs_f64()) / self.params.rtt_ref.as_secs_f64();
            self.rate_bps = p.delta_bps * (1.0 - w) + self.rate_bps * (1.0 - p.beta * w * error);
        }
        self.rate_bps = self.rate_bps.clamp(p.min_rate_bps, self.line_rate_bps);
        self.rate_bps
    }
}

impl CongestionControl for PatchedTimelyCc {
    fn on_start(&mut self, _now: SimTime, line_rate_bps: f64) -> CcUpdate {
        self.line_rate_bps = line_rate_bps;
        self.rate_bps = (line_rate_bps / self.params.base.start_divisor)
            .clamp(self.params.base.min_rate_bps, line_rate_bps);
        CcUpdate::rate(self.rate_bps)
    }

    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
        match event {
            CcEvent::RttSample { rtt } => {
                let new_rate = self.update(rtt);
                obs::metrics::counter_inc("patched_timely.gradient_samples");
                if obs::trace::enabled() {
                    obs::trace::record(
                        now.as_secs_f64(),
                        obs::Event::GradientSample {
                            gradient: self.gradient(),
                            rtt_s: rtt.as_secs_f64(),
                        },
                    );
                }
                CcUpdate::rate(new_rate)
            }
            _ => CcUpdate::none(),
        }
    }

    fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn started() -> PatchedTimelyCc {
        let mut cc = PatchedTimelyCc::default_cc();
        cc.on_start(SimTime::ZERO, 10e9);
        cc
    }

    #[test]
    fn weight_matches_eq30() {
        assert_eq!(weight(-1.0), 0.0);
        assert_eq!(weight(0.0), 0.5);
        assert_eq!(weight(1.0), 1.0);
        assert!((weight(0.125) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn patched_defaults_override_beta_and_seg() {
        let p = PatchedTimelyCcParams::default();
        assert_eq!(p.base.beta, 0.008);
        assert_eq!(p.base.seg_bytes, 16_000);
        assert_eq!(p.rtt_ref, us(50));
    }

    #[test]
    fn above_reference_rtt_with_flat_gradient_decreases() {
        let mut cc = started();
        // Flat RTT at 200 µs (> RTT_ref = 50 µs): w(0) = 1/2 and error > 0,
        // so the blended update must push the rate down overall once the
        // additive (1−w)δ term is smaller than the decrease.
        cc.update(us(200));
        cc.update(us(200));
        let r0 = cc.current_rate_bps();
        cc.update(us(200));
        let r1 = cc.current_rate_bps();
        // error = (200−50)/50 = 3 → decrease factor 1 − 0.008·0.5·3 = 0.988
        // versus +δ/2 = +5 Mbps. At 5 Gbps the decrease dominates.
        assert!(r1 < r0, "{r1} vs {r0}");
    }

    #[test]
    fn below_reference_rtt_with_flat_gradient_increases() {
        let cc = started();
        // Keep samples inside the band but below RTT_ref? RTT_ref = T_low,
        // so "below reference" inside the band is impossible — instead a
        // small positive error at low rate: additive term wins.
        let mut p = PatchedTimelyCcParams::default();
        p.rtt_ref = us(200);
        let mut cc2 = PatchedTimelyCc::new(p);
        cc2.on_start(SimTime::ZERO, 10e9);
        cc2.update(us(100));
        cc2.update(us(100));
        let r0 = cc2.current_rate_bps();
        cc2.update(us(100)); // error < 0 → both terms push up
        assert!(cc2.current_rate_bps() > r0);
        let _ = cc;
    }

    #[test]
    fn fixed_point_of_algorithm2() {
        // At the fixed point: g = 0, w = 1/2, and
        // rate = δ/2 + rate(1 − β·error/2) ⇒ rate·β·error = δ.
        // Feed the consistent RTT and check the rate is stationary.
        let mut cc = started();
        let rate = 2e9;
        cc.rate_bps = rate;
        let p = &cc.params;
        let error = p.base.delta_bps / (rate * p.base.beta);
        let rtt_s = p.rtt_ref.as_secs_f64() * (1.0 + error);
        let seg_ser = 16_000.0 * 8.0 / 10e9;
        let sample = SimDuration::from_secs_f64(rtt_s + seg_ser);
        cc.update(sample);
        cc.update(sample);
        cc.update(sample);
        let drift = (cc.current_rate_bps() - rate).abs() / rate;
        assert!(drift < 1e-3, "fixed point drift {drift}");
    }

    #[test]
    fn outer_regions_match_timely() {
        let mut cc = started();
        let r0 = cc.current_rate_bps();
        cc.update(us(20)); // below T_low
        assert!((cc.current_rate_bps() - (r0 + 10e6)).abs() < 1.0);
        let r1 = cc.current_rate_bps();
        cc.update(us(5_000)); // far above T_high
                              // With the patched β = 0.008, the decrease factor is
                              // 1 − 0.008·(1 − T_high/rtt) ≈ 0.9928.
        let rtt = 5_000e-6 - 16_000.0 * 8.0 / 10e9;
        let expect = r1 * (1.0 - 0.008 * (1.0 - 500e-6 / rtt));
        assert!(
            (cc.current_rate_bps() - expect).abs() / expect < 1e-6,
            "{} vs {expect}",
            cc.current_rate_bps()
        );
    }

    #[test]
    fn smooth_weight_avoids_on_off_jumps() {
        // Two nearly identical gradients must produce nearly identical
        // updates (the original TIMELY's indicator function makes a jump
        // at g = 0).
        let run = |g_init: f64| -> f64 {
            let mut cc = started();
            cc.rate_bps = 5e9;
            cc.prev_rtt_s = Some(100e-6);
            cc.rtt_diff_s = g_init * cc.params.base.min_rtt.as_secs_f64();
            // A sample equal to prev keeps the gradient ≈ current value
            // scaled by (1−α).
            let seg_ser = 16_000.0 * 8.0 / 10e9;
            cc.update(SimDuration::from_secs_f64(100e-6 + seg_ser));
            cc.current_rate_bps()
        };
        let below = run(-1e-4);
        let above = run(1e-4);
        let jump = (below - above).abs();
        assert!(
            jump < 1e6,
            "update must be continuous across g = 0, jump = {jump}"
        );
    }
}
