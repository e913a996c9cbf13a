//! The TIMELY sender (Algorithm 1 of the paper, from \[21\]) and Patched
//! TIMELY (the paper's Algorithm 2).
//!
//! One RTT sample arrives per completion event (chunk of 16–64 KB). The
//! sender maintains an EWMA of consecutive RTT differences, normalizes by
//! `D_minRTT` to get the gradient, and:
//!
//! * `newRTT < T_low` → additive increase `δ`;
//! * `newRTT > T_high` → multiplicative decrease `β·(1 − T_high/newRTT)`;
//! * otherwise the [`Band`] rule. TIMELY's [`Band::Gradient`]: `g ≤ 0` →
//!   `+δ` (with HAI after `N` consecutive non-positive gradients: `+N·δ`),
//!   else `×(1 − β·g)`. Patched TIMELY's [`Band::Patched`]:
//!
//! ```text
//! weight ← w(rttGradient)                (Eq 30: 0 below −1/4, 2g+1/2, 1 above 1/4)
//! error  ← (newRTT − RTT_ref)/RTT_ref
//! rate   ← δ·(1 − weight) + rate·(1 − β·weight·error)
//! ```
//!
//! with `β = 0.008` and 16 KB segments ([`TimelyCcParams::patched`]). The
//! absolute-RTT error term gives every flow knowledge of the common queue,
//! which is what buys the unique fair fixed point (Theorem 5).
//!
//! The engine's RTT sample is measured from the departure of the chunk's
//! first byte to the completion ACK, so it includes the chunk's own
//! serialization; TIMELY subtracts the ideal segment serialization time
//! (\[21\] §4.2), which we replicate via `seg_bytes`.

use desim::{SimDuration, SimTime};
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};

/// The rate rule inside the band `T_low ≤ newRTT ≤ T_high`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Band {
    /// Algorithm 1: `g ≤ 0` → `+δ`, else `×(1 − β·min(g, 1))`, with
    /// hyperactive increase: after `hai_n` consecutive non-positive
    /// gradients the step is `hai_n·δ`.
    Gradient {
        /// HAI threshold `N` (5).
        hai_n: u32,
    },
    /// Algorithm 2: the weighted blend of `+δ` and the absolute-RTT error.
    Patched {
        /// Reference RTT (the paper sets the reference queue to `C·T_low`,
        /// i.e. `RTT_ref = T_low` of queueing delay).
        rtt_ref: SimDuration,
    },
}

/// TIMELY parameters (the paper's footnote 4 plus \[21\] defaults).
#[derive(Debug, Clone)]
pub struct TimelyCcParams {
    /// EWMA weight for the RTT difference filter.
    pub ewma_alpha: f64,
    /// Additive step `δ` in bps (10 Mbps).
    pub delta_bps: f64,
    /// Multiplicative decrease factor `β` (0.8).
    pub beta: f64,
    /// Low RTT threshold `T_low`.
    pub t_low: SimDuration,
    /// High RTT threshold `T_high`.
    pub t_high: SimDuration,
    /// Normalization constant `D_minRTT`.
    pub min_rtt: SimDuration,
    /// Segment size used to remove self-serialization from samples.
    pub seg_bytes: u32,
    /// The gradient-band rule.
    pub band: Band,
    /// Rate floor in bps.
    pub min_rate_bps: f64,
    /// Dimensionless initial divisor of the line rate: a new flow starts at
    /// `line_rate / start_divisor` (the paper: `C/(N+1)` with N flows
    /// active; callers set this).
    pub start_divisor: f64,
}

impl Default for TimelyCcParams {
    fn default() -> Self {
        TimelyCcParams {
            ewma_alpha: 0.875,
            delta_bps: 10e6,
            beta: 0.8,
            t_low: SimDuration::from_micros(50),
            t_high: SimDuration::from_micros(500),
            min_rtt: SimDuration::from_micros(20),
            seg_bytes: 16_000,
            band: Band::Gradient { hai_n: 5 },
            min_rate_bps: 10e6,
            start_divisor: 2.0,
        }
    }
}

impl TimelyCcParams {
    /// Patched TIMELY: the TIMELY defaults (16 KB segments) with the
    /// paper's `β = 0.008` and `RTT_ref = T_low`.
    pub fn patched() -> Self {
        TimelyCcParams {
            beta: 0.008,
            band: Band::Patched {
                rtt_ref: SimDuration::from_micros(50),
            },
            ..TimelyCcParams::default()
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

/// The TIMELY-family sender state machine.
#[derive(Debug, Clone)]
pub struct TimelyCc {
    /// Parameters.
    pub params: TimelyCcParams,
    // Crate-visible for Patched TIMELY's tests, which plant a state.
    pub(crate) rate_bps: f64,
    line_rate_bps: f64,
    pub(crate) prev_rtt_s: Option<f64>,
    pub(crate) rtt_diff_s: f64,
    consecutive_negative: u32,
    samples: u64,
}

impl TimelyCc {
    /// New sender with the given parameters.
    pub fn new(params: TimelyCcParams) -> Self {
        TimelyCc {
            params,
            rate_bps: 0.0,
            line_rate_bps: 0.0,
            prev_rtt_s: None,
            rtt_diff_s: 0.0,
            consecutive_negative: 0,
            samples: 0,
        }
    }

    /// Number of RTT samples consumed (tests).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The current normalized gradient (tests).
    pub fn gradient(&self) -> f64 {
        self.rtt_diff_s / self.params.min_rtt.as_secs_f64()
    }

    /// Process one RTT sample (Algorithm 1 or 2); returns the new rate.
    pub fn update(&mut self, raw_rtt: SimDuration) -> f64 {
        self.samples += 1;
        let p = &self.params;
        // Remove the segment's own serialization at line rate.
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
            self.consecutive_negative = 0;
            self.rate_bps += p.delta_bps;
        } else if new_rtt > p.t_high.as_secs_f64() {
            self.consecutive_negative = 0;
            self.rate_bps *= 1.0 - p.beta * (1.0 - p.t_high.as_secs_f64() / new_rtt);
        } else {
            match p.band {
                Band::Gradient { hai_n } if gradient <= 0.0 => {
                    self.consecutive_negative += 1;
                    let steps = if self.consecutive_negative >= hai_n {
                        hai_n as f64
                    } else {
                        1.0
                    };
                    self.rate_bps += steps * p.delta_bps;
                }
                Band::Gradient { .. } => {
                    self.consecutive_negative = 0;
                    self.rate_bps *= 1.0 - p.beta * gradient.min(1.0);
                }
                Band::Patched { rtt_ref } => {
                    // Algorithm 2 lines 10–12.
                    let w = weight(gradient);
                    let error = (new_rtt - rtt_ref.as_secs_f64()) / rtt_ref.as_secs_f64();
                    self.rate_bps =
                        p.delta_bps * (1.0 - w) + self.rate_bps * (1.0 - p.beta * w * error);
                }
            }
        }
        self.rate_bps = self.rate_bps.clamp(p.min_rate_bps, self.line_rate_bps);
        self.rate_bps
    }
}

impl CongestionControl for TimelyCc {
    fn on_start(&mut self, _now: SimTime, line_rate_bps: f64) -> CcUpdate {
        self.line_rate_bps = line_rate_bps;
        self.rate_bps = (line_rate_bps / self.params.start_divisor)
            .clamp(self.params.min_rate_bps, line_rate_bps);
        CcUpdate::rate(self.rate_bps)
    }

    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
        match event {
            CcEvent::RttSample { rtt } => {
                let new_rate = self.update(rtt);
                obs::metrics::counter_inc(match self.params.band {
                    Band::Gradient { .. } => "timely.gradient_samples",
                    Band::Patched { .. } => "patched_timely.gradient_samples",
                });
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

    fn started() -> TimelyCc {
        let mut cc = TimelyCc::new(TimelyCcParams::default());
        cc.on_start(SimTime::ZERO, 10e9);
        cc
    }

    #[test]
    fn starts_at_divided_line_rate() {
        let cc = started();
        assert_eq!(cc.current_rate_bps(), 5e9);
    }

    #[test]
    fn low_rtt_additive_increase() {
        let mut cc = started();
        let r0 = cc.current_rate_bps();
        // Below T_low (50 µs after serialization removal).
        cc.update(us(30));
        assert!((cc.current_rate_bps() - (r0 + 10e6)).abs() < 1.0);
    }

    #[test]
    fn high_rtt_multiplicative_decrease() {
        let mut cc = started();
        let r0 = cc.current_rate_bps();
        // Far above T_high → decrease toward (1 − β·(1 − T_high/rtt)).
        cc.update(us(2_000));
        let seg_ser = 16_000.0 * 8.0 / 10e9;
        let rtt = 2_000e-6 - seg_ser;
        let expect = r0 * (1.0 - 0.8 * (1.0 - 500e-6 / rtt));
        assert!(
            (cc.current_rate_bps() - expect).abs() < 1.0,
            "{} vs {expect}",
            cc.current_rate_bps()
        );
    }

    #[test]
    fn rising_rtt_in_band_decreases_rate() {
        let mut cc = started();
        // Establish a baseline inside the band, then a rising sample.
        cc.update(us(100));
        let r0 = cc.current_rate_bps();
        cc.update(us(200));
        assert!(cc.gradient() > 0.0);
        assert!(
            cc.current_rate_bps() < r0,
            "positive gradient must decrease"
        );
    }

    #[test]
    fn falling_rtt_in_band_increases_rate() {
        let mut cc = started();
        cc.update(us(300));
        cc.update(us(200));
        let r0 = cc.current_rate_bps();
        cc.update(us(150));
        assert!(cc.gradient() < 0.0);
        assert!(cc.current_rate_bps() > r0);
    }

    #[test]
    fn hai_quintuples_step_after_n_negative() {
        let mut cc = started();
        // Feed steadily falling in-band RTTs; after hai_n consecutive
        // non-positive gradients, the step becomes N·δ.
        let mut rtts = vec![400u64, 380, 360, 340, 320, 300, 280];
        rtts.reverse(); // pop() order
        let mut last_rate = cc.current_rate_bps();
        let mut steps = Vec::new();
        while let Some(r) = rtts.pop() {
            cc.update(us(r));
            steps.push(cc.current_rate_bps() - last_rate);
            last_rate = cc.current_rate_bps();
        }
        // Early steps are δ, the tail steps are 5δ.
        assert!((steps[1] - 10e6).abs() < 1.0, "early step {}", steps[1]);
        let last = *steps.last().unwrap();
        assert!((last - 50e6).abs() < 1.0, "HAI step {last}");
    }

    #[test]
    fn ewma_smooths_gradient() {
        let mut cc = started();
        cc.update(us(100));
        cc.update(us(100));
        assert!(cc.gradient().abs() < 1e-9, "flat RTT → zero gradient");
        cc.update(us(110));
        let g1 = cc.gradient();
        cc.update(us(110));
        let g2 = cc.gradient();
        assert!(g1 > 0.0 && g2 < g1, "gradient decays when RTT flattens");
    }

    #[test]
    fn rate_clamped_to_line_and_floor() {
        let mut cc = started();
        for _ in 0..10_000 {
            cc.update(us(10));
        }
        assert!(cc.current_rate_bps() <= 10e9);
        for _ in 0..10_000 {
            cc.update(us(100_000));
        }
        assert!(cc.current_rate_bps() >= cc.params.min_rate_bps);
    }
}
