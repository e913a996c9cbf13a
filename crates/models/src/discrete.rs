//! The discrete AIMD model of DCQCN (paper §3.3, Theorem 2, Appendix B).
//!
//! The fluid model cannot answer *whether* and *how fast* flows converge to
//! the fair fixed point, so the paper builds a synchronized discrete model:
//! time advances in units of the α-update interval `τ′`; in each AIMD cycle
//! `k` all flows peak together at `T_k`, cut once, and perform `ΔT_k − 1`
//! additive increases. The recursions are Eqs 15–16, the cycle length is
//! Eq 40 with the queue-buildup time `t` of Eq 41, and the fixed point `α*`
//! solves Eq 42.
//!
//! Theorem 2 (verified by this module's tests and by the `thm2` experiment,
//! `ecn_delay_core::experiments::thm2`):
//!
//! * α differences decay as `(1−g)^{ΣΔT}` (Eq 17) — exponential;
//! * once α has converged, rate differences contract by `(1 − α(T_k)/2)`
//!   per cycle (Eq 18), and `α(T_k)` decreases monotonically to `α* > 0`
//!   (Eq 19), so convergence is exponential with rate at least
//!   `(1 − α*/2)` per cycle.

use crate::dcqcn::DcqcnParams;

/// State of one flow in the discrete model.
#[derive(Debug, Clone, Copy)]
pub struct FlowState {
    /// Peak rate `R_C(T_k)` in packets/second.
    pub rate_pps: f64,
    /// Reduction factor `α(T_k)`.
    pub alpha: f64,
}

/// The synchronized discrete AIMD model.
#[derive(Debug, Clone)]
pub struct DiscreteAimd {
    /// DCQCN parameters (uses `g`, `R_AI`, `C`, `K_max`, `τ′`).
    pub params: DcqcnParams,
    /// Per-flow states at the current peak `T_k`.
    pub flows: Vec<FlowState>,
    /// Cycle counter `k`.
    pub cycle: usize,
}

impl DiscreteAimd {
    /// Start `n` flows at the given peak rates with `α = 1` (DCQCN's initial
    /// α).
    pub fn new(params: DcqcnParams, initial_rates_pps: &[f64]) -> Self {
        assert!(!initial_rates_pps.is_empty());
        DiscreteAimd {
            params,
            flows: initial_rates_pps
                .iter()
                .map(|&rate_pps| FlowState {
                    rate_pps,
                    alpha: 1.0,
                })
                .collect(),
            cycle: 0,
        }
    }

    /// Queue-buildup time `t` of Eq 41, counted in alpha-timer periods τ′:
    /// `t = (−1 + √(1 + 8·K_max/(N·R_AI·τ′)))/2`.
    pub fn buildup_periods(&self) -> f64 {
        let p = &self.params;
        let n = self.flows.len() as f64;
        let k_max = p.kmax_pkts();
        let r_ai_units = p.r_ai_pps() * p.alpha_timer_s(); // packets per τ′
        (-1.0 + (1.0 + 8.0 * k_max / (n * r_ai_units)).sqrt()) / 2.0
    }

    /// Cycle length `ΔT_k` of Eq 40 (in units of τ′), for a common α:
    /// `ΔT = 2 + (t/2 + C/(2·N·R_AI))·α`.
    pub fn cycle_length(&self, alpha: f64) -> f64 {
        let p = &self.params;
        let n = self.flows.len() as f64;
        let t = self.buildup_periods();
        let c_units = p.capacity_pps() * p.alpha_timer_s(); // pkts per τ′
        let r_ai_units = p.r_ai_pps() * p.alpha_timer_s();
        2.0 + (t / 2.0 + c_units / (2.0 * n * r_ai_units)) * alpha
    }

    /// Advance one AIMD cycle (Eqs 15–16). Uses the mean α for the shared
    /// cycle length (flows are synchronized by assumption). Returns `ΔT_k`.
    pub fn step(&mut self) -> f64 {
        let mean_alpha = self.flows.iter().map(|f| f.alpha).sum::<f64>() / self.flows.len() as f64;
        let dt = self.cycle_length(mean_alpha).max(2.0);
        let g = self.params.g;
        let r_ai = self.params.r_ai_pps();
        let increases = dt - 1.0;
        for f in &mut self.flows {
            // Eq 15 with the simplification R_T := R_C at the decrease: each
            // of the ΔT−1 additive steps raises the rate by R_AI.
            f.rate_pps = (1.0 - f.alpha / 2.0) * f.rate_pps + increases * r_ai;
            // Eq 16.
            f.alpha = (1.0 - g).powf(dt - 1.0) * ((1.0 - g) * f.alpha + g);
        }
        self.cycle += 1;
        dt
    }

    /// Max pairwise rate gap (pps), the Theorem 2 convergence metric.
    pub fn max_rate_gap_pps(&self) -> f64 {
        let max = self
            .flows
            .iter()
            .map(|f| f.rate_pps)
            .fold(f64::MIN, f64::max);
        let min = self
            .flows
            .iter()
            .map(|f| f.rate_pps)
            .fold(f64::MAX, f64::min);
        max - min
    }

    /// Max pairwise α gap.
    pub fn max_alpha_gap(&self) -> f64 {
        let max = self.flows.iter().map(|f| f.alpha).fold(f64::MIN, f64::max);
        let min = self.flows.iter().map(|f| f.alpha).fold(f64::MAX, f64::min);
        max - min
    }

    /// The fixed point `α*` of Eq 42: `α* = (1−g)^{ΔT(α*)}·((1−g)α* + g)`,
    /// solved by fixed-point iteration (the map is a contraction for the
    /// paper's parameters).
    pub fn alpha_star(&self) -> f64 {
        let g = self.params.g;
        let mut a = 0.5;
        for _ in 0..10_000 {
            let dt = self.cycle_length(a).max(2.0);
            let next = (1.0 - g).powf(dt - 1.0) * ((1.0 - g) * a + g);
            if (next - a).abs() < 1e-15 {
                return next;
            }
            a = next;
        }
        a
    }

    /// Run `cycles` cycles recording `(cycle, max_rate_gap_pps, mean_alpha)` —
    /// the series behind Figure 6 / the Theorem 2 decay plots.
    pub fn run(&mut self, cycles: usize) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::with_capacity(cycles + 1);
        let mean_alpha =
            |s: &Self| s.flows.iter().map(|f| f.alpha).sum::<f64>() / s.flows.len() as f64;
        out.push((self.cycle, self.max_rate_gap_pps(), mean_alpha(self)));
        for _ in 0..cycles {
            self.step();
            out.push((self.cycle, self.max_rate_gap_pps(), mean_alpha(self)));
        }
        out
    }

    /// Generate the sawtooth trace of Figure 6: within-cycle rate evolution
    /// of each flow `(time_in_τ′_units, rates)`.
    pub fn sawtooth(&mut self, cycles: usize) -> Vec<(f64, Vec<f64>)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let r_ai = self.params.r_ai_pps();
        for _ in 0..cycles {
            let rates_at_peak: Vec<f64> = self.flows.iter().map(|f| f.rate_pps).collect();
            let alphas: Vec<f64> = self.flows.iter().map(|f| f.alpha).collect();
            out.push((t, rates_at_peak.clone()));
            // The cut.
            let after_cut: Vec<f64> = rates_at_peak
                .iter()
                .zip(&alphas)
                .map(|(&r, &a)| (1.0 - a / 2.0) * r)
                .collect();
            out.push((t + 1.0, after_cut.clone()));
            let dt = self.step();
            // Additive climb (record endpoints of the ramp).
            let climbed: Vec<f64> = after_cut.iter().map(|&r| r + (dt - 1.0) * r_ai).collect();
            out.push((t + dt, climbed));
            t += dt;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DcqcnParams {
        DcqcnParams::default_40g()
    }

    #[test]
    fn alpha_gap_decays_exponentially() {
        // Eq 17: α gaps contract by (1−g)^{ΔT} each cycle.
        let p = params();
        let c = p.capacity_pps();
        let mut m = DiscreteAimd::new(p, &[c * 0.8, c * 0.2]);
        m.flows[0].alpha = 1.0;
        m.flows[1].alpha = 0.3;
        let mut prev_gap = m.max_alpha_gap();
        let g0 = prev_gap;
        for _ in 0..80 {
            m.step();
            let gap = m.max_alpha_gap();
            assert!(gap < prev_gap, "α gap must shrink every cycle");
            prev_gap = gap;
        }
        // Eq 17: decay is exponential — after 80 cycles the gap must be a
        // tiny fraction of the initial one.
        assert!(
            prev_gap < 0.01 * g0,
            "α gap after 80 cycles: {prev_gap} (from {g0})"
        );
    }

    #[test]
    fn rate_gap_decays_exponentially() {
        // Theorem 2: the rate gap dies at least as fast as (1−α*/2)^k.
        let p = params();
        let c = p.capacity_pps();
        let mut m = DiscreteAimd::new(p, &[c * 0.9, c * 0.1]);
        let a_star = m.alpha_star();
        let g0 = m.max_rate_gap_pps();
        let k = 40;
        for _ in 0..k {
            m.step();
        }
        let bound = g0 * (1.0 - a_star / 2.0).powi(k);
        assert!(
            m.max_rate_gap_pps() <= bound * 1.5,
            "gap {} should be ≤ ~bound {}",
            m.max_rate_gap_pps(),
            bound
        );
    }

    #[test]
    fn alpha_monotone_decreasing_to_alpha_star() {
        // Eq 19: α(T_0) > α(T_1) > … > α* > 0 when starting at α = 1.
        let p = params();
        let c = p.capacity_pps();
        let mut m = DiscreteAimd::new(p, &[c / 2.0, c / 2.0]);
        let a_star = m.alpha_star();
        assert!(a_star > 0.0);
        let mut prev = 1.0;
        for _ in 0..200 {
            m.step();
            let a = m.flows[0].alpha;
            assert!(a < prev + 1e-15, "α must decrease monotonically");
            assert!(a > a_star - 1e-9, "α must stay above α*");
            prev = a;
        }
        assert!(
            (prev - a_star) / a_star < 0.05,
            "α should approach α*: {prev} vs {a_star}"
        );
    }

    #[test]
    fn alpha_star_solves_eq42() {
        let p = params();
        let c = p.capacity_pps();
        let m = DiscreteAimd::new(p, &[c / 4.0; 4]);
        let a = m.alpha_star();
        let g = m.params.g;
        let dt = m.cycle_length(a).max(2.0);
        let rhs = (1.0 - g).powf(dt - 1.0) * ((1.0 - g) * a + g);
        assert!((a - rhs).abs() < 1e-10, "α* residual: {}", (a - rhs).abs());
    }

    #[test]
    fn cycle_length_grows_with_alpha() {
        // Eq 40 is affine increasing in α: deeper cuts need longer recovery.
        let p = params();
        let c = p.capacity_pps();
        let m = DiscreteAimd::new(p, &[c / 2.0; 2]);
        assert!(m.cycle_length(0.8) > m.cycle_length(0.2));
        assert!(m.cycle_length(0.0) >= 2.0);
    }

    #[test]
    fn buildup_periods_decrease_with_flows() {
        // Eq 41: more flows fill K_max faster.
        let p = params();
        let c = p.capacity_pps();
        let t2 = DiscreteAimd::new(p.clone(), &[c / 2.0; 2]).buildup_periods();
        let t16 = DiscreteAimd::new(p, &[c / 16.0; 16]).buildup_periods();
        assert!(t16 < t2);
    }

    #[test]
    fn sawtooth_shape() {
        let p = params();
        let c = p.capacity_pps();
        let mut m = DiscreteAimd::new(p, &[c * 0.6, c * 0.4]);
        let saw = m.sawtooth(3);
        // Each cycle contributes 3 points: peak, post-cut, next-peak ramp.
        assert_eq!(saw.len(), 9);
        // Post-cut rate is below the peak for every flow.
        for chunk in saw.chunks(3) {
            for i in 0..2 {
                assert!(chunk[1].1[i] < chunk[0].1[i], "cut reduces rate");
                assert!(chunk[2].1[i] > chunk[1].1[i], "ramp increases rate");
            }
        }
    }

    #[test]
    fn converged_flows_stay_converged() {
        let p = params();
        let c = p.capacity_pps();
        let mut m = DiscreteAimd::new(p, &[c / 2.0, c / 2.0]);
        for _ in 0..50 {
            m.step();
        }
        assert!(m.max_rate_gap_pps() < 1e-6);
        assert!(m.max_alpha_gap() < 1e-12);
    }
}
