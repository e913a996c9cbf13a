//! Patched TIMELY (paper §4.3, Algorithm 2, Eqs 29–31).
//!
//! The paper's two-line fix to TIMELY:
//!
//! 1. in the gradient band, the rate decrease uses the **absolute** queue
//!    error `(q(t−τ′) − q′)/q′` instead of the gradient, giving every flow
//!    knowledge of the common bottleneck queue (the source of the unique
//!    fixed point);
//! 2. the hard `g ≤ 0 / g > 0` switch becomes a **continuous weight**
//!    `w(g)` (Eq 30), removing the on-off chatter.
//!
//! Theorem 5: the resulting system has the unique fair fixed point
//! `q* = N·δ·q′/(β·C) + q′` and converges exponentially. The module also
//! builds the linearized loop for Figure 11 — the feedback delay is frozen
//! at its fixed-point value `τ′* = q*/C + MTU/C + D_prop`, which grows with
//! `N` (Eq 31 ⊕ Eq 24) and is precisely why stability collapses past ~40
//! flows.

use crate::jitter::Jitter;
use crate::timely::{TimelyParams, LAYOUT};
use crate::units;
use control::complex::Complex64;
use control::linearize;
use control::margins::{phase_margin, MarginReport};
use control::DelayLtiEvaluator;
use fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use fluid::dde::{lane_of, DdeOptions, LaneSystem};
use fluid::history::History;
use fluid::trace::Trace;

/// Parameters for Patched TIMELY: the TIMELY set with the paper's overrides
/// (`β = 0.008`, `Seg = 16 KB`) plus the reference queue `q′`.
///
/// ```
/// use models::patched_timely::PatchedTimelyParams;
///
/// let p = PatchedTimelyParams::default_10g();
/// // Theorem 5: q* = N·δ·q'/(β·C) + q' grows linearly with N.
/// assert!(p.q_star_pkts(10) > p.q_star_pkts(2));
/// assert_eq!(PatchedTimelyParams::weight(0.0), 0.5); // Eq 30
/// ```
#[derive(Debug, Clone)]
pub struct PatchedTimelyParams {
    /// The underlying TIMELY parameter set.
    pub base: TimelyParams,
    /// Reference queue `q′` in packets. The paper sets `q′ = C·T_low`.
    pub q_ref_pkts: f64,
}

impl PatchedTimelyParams {
    /// The paper's patched configuration on 10 Gbps: TIMELY defaults with
    /// `β = 0.008`, `Seg = 16 KB`, `q′ = C·T_low`.
    pub fn default_10g() -> Self {
        let mut base = TimelyParams::default_10g();
        base.beta = 0.008;
        base.seg_kb = 16.0;
        let q_ref = base.q_low_pkts();
        PatchedTimelyParams {
            base,
            q_ref_pkts: q_ref,
        }
    }

    /// The weight function `w(g)` of Eq 30: 0 below −1/4, linear
    /// (`2g + 1/2`) in between, 1 above 1/4.
    pub fn weight(g: f64) -> f64 {
        if g <= -0.25 {
            0.0
        } else if g >= 0.25 {
            1.0
        } else {
            2.0 * g + 0.5
        }
    }

    /// Theorem 5's fixed-point queue (Eq 31): `q* = N·δ·q′/(β·C) + q′`.
    pub fn q_star_pkts(&self, n_flows: usize) -> f64 {
        let p = &self.base;
        n_flows as f64 * p.delta_pps() * self.q_ref_pkts / (p.beta * p.capacity_pps())
            + self.q_ref_pkts
    }

    /// Fixed-point queue in KB.
    pub fn q_star_kb(&self, n_flows: usize) -> f64 {
        units::pkts_to_kb(self.q_star_pkts(n_flows), self.base.packet_bytes)
    }
}

/// The patched TIMELY fluid model (Eq 29). Same state layout as
/// [`crate::timely::TimelyFluid`]: `x[0] = q`, flow `i` at
/// `(x[1+2i], x[2+2i]) = (R_i, g_i)`. Integration steps one block per class
/// of bitwise-identical flows (see [`fluid::classes`]).
#[derive(Debug, Clone)]
pub struct PatchedTimelyFluid {
    /// Parameters.
    pub params: PatchedTimelyParams,
    /// Number of flows.
    pub n_flows: usize,
    /// Optional feedback-delay jitter (Figure 20 uses jitter on τ′).
    pub jitter: Option<Jitter>,
    /// The flow partition the RHS loops over (identity outside `simulate*`).
    classes: FlowClasses,
}

impl PatchedTimelyFluid {
    /// New model.
    pub fn new(params: PatchedTimelyParams, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        PatchedTimelyFluid {
            params,
            n_flows,
            jitter: None,
            classes: FlowClasses::identity(n_flows),
        }
    }

    /// Attach feedback-delay jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        1 + 2 * self.n_flows
    }

    /// Index of flow `i`'s rate.
    pub fn rate_index(&self, i: usize) -> usize {
        1 + 2 * i
    }

    /// Index of flow `i`'s gradient.
    pub fn grad_index(&self, i: usize) -> usize {
        2 + 2 * i
    }

    /// Per-flow RHS of Eq 29 (+ Eq 22 for the gradient), given delayed queue
    /// observations `qd1 = q(t−τ′)` and `qd2 = q(t−τ′−τ*)`.
    fn flow_rhs(p: &PatchedTimelyParams, r: f64, g: f64, qd1: f64, qd2: f64, out: &mut [f64]) {
        let base = &p.base;
        let tau = base.tau_star(r);
        let q_low = base.q_low_pkts();
        let q_high = base.q_high_pkts();
        let delta = base.delta_pps();

        // out = [dR/dt, dg/dt].
        out[0] = if qd1 < q_low {
            delta / tau
        } else if qd1 > q_high {
            -(base.beta / tau) * (1.0 - q_high / qd1) * r
        } else {
            let w = PatchedTimelyParams::weight(g);
            (1.0 - w) * delta / tau
                - w * base.beta * r / tau * ((qd1 - p.q_ref_pkts) / p.q_ref_pkts)
        };
        // out = [dR/dt, dg/dt].
        out[1] =
            base.ewma_alpha / tau * (-g + (qd1 - qd2) / (base.capacity_pps() * base.d_min_rtt_s()));
    }

    /// Simulate with explicit initial rates (pps); queue starts empty,
    /// gradients at zero.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        assert_eq!(initial_rates_pps.len(), self.n_flows);
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &r) in initial_rates_pps.iter().enumerate() {
            x0[self.rate_index(i)] = r;
        }
        let base = &self.params.base;
        let step = (base.d_prop_s() / 2.0).min(1e-6);
        let horizon = base.tau_feedback(self.params.q_star_pkts(self.n_flows) * 6.0)
            + base.tau_star(base.min_rate_pps())
            + self.jitter.as_ref().map_or(0.0, Jitter::max_extra)
            + 10.0 * step;
        let record_every = ((duration_s / step) / 4000.0).ceil().max(1.0) as usize;
        let opts = DdeOptions {
            step,
            record_every,
            history_horizon_s: horizon,
        };
        try_integrate_classes(std::slice::from_mut(self), &[x0], 0.0, duration_s, &opts)
            .and_then(|mut lanes| lanes.remove(0)) // one lane in, one out
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Simulate from equal shares `C/N`.
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let r0 = self.params.base.capacity_pps() / self.n_flows as f64;
        let rates = vec![r0; self.n_flows];
        self.simulate_with_rates(&rates, duration_s)
    }

    /// The open-loop transfer `L(jω)` of the linearized system at the
    /// Theorem 5 fixed point (drives Figure 11).
    pub fn loop_transfer(&self) -> impl FnMut(f64) -> Option<Complex64> {
        let p = self.params.clone();
        let base = p.base.clone();
        let n = self.n_flows as f64;
        let r_star = base.capacity_pps() / n;
        let g_star = 0.0;
        let q_star = p.q_star_pkts(self.n_flows);
        // Delays frozen at the fixed point.
        let tau_fb = base.tau_feedback(q_star);
        let tau_star = base.tau_star(r_star);

        // A0 = ∂f/∂(R, g).
        let p0 = p.clone();
        let a0 = linearize::jacobian(
            move |x: &[f64], out: &mut [f64]| {
                // x = [R, g]: the per-flow state layout
                PatchedTimelyFluid::flow_rhs(&p0, x[0], x[1], q_star, q_star, out)
            },
            &[r_star, g_star],
            2,
        );
        // b1 = ∂f/∂qd1 at delay τ′; b2 = ∂f/∂qd2 at delay τ′+τ*.
        let p1 = p.clone();
        let b1 = linearize::derivative_column(
            move |qd1: f64, out: &mut [f64]| {
                PatchedTimelyFluid::flow_rhs(&p1, r_star, g_star, qd1, q_star, out)
            },
            q_star,
            2,
        );
        let p2 = p.clone();
        let b2 = linearize::derivative_column(
            move |qd2: f64, out: &mut [f64]| {
                PatchedTimelyFluid::flow_rhs(&p2, r_star, g_star, q_star, qd2, out)
            },
            q_star,
            2,
        );

        let mut ev = DelayLtiEvaluator::new(control::DelayLti {
            a0,
            delayed_a: vec![],
            b: vec![(tau_fb, b1), (tau_fb + tau_star, b2)],
            c: vec![1.0, 0.0],
            d: 0.0,
        });

        move |omega: f64| {
            let h = ev.freq_response(omega)?; // δR/δq
            let integ = Complex64::from_re(n) / Complex64::j(omega);
            Some(-(h * integ))
        }
    }

    /// Phase-margin report (one point of Figure 11).
    pub fn margin_report(&self) -> MarginReport {
        phase_margin(self.loop_transfer(), 1e1, 1e7, 3000)
    }

    /// Per-flow rate series in Gbps.
    pub fn rates_gbps(&self, trace: &Trace, flow: usize) -> Vec<(f64, f64)> {
        trace
            .series(self.rate_index(flow))
            .into_iter()
            .map(|(t, pps)| (t, units::pps_to_gbps(pps, self.params.base.packet_bytes)))
            .collect()
    }

    /// Queue series in KB.
    pub fn queue_kb(&self, trace: &Trace) -> Vec<(f64, f64)> {
        trace
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, units::pkts_to_kb(pkts, self.params.base.packet_bytes)))
            .collect()
    }
}

impl FlowClassSystem for PatchedTimelyFluid {
    fn layout(&self) -> FlowLayout {
        LAYOUT
    }

    fn classes_mut(&mut self) -> &mut FlowClasses {
        &mut self.classes
    }
}

impl LaneSystem for PatchedTimelyFluid {
    fn lane_dim(&self) -> usize {
        LAYOUT.dim(self.classes.len())
    }

    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        let base = &self.params.base;
        let c = base.capacity_pps();
        let extra = self.jitter.as_ref().map_or(0.0, |j| j.extra(t));
        let q_lane = lane_of(0, lane, stride);
        // Component 0 is the queue; the delayed lookup time is per-lane
        // because Eq 24's feedback delay depends on the lane's own queue.
        let tau_fb = base.tau_feedback(x[q_lane]) + extra;
        let qd1 = hist.eval(t - tau_fb, q_lane).max(0.0);

        // Every flow in flow order, reading its class's rate: the same
        // additions as the N-flow sum.
        let sum_rates: f64 = self
            .classes
            .class_of()
            .iter()
            .map(|&k| x[lane_of(self.rate_index(k), lane, stride)])
            .sum();
        // State component 0 is the shared queue.
        dxdt[q_lane] = if x[q_lane] <= 0.0 && sum_rates < c {
            0.0
        } else {
            sum_rates - c
        };

        let mut out = [0.0; 2];
        for i in 0..self.classes.len() {
            let ri = lane_of(self.rate_index(i), lane, stride);
            let gi = lane_of(self.grad_index(i), lane, stride);
            let r = x[ri];
            let g = x[gi];
            let tau_i = base.tau_star(r);
            let t2 = t - tau_fb - tau_i;
            let qd2 = hist.eval(t2, q_lane).max(0.0);
            PatchedTimelyFluid::flow_rhs(&self.params, r, g, qd1, qd2, &mut out);
            let [d_r, d_g] = out;
            dxdt[ri] = d_r;
            dxdt[gi] = d_g;
        }
    }

    fn min_delay(&self) -> f64 {
        self.params.base.tau_feedback(0.0)
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let base = &self.params.base;
        let line = base.capacity_pps();
        let floor = base.min_rate_pps();
        let q = lane_of(0, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        for i in 0..self.classes.len() {
            let ri = lane_of(self.rate_index(i), lane, stride);
            x[ri] = x[ri].clamp(floor, line);
            let gi = lane_of(self.grad_index(i), lane, stride);
            x[gi] = x[gi].clamp(-10.0, 10.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_function_matches_eq30() {
        assert_eq!(PatchedTimelyParams::weight(-1.0), 0.0);
        assert_eq!(PatchedTimelyParams::weight(-0.25), 0.0);
        assert_eq!(PatchedTimelyParams::weight(0.0), 0.5);
        assert_eq!(PatchedTimelyParams::weight(0.25), 1.0);
        assert_eq!(PatchedTimelyParams::weight(2.0), 1.0);
        // Linear in the band, monotone overall.
        assert!((PatchedTimelyParams::weight(0.1) - 0.7).abs() < 1e-12);
        let mut prev = -0.1;
        for k in -10..=10 {
            let w = PatchedTimelyParams::weight(k as f64 * 0.05);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn q_star_matches_eq31() {
        let p = PatchedTimelyParams::default_10g();
        // q* = N δ q'/(β C) + q'.
        let base = &p.base;
        for n in [1usize, 4, 16, 40] {
            let manual = n as f64 * base.delta_pps() * p.q_ref_pkts
                / (base.beta * base.capacity_pps())
                + p.q_ref_pkts;
            assert!((p.q_star_pkts(n) - manual).abs() < 1e-9);
        }
        // Grows linearly with N.
        let d1 = p.q_star_pkts(2) - p.q_star_pkts(1);
        let d2 = p.q_star_pkts(10) - p.q_star_pkts(9);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn rhs_zero_at_theorem5_fixed_point() {
        let p = PatchedTimelyParams::default_10g();
        let n = 4usize;
        let r_star = p.base.capacity_pps() / n as f64;
        let q_star = p.q_star_pkts(n);
        let mut out = [0.0; 2];
        PatchedTimelyFluid::flow_rhs(&p, r_star, 0.0, q_star, q_star, &mut out);
        assert!(
            out[0].abs() / r_star < 1e-10,
            "dR/dt at fixed point = {}",
            out[0]
        );
        assert!(out[1].abs() < 1e-10, "dg/dt at fixed point = {}", out[1]);
    }

    #[test]
    fn unequal_starts_converge_to_fair_share() {
        // Figure 12(a): 7 Gbps vs 3 Gbps start converges (contrast Fig 9c).
        let p = PatchedTimelyParams::default_10g();
        let c = p.base.capacity_pps();
        let mut m = PatchedTimelyFluid::new(p, 2);
        let tr = m.simulate_with_rates(&[0.7 * c, 0.3 * c], 0.4);
        let r0 = tr.mean_from(m.rate_index(0), 0.35);
        let r1 = tr.mean_from(m.rate_index(1), 0.35);
        assert!(
            (r0 - r1).abs() / (r0 + r1) < 0.05,
            "rates must converge: {r0} vs {r1}"
        );
        // And the queue must sit at q*.
        let q_tail = tr.mean_from(0, 0.35);
        let q_star = m.params.q_star_pkts(2);
        assert!(
            (q_tail - q_star).abs() / q_star < 0.2,
            "queue {q_tail} vs q* {q_star}"
        );
    }

    #[test]
    fn stable_for_16_flows() {
        // Figure 12(b): N = 16 < 40 is stable.
        let p = PatchedTimelyParams::default_10g();
        let mut m = PatchedTimelyFluid::new(p, 16);
        let tr = m.simulate(0.5);
        let q_star = m.params.q_star_pkts(16);
        let osc = tr.peak_to_peak_from(0, 0.4) / q_star;
        assert!(osc < 0.3, "N=16 should be stable, oscillation {osc:.3}");
    }

    #[test]
    fn margin_positive_small_n_negative_large_n() {
        // Figure 11: stable until ~40 flows, then the margin collapses.
        let p = PatchedTimelyParams::default_10g();
        let pm = |n: usize| {
            PatchedTimelyFluid::new(p.clone(), n)
                .margin_report()
                .phase_margin_deg
                .unwrap_or(180.0)
        };
        let pm4 = pm(4);
        let pm64 = pm(64);
        assert!(pm4 > 0.0, "N=4 must be stable, pm = {pm4:.1}");
        assert!(pm64 < pm4, "margin must fall with N: {pm64:.1} vs {pm4:.1}");
        assert!(pm64 < 0.0, "N=64 should be unstable, pm = {pm64:.1}");
    }

    #[test]
    fn margin_decreases_with_flow_count() {
        // Figure 11's regime: as N grows, q* (Eq 31) grows, the feedback
        // delay (Eq 24) grows, and the margin collapses. (Very small N has
        // its own fast-update dynamics, so the monotone region starts at
        // moderate N.)
        let p = PatchedTimelyParams::default_10g();
        let pms: Vec<f64> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| {
                PatchedTimelyFluid::new(p.clone(), n)
                    .margin_report()
                    .phase_margin_deg
                    .unwrap_or(180.0)
            })
            .collect();
        for w in pms.windows(2) {
            assert!(
                w[1] < w[0] + 5.0,
                "patched TIMELY margin should broadly decrease: {pms:?}"
            );
        }
        // And it must actually cross zero somewhere in this range.
        assert!(pms[0] > 0.0 && *pms.last().unwrap() < 0.0, "{pms:?}");
    }
}
