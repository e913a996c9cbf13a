//! PI-controller variants (paper §5.2, Eq 32, Figures 18 and 19).
//!
//! The integral controller drives the queue error `e = q − q_ref` to zero:
//! `dp/dt = K₁·de/dt + K₂·e`. Where the controller runs decides what it can
//! deliver — this is the operational content of **Theorem 6**:
//!
//! * [`DcqcnPiFluid`] — PI marking **at the switch** replaces RED. The
//!   marking probability `p` is a shared signal, so the DCQCN fixed point
//!   keeps fair rates *and* the queue is pinned at `q_ref` regardless of the
//!   number of flows (Figure 18);
//! * [`TimelyLaw::PatchedPi`](crate::timely::TimelyLaw::PatchedPi) — PI
//!   **at each end host** computes a private `p_i` from delay samples and
//!   uses it in place of the queue-error term of Eq 29. The integral action
//!   still pins the queue at `q_ref`, but the per-flow `p_i` can settle
//!   anywhere consistent with `ΣR_i = C`, so the rate split is arbitrary
//!   (Figure 19) — fairness or fixed delay, never both, when delay is the
//!   only feedback.

use crate::dcqcn::{DcqcnFluid, DcqcnParams, FlowTerms, MarkTerms};
use crate::units;
use fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use fluid::dde::{lane_of, DdeOptions, LaneSystem};
use fluid::history::History;
use fluid::stage::{StageInstant, StagedLane, Stages};
use fluid::trace::Trace;

/// Gains and reference for the PI controller (Eq 32).
#[derive(Debug, Clone)]
pub struct PiGains {
    /// Proportional-on-derivative gain `K₁` (per packet).
    pub k1: f64,
    /// Integral gain `K₂` (per packet-second).
    pub k2: f64,
    /// Reference queue `q_ref` in packets.
    pub q_ref_pkts: f64,
}

/// DCQCN with PI marking at the switch (Figure 18).
///
/// State layout: `x\[0\] = q`, `x\[1\] = p` (marking probability), flow `i` at
/// `x[2+3i..5+3i] = (R_C, R_T, α)`. Integration steps one block per class of
/// bitwise-identical flows (see [`fluid::classes`]).
#[derive(Debug, Clone)]
pub struct DcqcnPiFluid {
    /// DCQCN parameters (RED thresholds unused; `p` comes from the PI loop).
    pub params: DcqcnParams,
    /// PI gains.
    pub gains: PiGains,
    /// Number of flows.
    pub n_flows: usize,
    /// The flow partition the RHS loops over (identity outside `simulate`).
    classes: FlowClasses,
}

/// Queue and marking probability, then `(R_C, R_T, α)` per flow.
const DCQCN_PI_LAYOUT: FlowLayout = FlowLayout {
    shared: 2,
    per_flow: 3,
};

impl DcqcnPiFluid {
    /// Gains that stabilize the 40 Gbps configuration across 2–64 flows
    /// (chosen by sweeping the fluid model; see the fig18 bench).
    pub fn default_gains(params: &DcqcnParams, q_ref_kb: f64) -> PiGains {
        PiGains {
            k1: 5e-5,
            k2: 5e-3,
            q_ref_pkts: units::kb_to_pkts(q_ref_kb, params.packet_bytes),
        }
    }

    /// New model.
    pub fn new(params: DcqcnParams, gains: PiGains, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        DcqcnPiFluid {
            params,
            gains,
            n_flows,
            classes: FlowClasses::identity(n_flows),
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        2 + 3 * self.n_flows
    }

    /// Index of flow `i`'s current rate.
    pub fn rc_index(&self, i: usize) -> usize {
        2 + 3 * i
    }

    /// Index of flow `i`'s target rate.
    pub fn rt_index(&self, i: usize) -> usize {
        3 + 3 * i
    }

    /// Index of flow `i`'s α.
    pub fn alpha_index(&self, i: usize) -> usize {
        4 + 3 * i
    }

    /// Simulate from line-rate start (DCQCN semantics), queue empty,
    /// marking probability starting at 0.
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let line = self.params.capacity_pps();
        let mut x0 = vec![0.0; self.state_dim()];
        for i in 0..self.n_flows {
            x0[self.rc_index(i)] = line;
            x0[self.rt_index(i)] = line;
            x0[self.alpha_index(i)] = 1.0;
        }
        let step = (self.params.feedback_delay_s() / 4.0).min(1e-6);
        let record_every = ((duration_s / step) / 4000.0).ceil().max(1.0) as usize;
        let opts = DdeOptions {
            step,
            record_every,
            history_horizon_s: self.params.feedback_delay_s() * 4.0 + 10.0 * step,
        };
        try_integrate_classes(std::slice::from_mut(self), &[x0], 0.0, duration_s, &opts)
            .and_then(|mut lanes| lanes.remove(0)) // one lane in, one out
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl FlowClassSystem for DcqcnPiFluid {
    fn layout(&self) -> FlowLayout {
        DCQCN_PI_LAYOUT
    }

    fn classes_mut(&mut self) -> &mut FlowClasses {
        &mut self.classes
    }
}

impl LaneSystem for DcqcnPiFluid {
    fn lane_dim(&self) -> usize {
        DCQCN_PI_LAYOUT.dim(self.classes.len())
    }

    /// Both phases of the split kernel back to back, for callers outside an
    /// integrator's stage slots (see [`DcqcnFluid`]'s `lane_rhs`).
    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        self.rhs_unstaged(t, x, lane, stride, hist, dxdt);
    }

    fn lanes_rhs_at(
        lanes: &mut [Self],
        at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        stages: &mut Stages,
        dxdt: &mut [f64],
    ) {
        stages.rhs(lanes, at, t, x, hist, dxdt);
    }

    fn min_delay(&self) -> f64 {
        self.params.feedback_delay_s()
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let line = self.params.capacity_pps();
        let floor = self.params.min_rate_pps();
        let q = lane_of(0, lane, stride);
        let pp = lane_of(1, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        x[pp] = x[pp].clamp(0.0, 1.0); // component 1 is p
        for i in 0..self.classes.len() {
            let rc = lane_of(self.rc_index(i), lane, stride);
            let rt = lane_of(self.rt_index(i), lane, stride);
            let al = lane_of(self.alpha_index(i), lane, stride);
            x[rc] = x[rc].clamp(floor, line);
            x[rt] = x[rt].clamp(floor, line);
            x[al] = x[al].clamp(0.0, 1.0);
        }
    }
}

impl StagedLane for DcqcnPiFluid {
    /// All delayed lookups — `p` and every flow's rate — share the constant
    /// loop delay.
    fn delayed_instant(&self, t: f64) -> f64 {
        t - self.params.feedback_delay_s()
    }

    /// DCQCN's flow terms, with the PI loop's delayed `p` in RED's place.
    fn stage(&self, delayed: &[f64], terms: &mut Vec<f64>) {
        let p = &self.params;
        let p_delayed = delayed[1].clamp(0.0, 1.0); // component 1 is p
        let mk = MarkTerms::new(p, p_delayed);
        let rc_delayed = (0..self.classes.len()).map(|i| delayed[self.rc_index(i)]);
        FlowTerms::stage(p, &mk, rc_delayed, terms);
    }

    fn rhs_staged(
        &mut self,
        x: &[f64],
        lane: usize,
        stride: usize,
        terms: &[f64],
        dxdt: &mut [f64],
    ) {
        let p = &self.params;
        let cap = p.capacity_pps();
        let q = lane_of(0, lane, stride);
        let pp = lane_of(1, lane, stride);
        // Every flow in flow order, reading its class's rate: the same
        // additions as the N-flow sum.
        let sum_rates: f64 = self
            .classes
            .class_of()
            .iter()
            .map(|&k| x[lane_of(self.rc_index(k), lane, stride)])
            .sum();
        // State layout: component 0 is the queue, component 1 is p.
        let dq = if x[q] <= 0.0 && sum_rates < cap {
            0.0
        } else {
            sum_rates - cap
        };
        dxdt[q] = dq; // component 0 is the queue
                      // Eq 32: PI marking replaces RED. Anti-windup: freeze integration
                      // against the [0,1] bounds.
        let e = x[q] - self.gains.q_ref_pkts; // component 0 is the queue
        let mut dp = self.gains.k1 * dq + self.gains.k2 * e;
        // Component 1 is p.
        if (x[pp] >= 1.0 && dp > 0.0) || (x[pp] <= 0.0 && dp < 0.0) {
            dp = 0.0;
        }
        dxdt[pp] = dp; // component 1 is p

        let mut out = [0.0; 3];
        for (i, ft) in FlowTerms::staged(terms).enumerate() {
            let rci = lane_of(self.rc_index(i), lane, stride);
            let rti = lane_of(self.rt_index(i), lane, stride);
            let ali = lane_of(self.alpha_index(i), lane, stride);
            // Reuse the DCQCN per-flow dynamics with the PI-supplied p.
            DcqcnFluid::flow_rhs_staged(p, &ft, x[rci], x[rti], x[ali], &mut out);
            let [d_rc, d_rt, d_alpha] = out;
            dxdt[rci] = d_rc;
            dxdt[rti] = d_rt;
            dxdt[ali] = d_alpha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_pi_pins_queue_independent_of_n() {
        // Figure 18: queue stabilizes at q_ref for any number of flows.
        let params = DcqcnParams::default_40g();
        let gains = DcqcnPiFluid::default_gains(&params, 100.0);
        let q_ref = gains.q_ref_pkts;
        for n in [2usize, 10] {
            let mut m = DcqcnPiFluid::new(params.clone(), gains.clone(), n);
            let tr = m.simulate(0.25);
            let q_tail = tr.mean_from(0, 0.2);
            assert!(
                (q_tail - q_ref).abs() / q_ref < 0.15,
                "N={n}: queue {q_tail:.1} vs q_ref {q_ref:.1}"
            );
        }
    }

    #[test]
    fn dcqcn_pi_keeps_fairness() {
        // Figure 18: flows converge to the same fair rate under PI marking.
        let params = DcqcnParams::default_40g();
        let gains = DcqcnPiFluid::default_gains(&params, 100.0);
        let mut m = DcqcnPiFluid::new(params, gains, 4);
        let tr = m.simulate(0.25);
        let fair = m.params.capacity_pps() / 4.0;
        for i in 0..4 {
            let r = tr.mean_from(m.rc_index(i), 0.2);
            assert!(
                (r - fair).abs() / fair < 0.1,
                "flow {i} rate {r:.0} vs fair {fair:.0}"
            );
        }
    }

    #[test]
    fn timely_pi_pins_queue_but_not_fairness() {
        // Figure 19 / Theorem 6: the queue is controlled to q_ref (300 KB)
        // but an asymmetric start persists — delay-only feedback cannot
        // give both.
        let mut m = crate::timely::TimelyFluid::patched_pi_10g(300.0, 2);
        let q_ref = m.q_star_pkts();
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&[0.9 * c, 0.1 * c], 0.6);
        let q_tail = tr.mean_from(0, 0.5);
        assert!(
            (q_tail - q_ref).abs() / q_ref < 0.2,
            "queue {q_tail:.1} vs q_ref {q_ref:.1}"
        );
        let r0 = tr.mean_from(m.rate_index(0), 0.5);
        let r1 = tr.mean_from(m.rate_index(1), 0.5);
        // Utilization holds...
        assert!(((r0 + r1) - c).abs() / c < 0.15, "sum {}", r0 + r1);
        // ...but the split stays skewed (no convergence to fairness).
        assert!(
            r0 / (r0 + r1) > 0.6,
            "unfair split should persist: {} / {}",
            r0,
            r1
        );
    }
}
