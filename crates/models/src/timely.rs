//! The TIMELY fluid model (paper §4, Figure 7, Table 2).
//!
//! TIMELY adjusts rate from RTT samples (Algorithm 1): additive increase
//! below `T_low`, multiplicative decrease above `T_high`, and in between a
//! gradient rule — increase when the EWMA RTT gradient is ≤ 0, decrease
//! proportionally to the gradient otherwise. The fluid translation (Eqs
//! 20–24) has two structural properties proven in the paper and verified by
//! this module's tests:
//!
//! * **Theorem 3** — as published the system has *no* fixed point: at any
//!   candidate equilibrium `g_i = 0` forces `dR_i/dt = δ/τ* ≠ 0`;
//! * **Theorem 4** — flipping the tie (`g ≤ 0` → `g < 0`, Eq 28) yields
//!   *infinitely many* fixed points: any rate split with `Σ R_i = C` and
//!   `C·T_low < q < C·T_high` is an equilibrium, so fairness is accidental
//!   (Figure 9: the outcome depends on starting conditions).
//!
//! A key modelling point from §5.2: the feedback delay `τ′` **includes the
//! queueing delay** (Eq 24) because the RTT sample reflects the queue at
//! packet arrival. This is the structural disadvantage against ECN's
//! egress marking, and it is faithfully implemented here via a
//! state-dependent history lookup.

use crate::jitter::Jitter;
use crate::units;
use fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use fluid::dde::{lane_of, DdeOptions, LaneSystem};
use fluid::history::History;
use fluid::trace::Trace;

/// TIMELY parameters (Table 2 + the recommended values of footnote 4).
#[derive(Debug, Clone)]
pub struct TimelyParams {
    /// Packet size in bytes (the model's packet unit; also the MTU of Eq 24).
    pub packet_bytes: f64,
    /// Bottleneck bandwidth `C` in Gbps.
    pub capacity_gbps: f64,
    /// EWMA smoothing factor `α` for the RTT gradient.
    pub ewma_alpha: f64,
    /// Additive-increase step `δ` in Mbps.
    pub delta_mbps: f64,
    /// Multiplicative-decrease factor `β`.
    pub beta: f64,
    /// Low RTT threshold `T_low` in µs.
    pub t_low_us: f64,
    /// High RTT threshold `T_high` in µs.
    pub t_high_us: f64,
    /// Minimum RTT `D_minRTT` used for gradient normalization, in µs.
    pub d_min_rtt_us: f64,
    /// Propagation delay `D_prop` in µs.
    pub d_prop_us: f64,
    /// Burst (segment) size `Seg` in KB.
    pub seg_kb: f64,
    /// When true, rate increases on a zero gradient (`g ≤ 0`, Algorithm 1
    /// line 9 as published — Theorem 3). When false, uses the `<` variant
    /// of Eq 28 (Theorem 4).
    pub tie_increases: bool,
    /// Minimum rate floor in Mbps.
    pub min_rate_mbps: f64,
}

impl TimelyParams {
    /// The values recommended in \[21\] and used for the paper's validation
    /// (footnote 4): C = 10 Gbps, β = 0.8, α = 0.875, T_low = 50 µs,
    /// T_high = 500 µs, D_minRTT = 20 µs; δ = 10 Mbps (§4.2).
    pub fn default_10g() -> Self {
        TimelyParams {
            packet_bytes: 1000.0,
            capacity_gbps: 10.0,
            ewma_alpha: 0.875,
            delta_mbps: 10.0,
            beta: 0.8,
            t_low_us: 50.0,
            t_high_us: 500.0,
            d_min_rtt_us: 20.0,
            d_prop_us: 4.0,
            seg_kb: 16.0,
            tie_increases: true,
            min_rate_mbps: 10.0,
        }
    }

    /// Capacity in packets/second.
    pub fn capacity_pps(&self) -> f64 {
        units::gbps_to_pps(self.capacity_gbps, self.packet_bytes)
    }

    /// `δ` in packets/second.
    pub fn delta_pps(&self) -> f64 {
        units::mbps_to_pps(self.delta_mbps, self.packet_bytes)
    }

    /// Queue level corresponding to `T_low` (packets): `C·T_low`.
    pub fn q_low_pkts(&self) -> f64 {
        self.capacity_pps() * units::us_to_s(self.t_low_us)
    }

    /// Queue level corresponding to `T_high` (packets): `C·T_high`.
    pub fn q_high_pkts(&self) -> f64 {
        self.capacity_pps() * units::us_to_s(self.t_high_us)
    }

    /// Segment size in packets.
    pub fn seg_pkts(&self) -> f64 {
        self.seg_kb * 1000.0 / self.packet_bytes
    }

    /// `D_minRTT` in seconds.
    pub fn d_min_rtt_s(&self) -> f64 {
        units::us_to_s(self.d_min_rtt_us)
    }

    /// `D_prop` in seconds.
    pub fn d_prop_s(&self) -> f64 {
        units::us_to_s(self.d_prop_us)
    }

    /// Rate-update interval `τ*` for a flow at rate `r` (Eq 23):
    /// `max(Seg/R, D_minRTT)`.
    pub fn tau_star(&self, r: f64) -> f64 {
        (self.seg_pkts() / r.max(1e-3)).max(self.d_min_rtt_s())
    }

    /// Feedback delay `τ′` for queue `q` (Eq 24): `q/C + MTU/C + D_prop` —
    /// queueing delay *included*, unlike ECN.
    pub fn tau_feedback(&self, q: f64) -> f64 {
        let c = self.capacity_pps();
        q.max(0.0) / c + 1.0 / c + self.d_prop_s()
    }

    /// Minimum rate in packets/second.
    pub fn min_rate_pps(&self) -> f64 {
        units::mbps_to_pps(self.min_rate_mbps, self.packet_bytes)
    }
}

/// The TIMELY fluid model for `N` flows over one bottleneck.
///
/// State layout: `x\[0\] = q`; flow `i` occupies `x[1+2i] = R_i`,
/// `x[2+2i] = g_i`. Integration steps one block per class of flows with
/// bitwise-identical initial state *and* start time (see
/// [`fluid::classes`]).
#[derive(Debug, Clone)]
pub struct TimelyFluid {
    /// Model parameters.
    pub params: TimelyParams,
    /// Number of flows.
    pub n_flows: usize,
    /// Per-flow start times in seconds (flows contribute nothing and stay
    /// frozen before their start; Figure 9b starts one flow 10 ms late).
    pub start_times: Vec<f64>,
    /// Optional feedback-delay jitter on `τ′` (Figure 20).
    pub jitter: Option<Jitter>,
    /// The flow partition the RHS loops over (identity outside `simulate*`).
    classes: FlowClasses,
}

/// One shared queue, then `(R_i, g_i)` per flow — TIMELY's and patched
/// TIMELY's layout.
pub(crate) const LAYOUT: FlowLayout = FlowLayout {
    shared: 1,
    per_flow: 2,
};

impl TimelyFluid {
    /// New model; all flows start at t = 0.
    pub fn new(params: TimelyParams, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        TimelyFluid {
            params,
            n_flows,
            start_times: vec![0.0; n_flows],
            jitter: None,
            classes: FlowClasses::identity(n_flows),
        }
    }

    /// Set per-flow start times (Figure 9b).
    pub fn with_start_times(mut self, starts: Vec<f64>) -> Self {
        assert_eq!(starts.len(), self.n_flows);
        self.start_times = starts;
        self
    }

    /// Attach feedback-delay jitter (Figure 20).
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

    /// Simulate with explicit initial rates (packets/second). Gradients
    /// start at 0 and the queue empty.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        assert_eq!(initial_rates_pps.len(), self.n_flows);
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &r) in initial_rates_pps.iter().enumerate() {
            x0[self.rate_index(i)] = r;
        }
        let step = (self.params.d_prop_s() / 2.0).min(1e-6);
        // History must reach back τ' + τ* at the largest plausible queue.
        let horizon = self.params.tau_feedback(self.params.q_high_pkts() * 4.0)
            + self.params.tau_star(self.params.min_rate_pps())
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

    /// Simulate with the paper's default start: each flow at `C/N`
    /// ("a new flow starts at rate C/(N+1)"; with N simultaneous flows the
    /// validation uses 1/N of link bandwidth).
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let r0 = self.params.capacity_pps() / self.n_flows as f64;
        let rates = vec![r0; self.n_flows];
        self.simulate_with_rates(&rates, duration_s)
    }

    /// Per-flow rate series in Gbps.
    pub fn rates_gbps(&self, trace: &Trace, flow: usize) -> Vec<(f64, f64)> {
        trace
            .series(self.rate_index(flow))
            .into_iter()
            .map(|(t, pps)| (t, units::pps_to_gbps(pps, self.params.packet_bytes)))
            .collect()
    }

    /// Queue series in KB.
    pub fn queue_kb(&self, trace: &Trace) -> Vec<(f64, f64)> {
        trace
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, units::pkts_to_kb(pkts, self.params.packet_bytes)))
            .collect()
    }

    /// The rate derivative dR/dt of Eq 21 for one flow (pps/s), given the
    /// delayed queue observations. Exposed for the Theorem 3/4 tests.
    pub fn eq21_drdt(&self, r: f64, g: f64, q_delayed: f64) -> f64 {
        let p = &self.params;
        let tau = p.tau_star(r);
        let q_low = p.q_low_pkts();
        let q_high = p.q_high_pkts();
        if q_delayed < q_low {
            p.delta_pps() / tau
        } else if q_delayed > q_high {
            -(p.beta / tau) * (1.0 - q_high / q_delayed) * r
        } else {
            let increase_on_tie = if p.tie_increases { g <= 0.0 } else { g < 0.0 };
            if increase_on_tie {
                p.delta_pps() / tau
            } else {
                -(g.max(0.0) * p.beta / tau) * r
            }
        }
    }
}

impl FlowClassSystem for TimelyFluid {
    fn layout(&self) -> FlowLayout {
        LAYOUT
    }

    /// A flow is frozen until its start time, so equal rates with distinct
    /// start times are distinct trajectories.
    fn flow_param_bits(&self, i: usize, key: &mut Vec<u64>) {
        key.push(self.start_times[i].to_bits());
    }

    fn classes_mut(&mut self) -> &mut FlowClasses {
        &mut self.classes
    }
}

impl LaneSystem for TimelyFluid {
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
        let p = &self.params;
        let c = p.capacity_pps();
        let extra = self.jitter.as_ref().map_or(0.0, |j| j.extra(t));
        let q_lane = lane_of(0, lane, stride);
        // Eq 24: feedback delay includes the *current* queueing delay — the
        // delayed lookup time is per-lane because each lane has its own queue.
        let tau_fb = p.tau_feedback(x[q_lane]) + extra;
        let qd1 = hist.eval(t - tau_fb, q_lane).max(0.0);

        // Every flow in flow order, reading its class's rate: the same
        // additions as the N-flow sum.
        let mut sum_rates = 0.0;
        for (i, &k) in self.classes.class_of().iter().enumerate() {
            if t >= self.start_times[i] {
                sum_rates += x[lane_of(self.rate_index(k), lane, stride)];
            }
        }
        // State component 0 is the shared queue.
        dxdt[q_lane] = if x[q_lane] <= 0.0 && sum_rates < c {
            0.0
        } else {
            sum_rates - c
        };

        for (i, &first) in self.classes.representatives().iter().enumerate() {
            let ri = lane_of(self.rate_index(i), lane, stride);
            let gi = lane_of(self.grad_index(i), lane, stride);
            if t < self.start_times[first] {
                dxdt[ri] = 0.0;
                dxdt[gi] = 0.0;
                continue;
            }
            let r = x[ri];
            let g = x[gi];
            let tau_i = p.tau_star(r);
            let t2 = t - tau_fb - tau_i;
            let qd2 = hist.eval(t2, q_lane).max(0.0);
            dxdt[ri] = self.eq21_drdt(r, g, qd1);
            // Eq 22: EWMA of the normalized queue (≈ RTT) difference.
            dxdt[gi] = p.ewma_alpha / tau_i * (-g + (qd1 - qd2) / (c * p.d_min_rtt_s()));
        }
    }

    fn min_delay(&self) -> f64 {
        // τ' at an empty queue: MTU/C + D_prop.
        self.params.tau_feedback(0.0)
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let p = &self.params;
        let line = p.capacity_pps();
        let floor = p.min_rate_pps();
        let q = lane_of(0, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        for i in 0..self.classes.len() {
            let ri = lane_of(self.rate_index(i), lane, stride);
            x[ri] = x[ri].clamp(floor, line);
            // Gradient is a normalized dimensionless signal; keep it sane.
            let gi = lane_of(self.grad_index(i), lane, stride);
            x[gi] = x[gi].clamp(-10.0, 10.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_in_packets() {
        let p = TimelyParams::default_10g();
        // 10 Gbps, 1 KB packets → C = 1.25e6 pps; T_low = 50 µs → 62.5 pkts.
        assert!((p.q_low_pkts() - 62.5).abs() < 1e-9);
        assert!((p.q_high_pkts() - 625.0).abs() < 1e-9);
    }

    #[test]
    fn tau_star_respects_floor() {
        let p = TimelyParams::default_10g();
        // Fast flow: Seg/R below D_minRTT → floor at D_minRTT.
        let fast = p.capacity_pps();
        assert!((p.tau_star(fast) - p.d_min_rtt_s()).abs() < 1e-12);
        // Slow flow: Seg/R dominates.
        let slow = p.capacity_pps() / 100.0;
        assert!(p.tau_star(slow) > p.d_min_rtt_s());
    }

    #[test]
    fn feedback_delay_includes_queueing() {
        let p = TimelyParams::default_10g();
        let empty = p.tau_feedback(0.0);
        let full = p.tau_feedback(625.0);
        // 625 pkts at 1.25e6 pps = 500 µs of extra queueing delay.
        assert!((full - empty - 500e-6).abs() < 1e-9);
    }

    #[test]
    fn theorem3_no_fixed_point() {
        // At any candidate equilibrium (dq = 0, dg = 0 ⇒ g = 0), the rate
        // derivative is δ/τ* > 0 in the gradient region — no fixed point.
        let m = TimelyFluid::new(TimelyParams::default_10g(), 2);
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 1e5, 6.25e5] {
            let drdt = m.eq21_drdt(r, 0.0, q_mid);
            assert!(drdt > 0.0, "dR/dt must be δ/τ* > 0 at g = 0, got {drdt}");
        }
    }

    #[test]
    fn theorem4_infinite_fixed_points_under_strict_tie() {
        // With the < variant (Eq 28), g = 0 gives dR/dt = 0 for *any* rate
        // split — infinitely many fixed points.
        let mut params = TimelyParams::default_10g();
        params.tie_increases = false;
        let m = TimelyFluid::new(params, 2);
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 2e5, 1e6] {
            let drdt = m.eq21_drdt(r, 0.0, q_mid);
            assert_eq!(drdt, 0.0, "any rate is an equilibrium under Eq 28");
        }
    }

    #[test]
    fn regime_boundaries() {
        let m = TimelyFluid::new(TimelyParams::default_10g(), 1);
        let p = &m.params;
        // Below T_low: increase regardless of gradient.
        assert!(m.eq21_drdt(1e5, 5.0, p.q_low_pkts() * 0.5) > 0.0);
        // Above T_high: multiplicative decrease regardless of gradient.
        assert!(m.eq21_drdt(1e5, -5.0, p.q_high_pkts() * 2.0) < 0.0);
        // Middle with positive gradient: decrease proportional to g.
        let d1 = m.eq21_drdt(1e5, 0.5, p.q_low_pkts() * 2.0);
        let d2 = m.eq21_drdt(1e5, 1.0, p.q_low_pkts() * 2.0);
        assert!(d1 < 0.0 && d2 < d1, "decrease scales with gradient");
    }

    #[test]
    fn different_initial_conditions_reach_different_splits() {
        // Figure 9: same protocol, different starting rates ⇒ different
        // long-run rate splits (arbitrary unfairness).
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();

        let mut m1 = TimelyFluid::new(params.clone(), 2);
        let tr1 = m1.simulate_with_rates(&[c * 0.5, c * 0.5], 0.15);
        let mut m2 = TimelyFluid::new(params.clone(), 2);
        let tr2 = m2.simulate_with_rates(&[c * 0.7, c * 0.3], 0.15);

        let split = |m: &TimelyFluid, tr: &Trace| {
            let r0 = tr.mean_from(m.rate_index(0), 0.1);
            let r1 = tr.mean_from(m.rate_index(1), 0.1);
            r0 / (r0 + r1)
        };
        let s1 = split(&m1, &tr1);
        let s2 = split(&m2, &tr2);
        // Equal start stays (roughly) symmetric; unequal start stays skewed.
        assert!((s1 - 0.5).abs() < 0.1, "equal start split {s1}");
        assert!(s2 > 0.55, "unequal start should persist, split {s2}");
    }

    #[test]
    fn late_start_flow_is_frozen_then_active() {
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();
        let mut m = TimelyFluid::new(params, 2).with_start_times(vec![0.0, 0.01]);
        let tr = m.simulate_with_rates(&[c * 0.5, c * 0.5], 0.03);
        // Before t = 10 ms the second flow's rate must not have moved.
        let early: Vec<(f64, f64)> = tr
            .series(m.rate_index(1))
            .into_iter()
            .filter(|&(t, _)| t < 0.009)
            .collect();
        for &(_, r) in &early {
            assert!((r - c * 0.5).abs() < 1e-6, "frozen before start");
        }
        // After start it evolves (queue pressure from flow 0 exists).
        let late = tr.mean_from(m.rate_index(1), 0.025);
        assert!(
            (late - c * 0.5).abs() > 1e3,
            "flow 1 must react after start"
        );
    }

    #[test]
    fn jitter_runs_are_deterministic_per_seed() {
        use crate::jitter::Jitter;
        let params = TimelyParams::default_10g();
        let run = |seed: u64| {
            let mut m = TimelyFluid::new(params.clone(), 2)
                .with_jitter(Jitter::uniform(50e-6, 10e-6, seed));
            let tr = m.simulate(0.02);
            tr.last_state().unwrap().to_vec()
        };
        assert_eq!(run(1), run(1), "same seed, same trajectory");
        let a = run(1);
        let b = run(2);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 0.0, "different seeds should diverge");
    }

    #[test]
    fn utilization_reaches_capacity() {
        // Whatever the fairness, TIMELY keeps the link busy: Σ rates ≈ C
        // once the queue is nonempty in steady operation.
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();
        let mut m = TimelyFluid::new(params, 4);
        let tr = m.simulate(0.2);
        let sum: f64 = (0..4).map(|i| tr.mean_from(m.rate_index(i), 0.15)).sum();
        assert!((sum - c).abs() / c < 0.1, "aggregate {sum} vs capacity {c}");
    }
}
