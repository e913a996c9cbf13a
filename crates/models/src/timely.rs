//! The TIMELY family of fluid models (paper §4–§5, Figure 7, Table 2,
//! Algorithm 2, Eqs 20–32).
//!
//! TIMELY adjusts rate from RTT samples (Algorithm 1): additive increase
//! below `T_low`, multiplicative decrease above `T_high`, and in between a
//! rule on the EWMA RTT gradient. The fluid translation (Eqs 20–24) is one
//! model, [`TimelyFluid`]; its members differ only in that gradient-band
//! rule, the [`TimelyLaw`]:
//!
//! * [`TimelyLaw::Original`] — Eq 21: increase when the gradient is ≤ 0,
//!   decrease in proportion to it otherwise. **Theorem 3**: as published the
//!   system has *no* fixed point (at any candidate equilibrium `g_i = 0`
//!   forces `dR_i/dt = δ/τ* ≠ 0`). **Theorem 4**: flipping the tie
//!   (`g ≤ 0` → `g < 0`, Eq 28) yields *infinitely many* — any split with
//!   `Σ R_i = C` and `C·T_low < q < C·T_high` — so fairness is accidental
//!   (Figure 9: the outcome depends on starting conditions).
//! * [`TimelyLaw::Patched`] — Patched TIMELY (§4.3, Eq 29): the decrease
//!   uses the **absolute** queue error `(q(t−τ′) − q′)/q′`, which every flow
//!   shares, and the hard switch becomes the continuous weight `w(g)` of
//!   Eq 30. **Theorem 5**: the unique fair fixed point
//!   `q* = N·δ·q′/(β·C) + q′`. [`TimelyFluid::loop_transfer`] linearizes it
//!   for Figure 11 with the feedback delay frozen at
//!   `τ′* = q*/C + MTU/C + D_prop`, which grows with `N` (Eq 31 ⊕ Eq 24) and
//!   is why stability collapses past ~40 flows.
//! * [`TimelyLaw::PatchedPi`] — Figure 19's end-host PI: each flow integrates
//!   a private `p_i` from its delay samples (Eq 32) and uses it in place of
//!   Eq 29's queue-error term. The integral action pins the queue at `q_ref`,
//!   but the per-flow `p_i` can settle anywhere consistent with `Σ R_i = C`,
//!   so the split is arbitrary (**Theorem 6**).
//!
//! A key modelling point from §5.2: the feedback delay `τ′` **includes the
//! queueing delay** (Eq 24) because the RTT sample reflects the queue at
//! packet arrival. This is the structural disadvantage against ECN's
//! egress marking, and it is faithfully implemented here via a
//! state-dependent history lookup.

use crate::jitter::Jitter;
use crate::pi::PiGains;
use crate::units;
use control::complex::Complex64;
use control::linearize;
use control::margins::{phase_margin, MarginReport};
use control::DelayLtiEvaluator;
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
    /// Under [`TimelyLaw::Original`]: when true, rate increases on a zero
    /// gradient (`g ≤ 0`, Algorithm 1 line 9 as published — Theorem 3). When
    /// false, uses the `<` variant of Eq 28 (Theorem 4).
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

/// The rate rule inside the gradient band `C·T_low ≤ q(t−τ′) ≤ C·T_high` —
/// the one thing the members of the TIMELY family do differently.
///
/// ```
/// use models::timely::{weight, TimelyFluid};
///
/// // Theorem 5: q* = N·δ·q'/(β·C) + q' grows linearly with N.
/// assert!(TimelyFluid::patched_10g(10).q_star_pkts() > TimelyFluid::patched_10g(2).q_star_pkts());
/// assert_eq!(weight(0.0), 0.5); // Eq 30
/// ```
#[derive(Debug, Clone)]
pub enum TimelyLaw {
    /// Eq 21: `+δ/τ*` on a non-positive gradient (see
    /// [`TimelyParams::tie_increases`]), else `−g·β·R/τ*`.
    Original,
    /// Eq 29: `(1 − w(g))·δ/τ* − w(g)·β·R/τ*·(q(t−τ′) − q′)/q′`.
    Patched {
        /// Reference queue `q′` in packets. The paper sets `q′ = C·T_low`.
        q_ref_pkts: f64,
    },
    /// Eq 29 with each flow's PI variable `p_i` (Eq 32, run at the end host
    /// on delayed queue samples) in place of `(q − q′)/q′`. The flow block
    /// grows to `(R_i, g_i, p_i)`; `q_ref_pkts` is the delay target.
    PatchedPi(PiGains),
}

/// The weight function `w(g)` of Eq 30: 0 below −1/4, linear (`2g + 1/2`)
/// in between, 1 above 1/4.
pub fn weight(g: f64) -> f64 {
    if g <= -0.25 {
        0.0
    } else if g >= 0.25 {
        1.0
    } else {
        2.0 * g + 0.5
    }
}

/// The TIMELY fluid model for `N` flows over one bottleneck.
///
/// State layout: `x\[0\] = q`; flow `i` occupies the block
/// `(R_i, g_i)` at `x[1+2i..3+2i]`, or `(R_i, g_i, p_i)` at `x[1+3i..4+3i]`
/// under [`TimelyLaw::PatchedPi`]. Integration steps one block per class of
/// flows with bitwise-identical initial state *and* start time (see
/// [`fluid::classes`]).
#[derive(Debug, Clone)]
pub struct TimelyFluid {
    /// Model parameters.
    pub params: TimelyParams,
    /// The gradient-band rule.
    pub law: TimelyLaw,
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

impl TimelyFluid {
    /// New model; all flows start at t = 0.
    pub fn new(params: TimelyParams, law: TimelyLaw, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        TimelyFluid {
            params,
            law,
            n_flows,
            start_times: vec![0.0; n_flows],
            jitter: None,
            classes: FlowClasses::identity(n_flows),
        }
    }

    /// The paper's Patched TIMELY on 10 Gbps (§4.3): TIMELY defaults with
    /// `β = 0.008` and `Seg = 16 KB`, and `q′ = C·T_low`.
    pub fn patched_10g(n_flows: usize) -> Self {
        let mut params = TimelyParams::default_10g();
        params.beta = 0.008;
        let q_ref_pkts = params.q_low_pkts();
        TimelyFluid::new(params, TimelyLaw::Patched { q_ref_pkts }, n_flows)
    }

    /// Figure 19: the patched configuration with an end-host PI whose gains
    /// pin the queue at `q_ref_kb`.
    pub fn patched_pi_10g(q_ref_kb: f64, n_flows: usize) -> Self {
        let mut m = TimelyFluid::patched_10g(n_flows);
        m.law = TimelyLaw::PatchedPi(PiGains {
            k1: 5e-5,
            k2: 5e-2,
            q_ref_pkts: units::kb_to_pkts(q_ref_kb, m.params.packet_bytes),
        });
        m
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

    /// Width of one flow's block: 2, or 3 with the PI variable.
    fn block_width(&self) -> usize {
        match self.law {
            TimelyLaw::PatchedPi(_) => 3,
            _ => 2,
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.layout().dim(self.n_flows)
    }

    /// Index of flow `i`'s rate.
    pub fn rate_index(&self, i: usize) -> usize {
        1 + self.block_width() * i
    }

    /// Index of flow `i`'s PI variable `p_i` ([`TimelyLaw::PatchedPi`]).
    pub fn p_index(&self, i: usize) -> usize {
        self.rate_index(i) + 2
    }

    /// The fixed-point queue in packets: Theorem 5's
    /// `q* = N·δ·q′/(β·C) + q′` (Eq 31) under [`TimelyLaw::Patched`], `q_ref`
    /// under [`TimelyLaw::PatchedPi`]. Panics under [`TimelyLaw::Original`],
    /// which has none (Theorem 3).
    pub fn q_star_pkts(&self) -> f64 {
        let p = &self.params;
        match self.law {
            TimelyLaw::Original => panic!("TIMELY has no fixed point (Theorem 3)"),
            TimelyLaw::Patched { q_ref_pkts: q } => {
                self.n_flows as f64 * p.delta_pps() * q / (p.beta * p.capacity_pps()) + q
            }
            TimelyLaw::PatchedPi(ref k) => k.q_ref_pkts,
        }
    }

    /// Fixed-point queue in KB.
    pub fn q_star_kb(&self) -> f64 {
        units::pkts_to_kb(self.q_star_pkts(), self.params.packet_bytes)
    }

    /// One flow's `[dR/dt, dg/dt, dp/dt]` (Eqs 21/29, 22 and 32) given its
    /// state `(r, g, p_i)` and the delayed queue observations
    /// `qd1 = q(t−τ′)` and `qd2 = q(t−τ′−τ*)`. `p_i` and `dp/dt` belong to
    /// [`TimelyLaw::PatchedPi`] (the others ignore `p_i` and answer 0).
    pub fn flow_rhs(&self, r: f64, g: f64, p_i: f64, qd1: f64, qd2: f64) -> [f64; 3] {
        let p = &self.params;
        self.flow_rhs_with(
            &FlowConsts::of(p, &self.law),
            p.tau_star(r),
            [r, g, p_i],
            qd1,
            qd2,
        )
    }

    /// [`TimelyFluid::flow_rhs`] given the flow's `τ* = tau` and `c`.
    #[inline(always)]
    fn flow_rhs_with(
        &self,
        c: &FlowConsts,
        tau: f64,
        [r, g, p_i]: [f64; 3],
        qd1: f64,
        qd2: f64,
    ) -> [f64; 3] {
        let p = &self.params;
        let d_r = if qd1 < c.q_low_pkts {
            c.delta_pps / tau
        } else if qd1 > c.q_high_pkts {
            -(p.beta / tau) * (1.0 - c.q_high_pkts / qd1) * r
        } else {
            let error = match self.law {
                TimelyLaw::Original => None,
                TimelyLaw::Patched { .. } => Some((qd1 - c.q_ref_pkts) / c.q_ref_pkts),
                TimelyLaw::PatchedPi(_) => Some(p_i),
            };
            let increase = if p.tie_increases { g <= 0.0 } else { g < 0.0 };
            match error {
                None if increase => c.delta_pps / tau,
                None => -(g.max(0.0) * p.beta / tau) * r,
                Some(e) => {
                    let w = weight(g);
                    (1.0 - w) * c.delta_pps / tau - w * p.beta * r / tau * e
                }
            }
        };
        // Eq 22: EWMA of the normalized queue (≈ RTT) difference.
        let d_g = p.ewma_alpha / tau * (-g + (qd1 - qd2) / c.grad_norm_pkts);
        // Eq 32 at the end host: e from the delayed queue, de/dt from
        // successive samples.
        let d_p = match self.law {
            TimelyLaw::PatchedPi(_) => c.k1 * ((qd1 - qd2) / tau) + c.k2 * (qd1 - c.q_ref_pkts),
            _ => 0.0,
        };
        [d_r, d_g, d_p]
    }

    /// Simulate with explicit initial rates (packets/second). Gradients
    /// start at 0 and the queue empty.
    ///
    /// Under [`TimelyLaw::PatchedPi`] each flow's PI variable starts at the
    /// value consistent with its own rate, `p_i(0) = δ/(β·R_i(0))` — what a
    /// flow's integrator would hold after running alone at that rate. This is
    /// the honest initial condition for staggered real-world flows, and it
    /// exposes the Theorem 6 degeneracy directly: the per-flow PI states
    /// differ, their *differences are invariant* (every `dp_i/dt` sees only
    /// the shared queue error), so the system settles on an unfair member of
    /// the infinite fixed-point family while the queue is still pinned at
    /// `q_ref`.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        assert_eq!(initial_rates_pps.len(), self.n_flows);
        let p = &self.params;
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &r) in initial_rates_pps.iter().enumerate() {
            x0[self.rate_index(i)] = r;
            if let TimelyLaw::PatchedPi(_) = self.law {
                x0[self.p_index(i)] = p.delta_pps() / (p.beta * r.max(1.0));
            }
        }
        let step = (p.d_prop_s() / 2.0).min(1e-6);
        // History must reach back τ′ + τ* at the largest plausible queue.
        let q_max = match self.law {
            TimelyLaw::Original => p.q_high_pkts() * 4.0,
            _ => self.q_star_pkts() * 6.0,
        };
        let horizon = p.tau_feedback(q_max)
            + p.tau_star(p.min_rate_pps())
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

    /// The open-loop transfer `L(jω)` of the linearized system at the
    /// Theorem 5 fixed point (drives Figure 11). [`TimelyLaw::Patched`]
    /// only: the other laws have no such fixed point.
    pub fn loop_transfer(&self) -> impl FnMut(f64) -> Option<Complex64> {
        assert!(
            matches!(self.law, TimelyLaw::Patched { .. }),
            "the linearized loop is Patched TIMELY's (Theorem 5)"
        );
        let n = self.n_flows as f64;
        let r_star = self.params.capacity_pps() / n;
        let q_star = self.q_star_pkts();
        // Delays frozen at the fixed point.
        let tau_fb = self.params.tau_feedback(q_star);
        let tau_star = self.params.tau_star(r_star);
        // The (R, g) block of the flow RHS at g* = 0.
        let rhs = |r: f64, g: f64, qd1: f64, qd2: f64, out: &mut [f64]| {
            out.copy_from_slice(&self.flow_rhs(r, g, 0.0, qd1, qd2)[..2]);
        };
        // A0 = ∂f/∂(R, g); b1 = ∂f/∂qd1 at delay τ′; b2 = ∂f/∂qd2 at τ′+τ*.
        let a0 = linearize::jacobian(
            // x = [R, g]: the two-point state below
            |x, out| rhs(x[0], x[1], q_star, q_star, out),
            &[r_star, 0.0],
            2,
        );
        let b1 =
            linearize::derivative_column(|qd1, out| rhs(r_star, 0.0, qd1, q_star, out), q_star, 2);
        let b2 =
            linearize::derivative_column(|qd2, out| rhs(r_star, 0.0, q_star, qd2, out), q_star, 2);

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
}

/// What a flow's right-hand side reads besides its own state, `α`, `β` and
/// the tie rule, worked out once per right-hand side rather than per flow.
///
/// The law's numbers are copied out, with a value for every law: read
/// straight from `TimelyLaw` in the per-flow kernel, the compiler computed
/// the Patched error term on the payload bytes of whatever law was active,
/// and TIMELY's integration ran about 2× slower (measured).
struct FlowConsts {
    /// `C·T_low` and `C·T_high`.
    q_low_pkts: f64,
    q_high_pkts: f64,
    /// `δ`.
    delta_pps: f64,
    /// `C·D_minRTT`, Eq 22's normalizer.
    grad_norm_pkts: f64,
    /// The law's reference queue (`q′` or the PI target; 1 for TIMELY).
    q_ref_pkts: f64,
    /// The PI gains `K₁`, `K₂` (0 for the other laws).
    k1: f64,
    k2: f64,
}

impl FlowConsts {
    fn of(p: &TimelyParams, law: &TimelyLaw) -> Self {
        let (q_ref_pkts, k1, k2) = match *law {
            TimelyLaw::Original => (1.0, 0.0, 0.0),
            TimelyLaw::Patched { q_ref_pkts } => (q_ref_pkts, 0.0, 0.0),
            TimelyLaw::PatchedPi(ref g) => (g.q_ref_pkts, g.k1, g.k2),
        };
        FlowConsts {
            q_low_pkts: p.q_low_pkts(),
            q_high_pkts: p.q_high_pkts(),
            delta_pps: p.delta_pps(),
            grad_norm_pkts: p.capacity_pps() * p.d_min_rtt_s(),
            q_ref_pkts,
            k1,
            k2,
        }
    }
}

impl FlowClassSystem for TimelyFluid {
    /// One shared queue, then one block per flow.
    fn layout(&self) -> FlowLayout {
        FlowLayout {
            shared: 1,
            per_flow: self.block_width(),
        }
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
        self.layout().dim(self.classes.len())
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

        // Class k's block (R, g[, p]) starts at component 1 + width·k.
        let width = self.block_width();
        let at = |k: usize, j: usize| lane_of(1 + width * k + j, lane, stride);
        // Every flow in flow order, reading its class's rate: the same
        // additions as the N-flow sum. A flow yet to start adds 0.0, which
        // leaves the sum's bits alone (it starts at +0.0, so it is never
        // -0.0) and takes no branch.
        let mut sum_rates = 0.0;
        for (&k, &start) in self.classes.class_of().iter().zip(&self.start_times) {
            sum_rates += if t >= start { x[at(k, 0)] } else { 0.0 };
        }
        // State component 0 is the shared queue.
        dxdt[q_lane] = if x[q_lane] <= 0.0 && sum_rates < c {
            0.0
        } else {
            sum_rates - c
        };

        let consts = FlowConsts::of(p, &self.law);
        for (k, &first) in self.classes.representatives().iter().enumerate() {
            let [d_r, d_g, d_p] = if t < self.start_times[first] {
                [0.0; 3]
            } else {
                let r = x[at(k, 0)];
                let p_i = if width == 3 { x[at(k, 2)] } else { 0.0 };
                let tau = p.tau_star(r);
                let qd2 = hist.eval(t - tau_fb - tau, q_lane).max(0.0);
                self.flow_rhs_with(&consts, tau, [r, x[at(k, 1)], p_i], qd1, qd2)
            };
            dxdt[at(k, 0)] = d_r;
            dxdt[at(k, 1)] = d_g;
            if width == 3 {
                dxdt[at(k, 2)] = d_p;
            }
        }
    }

    fn min_delay(&self) -> f64 {
        // τ' at an empty queue: MTU/C + D_prop.
        self.params.tau_feedback(0.0)
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let p = &self.params;
        // Rates within [floor, line]; the gradient is a normalized
        // dimensionless signal and p_i an internal feedback variable: keep
        // them sane.
        let bounds = [
            (p.min_rate_pps(), p.capacity_pps()),
            (-10.0, 10.0),
            (-100.0, 100.0),
        ];
        let q = lane_of(0, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        let width = self.block_width();
        for k in 0..self.classes.len() {
            for (j, &(lo, hi)) in bounds[..width].iter().enumerate() {
                let c = lane_of(1 + width * k + j, lane, stride);
                x[c] = x[c].clamp(lo, hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timely(n: usize) -> TimelyFluid {
        TimelyFluid::new(TimelyParams::default_10g(), TimelyLaw::Original, n)
    }

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
        let m = timely(2);
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 1e5, 6.25e5] {
            let drdt = m.flow_rhs(r, 0.0, 0.0, q_mid, q_mid)[0];
            assert!(drdt > 0.0, "dR/dt must be δ/τ* > 0 at g = 0, got {drdt}");
        }
    }

    #[test]
    fn theorem4_infinite_fixed_points_under_strict_tie() {
        // With the < variant (Eq 28), g = 0 gives dR/dt = 0 for *any* rate
        // split — infinitely many fixed points.
        let mut m = timely(2);
        m.params.tie_increases = false;
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 2e5, 1e6] {
            let drdt = m.flow_rhs(r, 0.0, 0.0, q_mid, q_mid)[0];
            assert_eq!(drdt, 0.0, "any rate is an equilibrium under Eq 28");
        }
    }

    #[test]
    fn regime_boundaries() {
        let m = timely(1);
        let p = &m.params;
        let drdt = |g: f64, q: f64| m.flow_rhs(1e5, g, 0.0, q, q)[0];
        // Below T_low: increase regardless of gradient.
        assert!(drdt(5.0, p.q_low_pkts() * 0.5) > 0.0);
        // Above T_high: multiplicative decrease regardless of gradient.
        assert!(drdt(-5.0, p.q_high_pkts() * 2.0) < 0.0);
        // Middle with positive gradient: decrease proportional to g.
        let d1 = drdt(0.5, p.q_low_pkts() * 2.0);
        let d2 = drdt(1.0, p.q_low_pkts() * 2.0);
        assert!(d1 < 0.0 && d2 < d1, "decrease scales with gradient");
    }

    #[test]
    fn different_initial_conditions_reach_different_splits() {
        // Figure 9: same protocol, different starting rates ⇒ different
        // long-run rate splits (arbitrary unfairness).
        let c = TimelyParams::default_10g().capacity_pps();

        let mut m1 = timely(2);
        let tr1 = m1.simulate_with_rates(&[c * 0.5, c * 0.5], 0.15);
        let mut m2 = timely(2);
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
        let c = TimelyParams::default_10g().capacity_pps();
        let mut m = timely(2).with_start_times(vec![0.0, 0.01]);
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
        let run = |seed: u64| {
            let mut m = timely(2).with_jitter(Jitter::uniform(50e-6, 10e-6, seed));
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
        let mut m = timely(4);
        let c = m.params.capacity_pps();
        let tr = m.simulate(0.2);
        let sum: f64 = (0..4).map(|i| tr.mean_from(m.rate_index(i), 0.15)).sum();
        assert!((sum - c).abs() / c < 0.1, "aggregate {sum} vs capacity {c}");
    }
}
