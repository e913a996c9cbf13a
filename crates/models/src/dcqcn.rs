//! The DCQCN fluid model (paper §3, Figure 1, Table 1).
//!
//! The model tracks, per flow `i`, the current rate `R_C`, target rate `R_T`
//! and the DCTCP-style reduction factor `α`, plus one shared bottleneck
//! queue `q`. The switch marks packets with probability `p`; marks reach the
//! sender after the control-loop delay `τ*` (which is *constant* because
//! modern switches mark on egress — the paper's central ECN-vs-delay
//! observation, §5.2). Where `p` comes from is the model's [`Marking`]: the
//! RED profile of the delayed queue (Eq 3), or a PI controller at the switch
//! (Eq 32, Figure 18) whose integrator state is `p` itself. The flow
//! dynamics (Eqs 5–7) are the same under both.
//!
//! Implemented here:
//!
//! * [`DcqcnFluid::simulate`] — integrate Eqs 3–7 (per-flow extension of
//!   §3.1) as a DDE; regenerates Figures 2, 4 and 18;
//! * [`DcqcnFluid::fixed_point`] — Theorem 1: the unique fixed point via
//!   monotone root-finding on Eq 11 (with Eqs 9, 10, 12);
//! * [`DcqcnParams::p_star_approx`] — the Taylor closed form of Eq 14;
//! * [`DcqcnFluid::loop_transfer`] / [`DcqcnFluid::margin_report`] — the
//!   linearized open loop of Appendix A evaluated numerically; regenerates
//!   the phase-margin curves of Figure 3 including their non-monotonicity
//!   in the number of flows.

use crate::jitter::Jitter;
use crate::pi::PiGains;
use crate::units;
use control::complex::Complex64;
use control::linearize;
use control::margins::{phase_margin, MarginReport};
use control::roots;
use control::DelayLtiEvaluator;
use faults::SimError;
use fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use fluid::dde::{lane_of, DdeOptions, LaneSystem};
use fluid::history::History;
use fluid::stage::{StageInstant, StagedLane, Stages};
use fluid::trace::Trace;

/// DCQCN parameters (Table 1), stored in human units and converted to packet
/// units on demand.
#[derive(Debug, Clone)]
pub struct DcqcnParams {
    /// Packet size in bytes (the model's "packet" unit).
    pub packet_bytes: f64,
    /// Bottleneck bandwidth `C` in Gbps.
    pub capacity_gbps: f64,
    /// RED lower threshold `K_min` in KB.
    pub kmin_kb: f64,
    /// RED upper threshold `K_max` in KB.
    pub kmax_kb: f64,
    /// RED maximum marking probability `P_max` at `K_max`.
    pub p_max: f64,
    /// DCTCP gain `g` of Eq 1.
    pub g: f64,
    /// Rate-increase step `R_AI` in Mbps (fixed at 40 Mbps in the paper).
    pub r_ai_mbps: f64,
    /// Fast-recovery steps `F` (fixed at 5).
    pub fast_recovery_steps: f64,
    /// Byte counter `B` for rate increase, in MB.
    pub byte_counter_mb: f64,
    /// Timer `T` for rate increase, in µs.
    pub timer_us: f64,
    /// CNP generation timer `τ` in µs.
    pub cnp_timer_us: f64,
    /// α-update interval `τ'` in µs (Eq 2 interval).
    pub alpha_timer_us: f64,
    /// Control-loop (feedback) delay `τ*` in µs.
    pub feedback_delay_us: f64,
    /// Minimum rate floor in Mbps (numerical guard; hardware has one too).
    pub min_rate_mbps: f64,
}

impl DcqcnParams {
    /// Defaults from \[31\] on a 40 Gbps bottleneck (the hardware DCQCN was
    /// designed for); used by the analysis figures.
    pub fn default_40g() -> Self {
        DcqcnParams {
            packet_bytes: 1000.0,
            capacity_gbps: 40.0,
            kmin_kb: 5.0,
            kmax_kb: 200.0,
            p_max: 0.01,
            g: 1.0 / 256.0,
            r_ai_mbps: 40.0,
            fast_recovery_steps: 5.0,
            byte_counter_mb: 10.0,
            timer_us: 55.0,
            cnp_timer_us: 50.0,
            alpha_timer_us: 55.0,
            feedback_delay_us: 4.0,
            min_rate_mbps: 10.0,
        }
    }

    /// Defaults on a 10 Gbps bottleneck (the FCT case-study topology,
    /// Figure 13, uses 10 Gbps links).
    pub fn default_10g() -> Self {
        DcqcnParams {
            capacity_gbps: 10.0,
            ..Self::default_40g()
        }
    }

    /// Bottleneck capacity in packets/second.
    pub fn capacity_pps(&self) -> f64 {
        units::gbps_to_pps(self.capacity_gbps, self.packet_bytes)
    }

    /// `K_min` in packets.
    pub fn kmin_pkts(&self) -> f64 {
        units::kb_to_pkts(self.kmin_kb, self.packet_bytes)
    }

    /// `K_max` in packets.
    pub fn kmax_pkts(&self) -> f64 {
        units::kb_to_pkts(self.kmax_kb, self.packet_bytes)
    }

    /// `R_AI` in packets/second.
    pub fn r_ai_pps(&self) -> f64 {
        units::mbps_to_pps(self.r_ai_mbps, self.packet_bytes)
    }

    /// Byte counter `B` in packets.
    pub fn byte_counter_pkts(&self) -> f64 {
        self.byte_counter_mb * 1e6 / self.packet_bytes
    }

    /// Increase timer `T` in seconds.
    pub fn timer_s(&self) -> f64 {
        units::us_to_s(self.timer_us)
    }

    /// CNP timer `τ` in seconds.
    pub fn cnp_timer_s(&self) -> f64 {
        units::us_to_s(self.cnp_timer_us)
    }

    /// α-update interval `τ'` in seconds.
    pub fn alpha_timer_s(&self) -> f64 {
        units::us_to_s(self.alpha_timer_us)
    }

    /// Feedback delay `τ*` in seconds.
    pub fn feedback_delay_s(&self) -> f64 {
        units::us_to_s(self.feedback_delay_us)
    }

    /// Minimum rate in packets/second.
    pub fn min_rate_pps(&self) -> f64 {
        units::mbps_to_pps(self.min_rate_mbps, self.packet_bytes)
    }

    /// RED marking probability for a queue of `q` packets (Eq 3).
    pub fn red_probability(&self, q: f64) -> f64 {
        let kmin = self.kmin_pkts();
        let kmax = self.kmax_pkts();
        if q <= kmin {
            0.0
        } else if q <= kmax {
            (q - kmin) / (kmax - kmin) * self.p_max
        } else {
            1.0
        }
    }

    /// The RED slope `dp/dq` in the interior region (per packet), which is
    /// the feedback gain of the linearized loop.
    pub fn red_slope(&self) -> f64 {
        self.p_max / (self.kmax_pkts() - self.kmin_pkts())
    }

    /// Closed-form approximation of the fixed-point marking probability
    /// (Eq 14): `p* ≈ ∛( R_AI·N²/(τ'·C²) · (1/B + N/(T·C))² )`.
    pub fn p_star_approx(&self, n_flows: usize) -> f64 {
        let n = n_flows as f64;
        let c = self.capacity_pps();
        let lead = self.r_ai_pps() * n * n / (self.alpha_timer_s() * c * c);
        let inner = 1.0 / self.byte_counter_pkts() + n / (self.timer_s() * c);
        (lead * inner * inner).cbrt()
    }
}

/// `(1 − p)^e` computed stably for small `p`.
fn pow1m(p: f64, e: f64) -> f64 {
    pow1m_ln(p, (-p).ln_1p(), e)
}

/// [`pow1m`] with the log `l = ln(1 − p)` precomputed. Every power helper is
/// a function of `e · l`, so an N-flow RHS evaluation hoists the single
/// `ln_1p` out of the per-flow loop; the product multiplies in the same
/// order as the fused form, so the result is bitwise unchanged.
fn pow1m_ln(p: f64, l: f64, e: f64) -> f64 {
    if p >= 1.0 {
        return 0.0;
    }
    (e * l).exp()
}

/// `1 − (1 − p)^e` computed stably for small `p`.
fn one_minus_pow(p: f64, e: f64) -> f64 {
    one_minus_pow_ln(p, (-p).ln_1p(), e)
}

/// [`one_minus_pow`] with `l = ln(1 − p)` precomputed (see [`pow1m_ln`]).
fn one_minus_pow_ln(p: f64, l: f64, e: f64) -> f64 {
    if p >= 1.0 {
        return 1.0;
    }
    -(e * l).exp_m1()
}

/// `p / ((1 − p)^{−e} − 1)`, the expected per-event probability factor in
/// the rate-increase terms (Eq 12's `b` and `d`). Limit `1/e` as `p → 0`.
fn rate_event_factor(p: f64, e: f64) -> f64 {
    rate_event_factor_ln(p, (-p).ln_1p(), e)
}

/// [`rate_event_factor`] with `l = ln(1 − p)` precomputed (see [`pow1m_ln`]).
fn rate_event_factor_ln(p: f64, l: f64, e: f64) -> f64 {
    let e = e.max(1e-9);
    if p < 1e-12 {
        return 1.0 / e;
    }
    if p >= 1.0 {
        return 0.0;
    }
    let denom = (-e * l).exp_m1();
    p / denom
}

/// The left-hand side of Eq 11 at marking probability `pp`, for flows at
/// the fair rate `rc_star` (packets/second): `a²·α / ((b + d)(c + e))` in
/// the notation of Eq 12. Monotone increasing in `pp`; as `pp → 1` the
/// increase-event factors vanish and it diverges, so a non-finite value is
/// clamped to keep the bracket usable for the solver.
fn eq11_lhs(p: &DcqcnParams, rc_star: f64, pp: f64) -> f64 {
    let f = p.fast_recovery_steps;
    let b_cnt = p.byte_counter_pkts();
    let t_tmr = p.timer_s();
    let a = one_minus_pow(pp, p.cnp_timer_s() * rc_star);
    let alpha = one_minus_pow(pp, p.alpha_timer_s() * rc_star);
    let b = rate_event_factor(pp, b_cnt);
    let c = pow1m(pp, f * b_cnt) * b;
    let d = rate_event_factor(pp, t_tmr * rc_star);
    let e = pow1m(pp, f * t_tmr * rc_star) * d;
    let denom = (b + d) * (c + e);
    let val = if denom > 0.0 && denom.is_finite() {
        a * a * alpha / denom
    } else {
        f64::INFINITY
    };
    if val.is_finite() {
        val
    } else {
        1e300
    }
}

/// Marking terms shared by every flow at one delayed time: the log
/// `l = ln(1 − p_delayed)` plus the byte-counter event factors `b` and `c`
/// of Eq 12, which depend only on `p_delayed` (never on the flow's own
/// rate). Hoisting them out of the per-flow loop removes most of the
/// transcendental calls from an N-flow RHS evaluation without changing a
/// bit of the arithmetic.
struct MarkTerms {
    /// Delayed marking probability `p(t − τ*)`.
    p_delayed: f64,
    /// `ln(1 − p_delayed)`.
    l: f64,
    /// Eq 12's `b`: byte-counter event factor.
    b: f64,
    /// Eq 12's `c`: post-fast-recovery byte-counter increase factor.
    c: f64,
}

/// What one flow's derivative (Eqs 5–7) takes from delayed state: functions
/// of the flow's delayed rate and the shared [`MarkTerms`], never of the
/// current state. One flow's row of a stage slot (see [`fluid::stage`]).
struct FlowTerms {
    /// Delayed rate clamped non-negative, as used by every factor.
    rcd: f64,
    /// Eq 7's CNP-window cut probability `1 − (1 − p)^{τ·R_C(t−τ*)}`.
    a: f64,
    /// Eq 12's `b + d`: byte-counter plus timer event factor.
    bd: f64,
    /// Eq 12's `c + e`: the two post-fast-recovery increase factors.
    ce: f64,
    /// Eq 5's marking estimate `1 − (1 − p)^{τ'·R_C(t−τ*)}`.
    alpha_pow: f64,
}

impl FlowTerms {
    /// Numbers per flow in a stage slot.
    const LEN: usize = 5;

    fn new(p: &DcqcnParams, mk: &MarkTerms, rc_delayed: f64) -> Self {
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let f = p.fast_recovery_steps;
        let t_tmr = p.timer_s();
        let rcd = rc_delayed.max(0.0);
        let a = one_minus_pow_ln(mk.p_delayed, mk.l, tau * rcd);
        let d = rate_event_factor_ln(mk.p_delayed, mk.l, t_tmr * rcd);
        let e = pow1m_ln(mk.p_delayed, mk.l, f * t_tmr * rcd) * d;
        let alpha_pow = one_minus_pow_ln(mk.p_delayed, mk.l, tau_prime * rcd);
        FlowTerms {
            rcd,
            a,
            bd: mk.b + d,
            ce: mk.c + e,
            alpha_pow,
        }
    }

    /// Phase one: push one row per flow class onto `terms`, from the marking
    /// terms and the classes' delayed rates.
    fn stage(
        p: &DcqcnParams,
        mk: &MarkTerms,
        rc_delayed: impl Iterator<Item = f64>,
        terms: &mut Vec<f64>,
    ) {
        for rcd in rc_delayed {
            let ft = FlowTerms::new(p, mk, rcd);
            terms.extend_from_slice(&[ft.rcd, ft.a, ft.bd, ft.ce, ft.alpha_pow]);
        }
    }

    /// The rows [`FlowTerms::stage`] pushed, one per flow class.
    fn staged(terms: &[f64]) -> impl Iterator<Item = FlowTerms> + '_ {
        let (rows, _) = terms.as_chunks::<{ FlowTerms::LEN }>();
        rows.iter().map(|&[rcd, a, bd, ce, alpha_pow]| FlowTerms {
            rcd,
            a,
            bd,
            ce,
            alpha_pow,
        })
    }
}

impl MarkTerms {
    fn new(p: &DcqcnParams, p_delayed: f64) -> Self {
        let l = (-p_delayed).ln_1p();
        let b_cnt = p.byte_counter_pkts();
        let b = rate_event_factor_ln(p_delayed, l, b_cnt);
        let c = pow1m_ln(p_delayed, l, p.fast_recovery_steps * b_cnt) * b;
        MarkTerms { p_delayed, l, b, c }
    }
}

/// The unique fixed point of Theorem 1.
#[derive(Debug, Clone)]
pub struct DcqcnFixedPoint {
    /// Marking probability `p*` solving Eq 11.
    pub p_star: f64,
    /// Queue length `q*` in packets (Eq 9). When `p* > P_max` the RED
    /// profile cannot realize `p*` in its linear region and the physical
    /// queue saturates near `K_max`; see `saturated`.
    pub q_star_pkts: f64,
    /// Queue length in KB for reporting.
    pub q_star_kb: f64,
    /// Per-flow rate `R_C* = C/N` in packets/second (Eq 13).
    pub rate_per_flow_pps: f64,
    /// Per-flow target rate `R_T*` in packets/second.
    pub target_rate_pps: f64,
    /// Fixed-point `α*` (Eq 10).
    pub alpha_star: f64,
    /// True when `p* > P_max`, i.e. the operating point lies beyond the RED
    /// linear region (queue pinned near `K_max`). The linearized analysis
    /// still uses the RED slope, following the paper.
    pub saturated: bool,
}

/// The delay-independent half of the DCQCN linearization: fixed point plus
/// central-difference Jacobian blocks of the per-flow subsystem. See
/// [`DcqcnFluid::lin_parts`] for what the parts depend on (and, crucially,
/// what they don't), and [`DcqcnFluid::margin_report_from`] for the grid
/// sweeps that reuse them.
#[derive(Debug, Clone)]
pub struct DcqcnLinParts {
    /// Fixed-point per-flow state `[R_C*, R_T*, α*]`.
    pub x_star: [f64; 3],
    /// Fixed-point marking probability `p*` (Eq 11).
    pub p_star: f64,
    /// `A₀ = ∂f/∂(R_C, R_T, α)` at the fixed point (3×3).
    pub a0: Vec<Vec<f64>>,
    /// Delayed-rate column `∂f/∂R_C(t−τ*)`.
    pub a1_col: Vec<f64>,
    /// Delayed-marking column `∂f/∂p(t−τ*)`.
    pub b_col: Vec<f64>,
}

/// Where the marking probability `p` comes from — the one thing DCQCN and
/// DCQCN+PI do differently (§5.2).
#[derive(Debug, Clone)]
pub enum Marking {
    /// Eq 3: RED's profile of the delayed queue, `p(t−τ*) = RED(q(t−τ*))`.
    Red,
    /// Eq 32 at the switch: `p` is a state, `dp/dt = K₁·dq/dt + K₂·(q −
    /// q_ref)`, frozen against the `[0, 1]` bounds (anti-windup), and the
    /// flows read it `τ*` late. RED's thresholds are unused.
    Pi(PiGains),
}

/// The DCQCN fluid model for `N` flows over one bottleneck.
///
/// State layout: `x\[0\] = q` (packets), then under [`Marking::Pi`]
/// `x\[1\] = p`; flow `i` occupies the block `(R_C, R_T, α)` after these
/// shared components, at [`DcqcnFluid::rc_index`]`(i)`. Integration steps one
/// block per class of bitwise-identical flows (see [`fluid::classes`]);
/// traces come back in the N-flow layout.
///
/// ```
/// use models::dcqcn::{DcqcnFluid, DcqcnParams};
///
/// let m = DcqcnFluid::new(DcqcnParams::default_40g(), 4);
/// let fp = m.fixed_point();            // Theorem 1
/// assert!((fp.rate_per_flow_pps - m.params.capacity_pps() / 4.0).abs() < 1e-6);
/// assert!(m.margin_report().is_stable()); // 4 µs loop: stable
/// ```
#[derive(Debug, Clone)]
pub struct DcqcnFluid {
    /// Model parameters.
    pub params: DcqcnParams,
    /// Number of flows at the bottleneck.
    pub n_flows: usize,
    /// Where `p` comes from.
    pub marking: Marking,
    /// Optional feedback-delay jitter process (Figure 20).
    pub jitter: Option<Jitter>,
    /// The flow partition the RHS loops over (identity outside `simulate*`).
    classes: FlowClasses,
}

impl DcqcnFluid {
    /// New model with RED marking, the given parameters and flow count.
    pub fn new(params: DcqcnParams, n_flows: usize) -> Self {
        assert!(n_flows >= 1, "need at least one flow");
        DcqcnFluid {
            params,
            n_flows,
            marking: Marking::Red,
            jitter: None,
            classes: FlowClasses::identity(n_flows),
        }
    }

    /// DCQCN with PI marking at the switch pinning the queue at `q_ref_kb`
    /// (Figure 18), with gains that stabilize the 40 Gbps configuration
    /// across 2–64 flows (chosen by sweeping the fluid model).
    pub fn pi(params: DcqcnParams, q_ref_kb: f64, n_flows: usize) -> Self {
        let q_ref_pkts = units::kb_to_pkts(q_ref_kb, params.packet_bytes);
        DcqcnFluid {
            marking: Marking::Pi(PiGains {
                k1: 5e-5,
                k2: 5e-3,
                q_ref_pkts,
            }),
            ..DcqcnFluid::new(params, n_flows)
        }
    }

    /// Attach feedback-delay jitter (uniform over `[0, amplitude]` seconds,
    /// resampled every `interval` seconds; deterministic per seed).
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Number of shared components: the queue, and `p` under
    /// [`Marking::Pi`].
    fn shared(&self) -> usize {
        match self.marking {
            Marking::Red => 1,
            Marking::Pi(_) => 2,
        }
    }

    /// State dimension: the shared components + 3 per flow.
    pub fn state_dim(&self) -> usize {
        self.layout().dim(self.n_flows)
    }

    /// Index of flow `i`'s current rate in the state vector.
    pub fn rc_index(&self, i: usize) -> usize {
        self.shared() + 3 * i
    }

    /// Index of flow `i`'s target rate.
    pub fn rt_index(&self, i: usize) -> usize {
        self.rc_index(i) + 1
    }

    /// Index of flow `i`'s α.
    pub fn alpha_index(&self, i: usize) -> usize {
        self.rc_index(i) + 2
    }

    /// Panics unless the marking is RED: Theorem 1's `q*` (Eq 9) and the
    /// loop's gain are RED's profile.
    fn assert_red(&self) {
        assert!(
            matches!(self.marking, Marking::Red),
            "the fixed point and the linearized loop are RED marking's (Theorem 1, Appendix A)"
        );
    }

    /// Per-flow derivative given the flow's current state, its delayed rate
    /// and the delayed marking probability. This closure *is* the model; the
    /// linearization differentiates it numerically.
    fn flow_rhs(
        p: &DcqcnParams,
        rc: f64,
        rt: f64,
        alpha: f64,
        rc_delayed: f64,
        p_delayed: f64,
        out: &mut [f64],
    ) {
        let ft = FlowTerms::new(p, &MarkTerms::new(p, p_delayed), rc_delayed);
        Self::flow_rhs_staged(p, &ft, rc, rt, alpha, out)
    }

    /// Phase two of one flow: its derivative at the current `(rc, rt, alpha)`
    /// given what it takes from delayed state. The lane kernel under either
    /// [`Marking`] and the linearization all go through this arithmetic.
    fn flow_rhs_staged(
        p: &DcqcnParams,
        ft: &FlowTerms,
        rc: f64,
        rt: f64,
        alpha: f64,
        out: &mut [f64],
    ) {
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let r_ai = p.r_ai_pps();
        // Eq 7: rate decrease (CNP-driven) + averaging toward target on
        // byte-counter and timer events.
        out[0] = -rc * alpha / (2.0 * tau) * ft.a + (rt - rc) / 2.0 * ft.rcd * ft.bd;
        // Eq 6: target collapses to R_C on decrease; additive increase after
        // fast recovery on both byte-counter and timer events.
        out[1] = -(rt - rc) / tau * ft.a + r_ai * ft.rcd * ft.ce;
        // Eq 5: α tracks the marking probability seen over τ'.
        out[2] = p.g / tau_prime * (ft.alpha_pow - alpha);
    }

    /// Theorem 1: solve Eq 11 for the unique `p*`, then recover `q*`, `α*`
    /// and `R_T*` (Eqs 9, 10 and the `dR_T/dt = 0` balance). RED marking
    /// only, like everything built on it here.
    pub fn fixed_point(&self) -> DcqcnFixedPoint {
        self.assert_red();
        let p = &self.params;
        let rc_star = p.capacity_pps() / self.n_flows as f64;
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let f = p.fast_recovery_steps;
        let b_cnt = p.byte_counter_pkts();
        let t_tmr = p.timer_s();
        let r_ai = p.r_ai_pps();

        let rhs = tau * tau * r_ai * rc_star;
        let excess = |pp: f64| eq11_lhs(p, rc_star, pp) - rhs;
        // The LHS is monotone increasing in p (paper, proof of Theorem 1):
        // bracket and bisect via Brent. Many flows on a slow link push p*
        // past 0.999; the last stretch below 1 is searched only when the
        // first bracket fails, so every root inside it keeps its bits.
        #[expect(
            clippy::expect_used,
            reason = "Theorem 1 guarantees the bracket; a miss is a model bug"
        )]
        let p_star = roots::brent(excess, 1e-10, 0.999, 1e-14)
            .or_else(|_| roots::brent(excess, 0.999, 1.0_f64.next_down(), 1e-14))
            .expect("Eq 11 must bracket a root: LHS(0) < RHS < LHS(1)");

        let q_star_pkts = p_star / p.p_max * (p.kmax_pkts() - p.kmin_pkts()) + p.kmin_pkts(); // Eq 9
        let alpha_star = one_minus_pow(p_star, tau_prime * rc_star); // Eq 10
        let a = one_minus_pow(p_star, tau * rc_star);
        let b = rate_event_factor(p_star, b_cnt);
        let c = pow1m(p_star, f * b_cnt) * b;
        let d = rate_event_factor(p_star, t_tmr * rc_star);
        let e = pow1m(p_star, f * t_tmr * rc_star) * d;
        let target_rate_pps = rc_star + tau * r_ai * rc_star * (c + e) / a.max(1e-300);

        DcqcnFixedPoint {
            p_star,
            q_star_pkts,
            q_star_kb: units::pkts_to_kb(q_star_pkts, p.packet_bytes),
            rate_per_flow_pps: rc_star,
            target_rate_pps,
            alpha_star,
            saturated: p_star > p.p_max,
        }
    }

    /// The fixed-point and Jacobian blocks that feed [`Self::loop_transfer`].
    ///
    /// These depend on `(N, C, R_AI, τ, τ', F, B, T, g)` but **not** on the
    /// RED profile or the feedback delay (Eq 11 never references them), so
    /// grid sweeps that vary only delay / `K_max` / `P_max` can share one
    /// `DcqcnLinParts` across many margin evaluations through
    /// [`Self::margin_report_from`]; configurations with bitwise-equal
    /// [`Self::lin_parts_key`]s have bitwise-equal parts.
    pub fn lin_parts(&self) -> DcqcnLinParts {
        let fp = self.fixed_point();
        let p = self.params.clone();

        let x_star = [fp.rate_per_flow_pps, fp.target_rate_pps, fp.alpha_star];
        let rcd_star = fp.rate_per_flow_pps;
        let p_star = fp.p_star;

        // A0 = ∂f/∂(rc, rt, α) at the fixed point.
        let p_a0 = p.clone();
        let a0 = linearize::jacobian(
            move |x: &[f64], out: &mut [f64]| {
                // x = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_a0, x[0], x[1], x[2], rcd_star, p_star, out)
            },
            &x_star,
            3,
        );
        // A1 column (delay τ*): only the delayed R_C column is nonzero.
        let p_a1 = p.clone();
        let x0 = x_star;
        let a1_col = linearize::derivative_column(
            move |rcd: f64, out: &mut [f64]| {
                // x0 = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_a1, x0[0], x0[1], x0[2], rcd, p_star, out)
            },
            rcd_star,
            3,
        );
        // b (delay τ*): ∂f/∂p_delayed.
        let p_b = p.clone();
        let b_col = linearize::derivative_column(
            move |pd: f64, out: &mut [f64]| {
                // x0 = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_b, x0[0], x0[1], x0[2], rcd_star, pd, out)
            },
            p_star,
            3,
        );

        DcqcnLinParts {
            x_star,
            p_star,
            a0,
            a1_col,
            b_col,
        }
    }

    /// Every parameter [`Self::lin_parts`] reads. Two configs with
    /// bitwise-equal keys have bitwise-equal parts.
    pub fn lin_parts_key(&self) -> Vec<f64> {
        let p = &self.params;
        vec![
            self.n_flows as f64,
            p.capacity_pps(),
            p.r_ai_pps(),
            p.cnp_timer_s(),
            p.alpha_timer_s(),
            p.fast_recovery_steps,
            p.byte_counter_pkts(),
            p.timer_s(),
            p.g,
        ]
    }

    /// Assemble the open-loop transfer closure from precomputed parts (see
    /// [`Self::lin_parts`]); delay and RED slope come from `self`.
    fn loop_transfer_from(&self, parts: &DcqcnLinParts) -> impl FnMut(f64) -> Option<Complex64> {
        self.assert_red();
        let n = self.n_flows as f64;
        let tau_star = self.params.feedback_delay_s();
        let k_red = self.params.red_slope();

        let mut a1 = vec![vec![0.0; 3]; 3];
        for (row, &v) in a1.iter_mut().zip(&parts.a1_col) {
            row[0] = v; // column 0 = the delayed R_C state
        }
        let mut ev = DelayLtiEvaluator::new(control::DelayLti {
            a0: parts.a0.clone(),
            delayed_a: vec![(tau_star, a1)],
            b: vec![(tau_star, parts.b_col.clone())],
            c: vec![1.0, 0.0, 0.0],
            d: 0.0,
        });

        move |omega: f64| {
            let h = ev.freq_response(omega)?; // δR_C / δp
            let integ = Complex64::from_re(n) / Complex64::j(omega); // δq/δR_C
                                                                     // Negative-feedback convention: L = −(RED slope)·(N/s)·H.
            Some(-(h * integ).scale(k_red))
        }
    }

    /// Open-loop transfer function `L(jω)` of the linearized system around
    /// the fixed point (Appendix A, computed numerically).
    ///
    /// The loop is broken at the marking probability: the per-flow (R_C,
    /// R_T, α) subsystem responds to `δp(t − τ*)` (and to its own delayed
    /// rate `δR_C(t − τ*)`); N flows feed the queue integrator `N/s`; RED
    /// closes the loop with slope `P_max/(K_max − K_min)`.
    pub fn loop_transfer(&self) -> impl FnMut(f64) -> Option<Complex64> {
        self.loop_transfer_from(&self.lin_parts())
    }

    /// Phase-margin report for this configuration (one point of Figure 3).
    pub fn margin_report(&self) -> MarginReport {
        self.margin_report_from(&self.lin_parts())
    }

    /// [`Self::margin_report`] from precomputed `parts`, which must be this
    /// configuration's [`Self::lin_parts`] (or those of a configuration with
    /// the same [`Self::lin_parts_key`]). Grid sweeps (fig3) whose points
    /// differ only in delay or RED profile linearize once and share them.
    pub fn margin_report_from(&self, parts: &DcqcnLinParts) -> MarginReport {
        phase_margin(self.loop_transfer_from(parts), 1e1, 1e7, 3000)
    }

    /// Integrate the fluid model (Eqs 3–7) for `duration_s` seconds.
    ///
    /// Flows start at line rate with `α = 1` and an empty queue, exactly as
    /// the protocol specifies ("DCQCN does not have slow start. Senders
    /// start at line rate."); a PI marking probability starts at 0. Returns
    /// the full state trace.
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let line_rate = vec![self.params.capacity_pps(); self.n_flows];
        self.simulate_with_step(&line_rate, duration_s, self.step_s())
    }

    /// Simulate with explicit initial rates (packets/second): each flow
    /// starts with `R_C = R_T` at its rate and `α = 1`, the queue (and PI
    /// `p`) zero, and integrates with [`Self::simulate`]'s step, record
    /// spacing and history horizon.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        self.simulate_with_step(initial_rates_pps, duration_s, self.step_s())
    }

    /// [`Self::simulate_with_rates`] with an explicit RK4 step (convergence
    /// checks). The record spacing and history horizon follow the step as
    /// they do the production one.
    pub fn simulate_with_step(
        &mut self,
        initial_rates_pps: &[f64],
        duration_s: f64,
        step_s: f64,
    ) -> Trace {
        let x0 = self.start(initial_rates_pps);
        let opts = DdeOptions {
            step: step_s,
            record_every: record_every(duration_s, step_s),
            history_horizon_s: self.history_horizon_s(step_s),
        };
        try_integrate_classes(std::slice::from_mut(self), &[x0], 0.0, duration_s, &opts)
            .and_then(|mut lanes| lanes.remove(0)) // one lane in, one out
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The RK4 step of [`Self::simulate`]: a quarter of the feedback delay,
    /// at most 1 µs.
    fn step_s(&self) -> f64 {
        (self.params.feedback_delay_s() / 4.0).min(1e-6)
    }

    /// The state with flow `i` at `R_C = R_T = rates_pps[i]` and `α = 1`,
    /// queue (and PI `p`) zero; at line rate, the protocol's start.
    fn start(&self, rates_pps: &[f64]) -> Vec<f64> {
        assert_eq!(rates_pps.len(), self.n_flows, "one initial rate per flow");
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &rate) in rates_pps.iter().enumerate() {
            x0[self.rc_index(i)] = rate;
            x0[self.rt_index(i)] = rate;
            x0[self.alpha_index(i)] = 1.0;
        }
        x0
    }

    /// How far back the history must reach: the (jittered) feedback delay
    /// with slack.
    fn history_horizon_s(&self, step_s: f64) -> f64 {
        (self.params.feedback_delay_s() + self.jitter.as_ref().map_or(0.0, Jitter::max_extra)) * 4.0
            + 10.0 * step_s
    }

    /// Integrate a batch of DCQCN configurations in lockstep over one
    /// struct-of-arrays state block (see [`fluid::dde`]).
    ///
    /// Every lane starts at line rate with `α = 1` and an empty queue,
    /// exactly like [`DcqcnFluid::simulate`], and each lane's trace (or
    /// [`SimError::Divergence`]) is bit-identical to the
    /// `simulate` of the same config — a diverging lane never aborts its
    /// batchmates. Lanes must share the flow count and the [`Marking`]
    /// variant (both set the state dimension), and derive the same
    /// lockstep step size from their feedback delays (callers group sweep
    /// points accordingly); the history horizon is the maximum over lanes,
    /// which affects only memory, never values. The lanes step one joint
    /// flow partition: two flows share a class only if they agree in every
    /// lane.
    pub fn simulate_batch(
        mut models: Vec<DcqcnFluid>,
        duration_s: f64,
    ) -> Vec<Result<Trace, SimError>> {
        assert!(!models.is_empty(), "batch needs at least one lane");
        // `models[0]` is safe: non-emptiness asserted above.
        let step_s = models[0].step_s();
        for m in &models {
            assert!(
                m.step_s().to_bits() == step_s.to_bits(),
                "lanes must share the lockstep step size"
            );
        }
        let opts = DdeOptions {
            step: step_s,
            record_every: record_every(duration_s, step_s),
            history_horizon_s: models
                .iter()
                .map(|m| m.history_horizon_s(step_s))
                .fold(0.0, f64::max),
        };
        let x0s: Vec<Vec<f64>> = models
            .iter()
            .map(|m| m.start(&vec![m.params.capacity_pps(); m.n_flows]))
            .collect();
        try_integrate_classes(&mut models, &x0s, 0.0, duration_s, &opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience: extract per-flow rates in Gbps and queue in KB from a
    /// trace produced by [`DcqcnFluid::simulate`].
    pub fn rates_gbps(&self, trace: &Trace, flow: usize) -> Vec<(f64, f64)> {
        trace
            .series(self.rc_index(flow))
            .into_iter()
            .map(|(t, pps)| (t, units::pps_to_gbps(pps, self.params.packet_bytes)))
            .collect()
    }

    /// Queue-length series in KB.
    pub fn queue_kb(&self, trace: &Trace) -> Vec<(f64, f64)> {
        trace
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, units::pkts_to_kb(pkts, self.params.packet_bytes)))
            .collect()
    }
}

/// Record roughly 4000 points however long the run.
fn record_every(duration_s: f64, step_s: f64) -> usize {
    ((duration_s / step_s) / 4000.0).ceil().max(1.0) as usize
}

impl FlowClassSystem for DcqcnFluid {
    /// The shared components, then `(R_C, R_T, α)` per flow.
    fn layout(&self) -> FlowLayout {
        FlowLayout {
            shared: self.shared(),
            per_flow: 3,
        }
    }

    fn classes_mut(&mut self) -> &mut FlowClasses {
        &mut self.classes
    }
}

impl LaneSystem for DcqcnFluid {
    fn lane_dim(&self) -> usize {
        self.layout().dim(self.classes.len())
    }

    /// The DCQCN RHS as a batch-lane kernel: this lane's component `c` lives
    /// at `lane_of(c, lane, stride)` of the strided block. This is both
    /// phases of the split kernel back to back, for callers outside an
    /// integrator's stage slots; the integrator runs the same two phases
    /// through [`fluid::Stages`], a one-model run at `lane = 0, stride = 1`.
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
        // Jitter only adds delay, so the base feedback delay is the minimum.
        self.params.feedback_delay_s()
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let line = self.params.capacity_pps();
        let floor = self.params.min_rate_pps();
        let q = lane_of(0, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        let shared = self.shared();
        if let Marking::Pi(_) = self.marking {
            let pp = lane_of(1, lane, stride);
            x[pp] = x[pp].clamp(0.0, 1.0); // component 1 is p
        }
        for i in 0..self.classes.len() {
            let rc = lane_of(shared + 3 * i, lane, stride);
            let rt = lane_of(shared + 3 * i + 1, lane, stride);
            let al = lane_of(shared + 3 * i + 2, lane, stride);
            x[rc] = x[rc].clamp(floor, line);
            x[rt] = x[rt].clamp(floor, line);
            x[al] = x[al].clamp(0.0, 1.0);
            desim::invariants::unit_interval("dcqcn fluid alpha", x[al]);
            desim::invariants::finite_rate("dcqcn fluid rc_pps", x[rc]);
        }
    }
}

impl StagedLane for DcqcnFluid {
    /// Marks are made on egress, so the loop delay — jittered or not — is a
    /// function of `t` alone (§5.2), and the queue plus every flow's rate are
    /// read at that one delayed instant.
    fn delayed_instant(&self, t: f64) -> f64 {
        let extra = self.jitter.as_ref().map_or(0.0, |j| j.extra(t));
        let delay = self.params.feedback_delay_s() + extra;
        t - delay
    }

    /// Every transcendental of Eqs 5–7 is a function of the state at
    /// `t − τ*` alone: the delayed `p` — RED's of the delayed queue, or the
    /// delayed PI state — then one `FlowTerms` row per class from its
    /// delayed rate.
    fn stage(&self, delayed: &[f64], terms: &mut Vec<f64>) {
        let p = &self.params;
        let (shared, p_delayed) = match self.marking {
            // Component 0 is the queue.
            Marking::Red => (1, p.red_probability(delayed[0].max(0.0))),
            // Component 1 is p.
            Marking::Pi(_) => (2, delayed[1].clamp(0.0, 1.0)),
        };
        let mk = MarkTerms::new(p, p_delayed);
        let rc_delayed = (0..self.classes.len()).map(|i| delayed[shared + 3 * i]);
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
        let shared = self.shared();
        // Eq 4: queue integrates excess arrival rate (projection keeps q ≥ 0).
        // Every flow in flow order, reading its class's rate: the same
        // additions as the N-flow sum.
        let sum_rates: f64 = self
            .classes
            .class_of()
            .iter()
            .map(|&k| x[lane_of(shared + 3 * k, lane, stride)])
            .sum();
        // State component 0 is the shared queue.
        let q = x[lane_of(0, lane, stride)];
        let dq = if q <= 0.0 && sum_rates < cap {
            0.0
        } else {
            sum_rates - cap
        };
        dxdt[lane_of(0, lane, stride)] = dq;
        if let Marking::Pi(ref k) = self.marking {
            // Eq 32 at the switch, frozen against the [0, 1] bounds.
            // Component 1 is p.
            let pp = lane_of(1, lane, stride);
            let mut dp = k.k1 * dq + k.k2 * (q - k.q_ref_pkts);
            if (x[pp] >= 1.0 && dp > 0.0) || (x[pp] <= 0.0 && dp < 0.0) {
                dp = 0.0;
            }
            dxdt[pp] = dp;
        }

        let mut out = [0.0; 3];
        for (i, ft) in FlowTerms::staged(terms).enumerate() {
            let rc = lane_of(shared + 3 * i, lane, stride);
            let rt = lane_of(shared + 3 * i + 1, lane, stride);
            let al = lane_of(shared + 3 * i + 2, lane, stride);
            DcqcnFluid::flow_rhs_staged(p, &ft, x[rc], x[rt], x[al], &mut out);
            [dxdt[rc], dxdt[rt], dxdt[al]] = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid::dde::try_integrate;

    #[test]
    fn red_profile_matches_eq3() {
        let p = DcqcnParams::default_40g();
        assert_eq!(p.red_probability(0.0), 0.0);
        assert_eq!(p.red_probability(p.kmin_pkts()), 0.0);
        let mid = (p.kmin_pkts() + p.kmax_pkts()) / 2.0;
        assert!((p.red_probability(mid) - p.p_max / 2.0).abs() < 1e-12);
        assert!((p.red_probability(p.kmax_pkts()) - p.p_max).abs() < 1e-12);
        assert_eq!(p.red_probability(p.kmax_pkts() + 1.0), 1.0);
    }

    #[test]
    fn stable_power_helpers() {
        // Against direct evaluation at moderate p.
        let p = 0.01;
        let e = 100.0;
        assert!((pow1m(p, e) - 0.99f64.powf(100.0)).abs() < 1e-12);
        assert!((one_minus_pow(p, e) - (1.0 - 0.99f64.powf(100.0))).abs() < 1e-12);
        // Limits at p → 0.
        assert!((rate_event_factor(0.0, 50.0) - 0.02).abs() < 1e-12);
        assert!((one_minus_pow(0.0, 1e6)).abs() < 1e-12);
        // rate_event_factor continuity near 0.
        let f1 = rate_event_factor(1e-13, 50.0);
        let f2 = rate_event_factor(1e-11, 50.0);
        assert!((f1 - f2).abs() < 1e-6);
    }

    #[test]
    fn eq11_lhs_is_monotone_in_p() {
        // The uniqueness proof hinges on monotonicity; verify numerically.
        let m = DcqcnFluid::new(DcqcnParams::default_40g(), 4);
        let p = &m.params;
        let rc = p.capacity_pps() / 4.0;
        let tau = p.cnp_timer_s();
        let lhs = |pp: f64| {
            let a = one_minus_pow(pp, tau * rc);
            let alpha = one_minus_pow(pp, p.alpha_timer_s() * rc);
            let b = rate_event_factor(pp, p.byte_counter_pkts());
            let c = pow1m(pp, 5.0 * p.byte_counter_pkts()) * b;
            let d = rate_event_factor(pp, p.timer_s() * rc);
            let e = pow1m(pp, 5.0 * p.timer_s() * rc) * d;
            a * a * alpha / ((b + d) * (c + e))
        };
        let mut prev = lhs(1e-8);
        for k in 1..200 {
            let pp = 1e-8 + k as f64 * (0.9 / 200.0);
            let cur = lhs(pp);
            assert!(cur >= prev, "LHS not monotone at p = {pp}");
            prev = cur;
        }
    }

    #[test]
    fn fixed_point_exists_for_every_capacity_and_flow_count() {
        // Theorem 1 promises a root for any N; slow links with thousands of
        // flows put it past 0.999, where the first bracket ends (10 Gbps at
        // N = 2049 and 4096, 25 Gbps at N = 4096 used to panic).
        let mut rng = desim::SimRng::new(0xE911);
        for capacity_gbps in [10.0, 25.0, 40.0, 100.0] {
            let params = DcqcnParams {
                capacity_gbps,
                ..DcqcnParams::default_40g()
            };
            let mut flow_counts: Vec<usize> = (0..48)
                .map(|_| 1 + (rng.next_f64() * 4096.0) as usize)
                .chain([1, 512, 2049, 4096])
                .collect();
            flow_counts.sort_unstable();
            flow_counts.dedup();
            let mut prev_p_star = 0.0;
            for n in flow_counts {
                let fp = DcqcnFluid::new(params.clone(), n).fixed_point();
                assert!(
                    fp.p_star > 0.0 && fp.p_star < 1.0,
                    "{capacity_gbps} Gbps, N = {n}: p* = {}",
                    fp.p_star
                );
                let rhs = params.cnp_timer_s().powi(2) * params.r_ai_pps() * fp.rate_per_flow_pps;
                let lhs = eq11_lhs(&params, fp.rate_per_flow_pps, fp.p_star);
                assert!(
                    ((lhs - rhs) / rhs).abs() < 1e-6,
                    "{capacity_gbps} Gbps, N = {n}: LHS(p*) = {lhs:e} vs RHS {rhs:e}"
                );
                assert!(
                    fp.p_star >= prev_p_star,
                    "{capacity_gbps} Gbps: p* fell to {} at N = {n}",
                    fp.p_star
                );
                prev_p_star = fp.p_star;
            }
        }
    }

    #[test]
    fn fixed_point_rates_are_fair_share() {
        for n in [1usize, 2, 10, 64] {
            let m = DcqcnFluid::new(DcqcnParams::default_40g(), n);
            let fp = m.fixed_point();
            let expect = m.params.capacity_pps() / n as f64;
            assert!((fp.rate_per_flow_pps - expect).abs() < 1e-6);
            assert!(fp.p_star > 0.0 && fp.p_star < 1.0);
            assert!(fp.alpha_star > 0.0 && fp.alpha_star < 1.0);
            assert!(fp.target_rate_pps >= fp.rate_per_flow_pps);
        }
    }

    #[test]
    fn eq14_approximates_exact_p_star() {
        // The paper: "Numerical analysis shows that p* is typically very
        // close to 0", and Eq 14 is the O(p^4) Taylor approximation.
        for n in [2usize, 5, 10] {
            let m = DcqcnFluid::new(DcqcnParams::default_40g(), n);
            let exact = m.fixed_point().p_star;
            let approx = m.params.p_star_approx(n);
            let rel = (exact - approx).abs() / exact;
            // The O(p⁴) truncation is coarse at larger N where p* grows;
            // the paper only claims the approximation for p* "very close
            // to 0".
            assert!(
                rel < 0.4,
                "N={n}: exact {exact:.6}, approx {approx:.6}, rel {rel:.3}"
            );
        }
    }

    #[test]
    fn fixed_point_queue_grows_with_flows() {
        // Eq 14: p* (hence q*) increases with N — the motivation for the PI
        // controller in §5.
        let q: Vec<f64> = [2usize, 8, 32]
            .iter()
            .map(|&n| {
                DcqcnFluid::new(DcqcnParams::default_40g(), n)
                    .fixed_point()
                    .q_star_pkts
            })
            .collect();
        assert!(q[0] < q[1] && q[1] < q[2], "q* = {q:?}");
    }

    #[test]
    fn rhs_is_zero_at_fixed_point() {
        let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 2);
        let fp = m.fixed_point();
        let mut x = vec![fp.q_star_pkts];
        for _ in 0..2 {
            x.extend_from_slice(&[fp.rate_per_flow_pps, fp.target_rate_pps, fp.alpha_star]);
        }
        let hist = History::new(0.0, &x);
        let mut dx = vec![0.0; x.len()];
        // Evaluate at a time far enough that delayed lookups hit pre-history
        // (which equals the fixed point).
        m.lane_rhs(1.0, &x, 0, 1, &hist, &mut dx);
        // Queue derivative: ΣR = C exactly.
        assert!(dx[0].abs() < 1e-3, "dq/dt = {}", dx[0]);
        // Rate derivatives are zero relative to the rate scale.
        let scale = fp.rate_per_flow_pps;
        for i in 0..2 {
            assert!(
                dx[1 + 3 * i].abs() / scale < 1e-6,
                "dRc/dt = {}",
                dx[1 + 3 * i]
            );
            assert!(
                dx[2 + 3 * i].abs() / scale < 1e-6,
                "dRt/dt = {}",
                dx[2 + 3 * i]
            );
            assert!(dx[3 + 3 * i].abs() < 1e-9, "dα/dt = {}", dx[3 + 3 * i]);
        }
    }

    #[test]
    fn two_flows_converge_to_fair_share_at_low_delay() {
        // Figure 4, left column: τ* = 4 µs is stable.
        let params = DcqcnParams::default_40g();
        let mut m = DcqcnFluid::new(params.clone(), 2);
        let tr = m.simulate(0.05);
        let fp = m.fixed_point();
        let last = tr.last_state().unwrap();
        for i in 0..2 {
            let rel = (last[m.rc_index(i)] - fp.rate_per_flow_pps).abs() / fp.rate_per_flow_pps;
            assert!(rel < 0.05, "flow {i} rate off by {rel}");
        }
        // Queue settles near q*.
        let q_tail = tr.mean_from(0, 0.04);
        assert!(
            (q_tail - fp.q_star_pkts).abs() / fp.q_star_pkts < 0.25,
            "queue mean {q_tail} vs q* {}",
            fp.q_star_pkts
        );
    }

    #[test]
    fn unequal_initial_rates_converge_fair() {
        // Theorem 2's conclusion, checked in the fluid model: different
        // starting rates end at the same rate.
        let params = DcqcnParams::default_40g();
        let mut m = DcqcnFluid::new(params, 2);
        let line = m.params.capacity_pps();
        let mut x0 = vec![0.0; m.state_dim()];
        x0[m.rc_index(0)] = line;
        x0[m.rt_index(0)] = line;
        x0[m.alpha_index(0)] = 1.0;
        x0[m.rc_index(1)] = line * 0.1;
        x0[m.rt_index(1)] = line * 0.1;
        x0[m.alpha_index(1)] = 1.0;
        let opts = DdeOptions {
            step: 1e-6,
            record_every: 50,
            history_horizon_s: 0.01,
        };
        let tr = try_integrate(std::slice::from_mut(&mut m), &x0, 0.0, 0.1, &opts)
            .unwrap()
            .remove(0)
            .unwrap();
        let last = tr.last_state().unwrap();
        let r0 = last[m.rc_index(0)];
        let r1 = last[m.rc_index(1)];
        assert!(
            (r0 - r1).abs() / (r0 + r1) < 0.05,
            "rates did not converge: {r0} vs {r1}"
        );
    }

    #[test]
    fn stable_at_low_delay_unstable_at_10_flows_high_delay() {
        // The paper's headline non-monotonicity (Figures 3a, 4): with
        // τ* = 85 µs, N = 10 oscillates while N = 2 settles.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;

        let mut m10 = DcqcnFluid::new(p.clone(), 10);
        let tr10 = m10.simulate(0.12);
        let fp10 = m10.fixed_point();
        let osc10 = tr10.peak_to_peak_from(0, 0.08) / fp10.q_star_pkts.max(1.0);

        let mut m2 = DcqcnFluid::new(p.clone(), 2);
        let tr2 = m2.simulate(0.12);
        let fp2 = m2.fixed_point();
        let osc2 = tr2.peak_to_peak_from(0, 0.08) / fp2.q_star_pkts.max(1.0);

        assert!(
            osc10 > 2.0 * osc2,
            "expected N=10 much less stable: osc10 = {osc10:.3}, osc2 = {osc2:.3}"
        );
    }

    #[test]
    fn margin_report_stable_at_small_delay() {
        let m = DcqcnFluid::new(DcqcnParams::default_40g(), 2);
        let rep = m.margin_report();
        assert!(
            rep.is_stable(),
            "2 flows at 4 µs must be stable, pm = {:?}",
            rep.phase_margin_deg
        );
    }

    #[test]
    fn margin_nonmonotonic_in_flow_count_at_high_delay() {
        // Figure 3(a): at τ* = 85–100 µs the phase margin dips around
        // N ≈ 10 and recovers for large N.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm = |n: usize| {
            DcqcnFluid::new(p.clone(), n)
                .margin_report()
                .phase_margin_deg
                .unwrap_or(180.0)
        };
        let pm2 = pm(2);
        let pm10 = pm(10);
        let pm64 = pm(64);
        assert!(
            pm10 < pm2 && pm10 < pm64,
            "non-monotonicity missing: pm2={pm2:.1}, pm10={pm10:.1}, pm64={pm64:.1}"
        );
        assert!(
            pm10 < 0.0,
            "N=10 at 85us should be unstable, pm10={pm10:.1}"
        );
    }

    #[test]
    fn smaller_rai_improves_stability() {
        // Figure 3(b): smaller R_AI stabilizes.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm_default = DcqcnFluid::new(p.clone(), 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        p.r_ai_mbps = 10.0;
        let pm_small = DcqcnFluid::new(p, 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        assert!(
            pm_small > pm_default,
            "R_AI=10: {pm_small:.1} vs R_AI=40: {pm_default:.1}"
        );
    }

    #[test]
    fn larger_kmax_improves_stability() {
        // Figure 3(c): larger K_max (gentler RED slope) stabilizes.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm_default = DcqcnFluid::new(p.clone(), 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        p.kmax_kb = 1000.0;
        let pm_big = DcqcnFluid::new(p, 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        assert!(
            pm_big > pm_default,
            "Kmax=1MB: {pm_big:.1} vs 200KB: {pm_default:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn a_batch_cannot_mix_markings() {
        let p = DcqcnParams::default_40g();
        let lanes = vec![DcqcnFluid::new(p.clone(), 2), DcqcnFluid::pi(p, 100.0, 2)];
        DcqcnFluid::simulate_batch(lanes, 1e-4);
    }

    #[test]
    #[should_panic(expected = "RED marking")]
    fn the_fixed_point_is_red_markings() {
        DcqcnFluid::pi(DcqcnParams::default_40g(), 100.0, 2).fixed_point();
    }
}
