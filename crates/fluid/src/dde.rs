//! Fixed-step RK4 integration of delay differential equations, B lanes in
//! lockstep.
//!
//! The method of steps: the right-hand side receives the accumulated
//! [`History`] and performs its own delayed lookups (`hist.eval(t - d, c)`),
//! which naturally supports multiple, heterogeneous and *state-dependent*
//! delays (TIMELY's feedback delay `τ′ = q/C + MTU/C + D_prop` depends on the
//! queue itself). Intra-step RK stages query the history too; lookups past
//! the last knot return the latest value, so accuracy demands steps no larger
//! than the smallest delay — the integrator checks that ratio.
//!
//! A model is a [`LaneSystem`]: a lane kernel that reads and writes only the
//! components of one lane of a strided state block. [`try_integrate`] is the
//! one RK4 DDE step loop; it integrates a slice of lanes — a parameter
//! sweep's B configs, or one model as a slice of one
//! (`std::slice::from_mut`):
//!
//! * **Memory layout** — the state is `[lane_dim × B]`, component `c` of
//!   lane `l` at flat index `c·B + l` (see [`lane_of`]). Lanes are adjacent
//!   in memory, so the RK4 stage kernels (`stage_state` / `rk4_combine`) are
//!   tight per-component loops over the lanes that rustc auto-vectorizes.
//!   The [`History`] stores the same flat layout, so one
//!   [`History::eval_strided`] call fetches a lane's full delayed state with
//!   a single bracketing-knot locate, itself O(1) on the uniform step grid.
//! * **Width invariance** — every per-lane operation touches only that
//!   lane's strided components, so a lane's result does not depend on its
//!   batchmates or on B: a lane of a B = 16 run is bitwise its one-lane run.
//! * **Lane-divergence semantics** — the watchdog norm is evaluated per
//!   lane. A diverging lane is recorded as [`SimError::Divergence`] in its
//!   slot of the returned `Vec<Result<Trace, SimError>>`, its state is
//!   frozen at the last good step, and its batchmates integrate on
//!   unperturbed. Only when *every* lane has died does the integration stop
//!   early.

use crate::history::History;
use crate::stage::{
    StageInstant::{self, End, Mid, Start},
    Stages,
};
use crate::trace::Trace;
use faults::SimError;

/// Divergence-watchdog threshold on the state max-norm. The physical states
/// here are queues in packets/bytes (≤ 1e7) and rates in bits/second (≤ 1e11);
/// anything past this bound is numerical blow-up, not physics.
pub const DIVERGENCE_NORM: f64 = 1e12;

/// Flat index of `component` of `lane` in a struct-of-arrays block whose
/// lane stride is `stride` (= the number of lanes B). The unit of the value
/// read through this index is the unit of `component` — strided reads keep
/// their dimensional meaning.
#[inline]
pub fn lane_of(component: usize, lane: usize, stride: usize) -> usize {
    component * stride + lane
}

/// Pack per-lane state rows (each `lane_dim` long) into one
/// `[lane_dim × B]` struct-of-arrays block: `out[lane_of(c, l, B)] =
/// rows[l][c]`.
pub fn pack_lanes(rows: &[Vec<f64>]) -> Vec<f64> {
    let lanes = rows.len();
    let n = rows.first().map_or(0, Vec::len);
    let mut out = vec![0.0; n * lanes];
    for (l, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), n, "all lanes must share the state dimension");
        for (c, &v) in row.iter().enumerate() {
            out[lane_of(c, l, lanes)] = v;
        }
    }
    out
}

/// A delay differential system `dx/dt = f(t, x(t), history)` written as a
/// *lane kernel*: it reads and writes only the components of one lane of a
/// strided block. One model integrates as the `lane = 0, stride = 1` case,
/// so a lane and a solo run are the same arithmetic.
pub trait LaneSystem {
    /// Per-lane state dimension.
    fn lane_dim(&self) -> usize;

    /// Evaluate this lane's derivative. `x` and `dxdt` are full strided
    /// blocks; component `c` of this lane lives at [`lane_of`]`(c, lane,
    /// stride)`. Delayed values come from `hist` (same strided layout,
    /// including the pre-`t0` initial function; use
    /// [`History::eval_strided`] for one-locate whole-lane reads). `&mut
    /// self` allows models that carry RNG state (feedback jitter in
    /// Figure 20).
    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    );

    /// The smallest delay this lane will ever query, used for a step-size
    /// sanity check. Return `f64::INFINITY` for delay-free systems.
    fn min_delay(&self) -> f64;

    /// Optional per-step projection of this lane's components (e.g. clamping
    /// the queue length and rates to be non-negative, as the physical system
    /// enforces). Default: no projection.
    fn lane_project(&mut self, _t: f64, _x: &mut [f64], _lane: usize, _stride: usize) {}

    /// The derivative of every lane of `lanes` (lane `l` at stride
    /// `lanes.len()`) at stage instant `at` of the current RK4 step — how
    /// [`try_integrate`] calls its lanes. The default calls each lane's
    /// [`LaneSystem::lane_rhs`]; a [`StagedLane`](crate::stage::StagedLane)
    /// overrides it with `stages.rhs(lanes, at, t, x, hist, dxdt)`.
    fn lanes_rhs_at(
        lanes: &mut [Self],
        _at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        _stages: &mut Stages,
        dxdt: &mut [f64],
    ) where
        Self: Sized,
    {
        let stride = lanes.len();
        for (lane, m) in lanes.iter_mut().enumerate() {
            m.lane_rhs(t, x, lane, stride, hist, dxdt);
        }
    }
}

/// Options for [`try_integrate`].
#[derive(Debug, Clone)]
pub struct DdeOptions {
    /// Fixed step size (seconds).
    pub step: f64,
    /// Record every n-th step into the output trace.
    pub record_every: usize,
    /// Trim history older than this horizon (seconds) behind the current
    /// time; must exceed the largest delay the model queries. `f64::INFINITY`
    /// disables trimming.
    pub history_horizon_s: f64,
}

impl Default for DdeOptions {
    fn default() -> Self {
        DdeOptions {
            step: 1e-6,
            record_every: 10,
            history_horizon_s: 0.01,
        }
    }
}

/// Integrate the lanes `lanes` in lockstep from `t0` to `t1`, starting at
/// `x0` with constant pre-history `x0`.
///
/// `x0` is a `[lane_dim × B]` struct-of-arrays block (see [`pack_lanes`];
/// for one lane, the plain state vector). The outer `Result` reports
/// configuration errors — a bad window, step or dimension, zero lanes;
/// nothing ran. The inner per-lane `Result`s carry each lane's
/// de-interleaved [`Trace`] or its [`SimError::Divergence`] (NaN/Inf or a
/// max-norm beyond [`DIVERGENCE_NORM`], with the time, state norm and last
/// step). A diverging lane is frozen at its last good state and its
/// batchmates continue; integration stops early only when every lane has
/// diverged.
///
/// ```
/// use fluid::dde::{lane_of, try_integrate, DdeOptions, LaneSystem};
/// use fluid::history::History;
///
/// // dx/dt = -x(t-1), x ≡ 1 for t ≤ 0: x(1) = 0 exactly.
/// struct UnitDelay;
/// impl LaneSystem for UnitDelay {
///     fn lane_dim(&self) -> usize { 1 }
///     fn lane_rhs(&mut self, t: f64, _x: &[f64], lane: usize, stride: usize,
///                 h: &History, dx: &mut [f64]) {
///         let c = lane_of(0, lane, stride);
///         dx[c] = -h.eval(t - 1.0, c);
///     }
///     fn min_delay(&self) -> f64 { 1.0 }
/// }
/// let opts = DdeOptions { step: 1e-3, record_every: 1, history_horizon_s: f64::INFINITY };
/// let lanes = try_integrate(&mut [UnitDelay], &[1.0], 0.0, 1.0, &opts).unwrap();
/// assert!(lanes[0].as_ref().unwrap().last_state().unwrap()[0].abs() < 1e-6);
/// ```
pub fn try_integrate<M: LaneSystem>(
    lanes: &mut [M],
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Vec<Result<Trace, SimError>>, SimError> {
    let config = |detail: String| SimError::config("try_integrate", detail);
    let Some(first) = lanes.first() else {
        return Err(config("zero lanes".into()));
    };
    let n = first.lane_dim();
    let b = lanes.len();
    let total = n * b;
    if x0.len() != total || lanes.iter().any(|m| m.lane_dim() != n) {
        return Err(config(format!(
            "state dimension mismatch: {b} lanes of {n} components, x0 len {}",
            x0.len()
        )));
    }
    let window_ok = t0.is_finite() && t1.is_finite() && t1 >= t0;
    if !(opts.step > 0.0 && opts.step.is_finite() && window_ok) {
        return Err(config(format!(
            "bad integration window: step {} over [{t0}, {t1}]",
            opts.step
        )));
    }
    let min_delay = lanes
        .iter()
        .map(LaneSystem::min_delay)
        .fold(f64::INFINITY, f64::min);
    if !(min_delay.is_infinite() || opts.step <= min_delay) {
        return Err(config(format!(
            "step {} exceeds smallest delay {min_delay}; results would be inconsistent",
            opts.step
        )));
    }
    Ok(match lanes {
        // A one-model run: the loop is inlined with its width known to be
        // 1, so its strided indexing folds to a scalar loop's.
        [one] => step_lanes(std::slice::from_mut(one), x0, t0, t1, opts),
        _ => step_lanes(lanes, x0, t0, t1, opts),
    })
}

/// [`try_integrate`]'s RK4 step loop, on a validated configuration.
#[inline(always)]
fn step_lanes<M: LaneSystem>(
    lanes: &mut [M],
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Vec<Result<Trace, SimError>> {
    let b = lanes.len();
    let total = x0.len();
    let n = total / b;
    let mut hist = History::new(t0, x0);
    let record_every = opts.record_every.max(1);
    let mut x = x0.to_vec();
    let mut traces: Vec<Trace> = (0..b).map(|_| Trace::new(n)).collect();
    let mut lane_row = vec![0.0; n];
    for (lane, tr) in traces.iter_mut().enumerate() {
        deinterleave(&x, lane, b, &mut lane_row);
        tr.push(t0, &lane_row);
    }
    let mut errors: Vec<Option<SimError>> = (0..b).map(|_| None).collect();
    let mut alive = vec![true; b];
    let mut alive_count = b;

    let steps = ((t1 - t0) / opts.step).ceil() as usize;
    let mut t = t0;
    let mut k1 = vec![0.0; total];
    let mut k2 = vec![0.0; total];
    let mut k3 = vec![0.0; total];
    let mut k4 = vec![0.0; total];
    let mut tmp = vec![0.0; total];
    let mut x_prev = vec![0.0; total];
    let mut stages = Stages::new(b);

    let _span = obs::span::enter(obs::Phase::Integrate);
    let mut completed = 0u64;
    'integration: for step in 1..=steps {
        let h = (t1 - t).min(opts.step);
        x_prev.copy_from_slice(&x);
        M::lanes_rhs_at(lanes, Start, t, &x, &hist, &mut stages, &mut k1);
        stage_state(&mut tmp, &x, 0.5 * h, &k1);
        M::lanes_rhs_at(lanes, Mid, t + 0.5 * h, &tmp, &hist, &mut stages, &mut k2);
        stage_state(&mut tmp, &x, 0.5 * h, &k2);
        M::lanes_rhs_at(lanes, Mid, t + 0.5 * h, &tmp, &hist, &mut stages, &mut k3);
        stage_state(&mut tmp, &x, h, &k3);
        M::lanes_rhs_at(lanes, End, t + h, &tmp, &hist, &mut stages, &mut k4);
        rk4_combine(&mut x, h, &k1, &k2, &k3, &k4);
        t += h;
        for (lane, m) in lanes.iter_mut().enumerate() {
            m.lane_project(t, &mut x, lane, b);
        }
        // Dead lanes are frozen at their last good state: undo whatever the
        // combine/projection did to their components. Live lanes never read
        // them, so the freeze cannot perturb batchmates.
        if alive_count < b {
            for (lane, &is_alive) in alive.iter().enumerate() {
                if !is_alive {
                    restore_lane(&mut x, &x_prev, lane, b, n);
                }
            }
        }
        // Per-lane divergence watchdog: one exploding lane is recorded and
        // frozen without aborting its batchmates.
        let mut step_norm = 0.0f64;
        for lane in 0..b {
            if !alive[lane] {
                continue;
            }
            let mut norm = 0.0f64;
            let mut finite = true;
            for c in 0..n {
                let xi = x[lane_of(c, lane, b)];
                if !xi.is_finite() {
                    finite = false;
                }
                norm = norm.max(xi.abs());
            }
            if !finite || norm > DIVERGENCE_NORM {
                let state_norm = if finite { norm } else { f64::NAN };
                obs::metrics::counter_inc("fluid.watchdog_trips");
                if obs::trace::enabled() {
                    obs::trace::record(
                        t,
                        obs::Event::WatchdogTrip {
                            step: step as u64,
                            state_norm,
                        },
                    );
                }
                let err = SimError::Divergence {
                    context: "dde integration".into(),
                    t_s: t,
                    state_norm,
                    last_step_s: h,
                    step: step as u64,
                };
                obs::flight::record(t, "watchdog", state_norm, obs::flight::current_cause());
                obs::flight::dump_on_error(&err.to_string());
                errors[lane] = Some(err);
                alive[lane] = false;
                alive_count -= 1;
                restore_lane(&mut x, &x_prev, lane, b, n);
                if alive_count == 0 {
                    break 'integration;
                }
            } else {
                step_norm = step_norm.max(norm);
            }
        }
        hist.push(t, &x);
        if opts.history_horizon_s.is_finite() {
            hist.trim_before(t - opts.history_horizon_s);
        }
        stages.advance(&hist);
        if step % record_every == 0 || step == steps {
            for (lane, tr) in traces.iter_mut().enumerate() {
                if alive[lane] {
                    deinterleave(&x, lane, b, &mut lane_row);
                    tr.push(t, &lane_row);
                }
            }
            if obs::timeseries::enabled() {
                obs::timeseries::sample(
                    "fluid.state_norm",
                    0,
                    (record_every as f64) * opts.step * 8.0,
                    t,
                    step_norm,
                );
                obs::timeseries::observe("fluid.state_norm", 0, step_norm);
            }
        }
        completed = step as u64;
        if obs::trace::enabled() {
            obs::trace::record(
                t,
                obs::Event::DdeStep {
                    step: step as u64,
                    dim: total as u64,
                },
            );
        }
    }
    // The step on which the last live lane died does not count.
    count_integration(completed, &hist, &stages);

    traces
        .into_iter()
        .zip(errors)
        .map(|(tr, err)| match err {
            Some(e) => Err(e),
            None => Ok(tr),
        })
        .collect()
}

/// `tmp = x + coeff·k`: the RK intermediate-stage state. Elementwise over
/// the flat `[lane_dim × B]` struct-of-arrays block (lanes are adjacent in
/// memory, which is what lets rustc auto-vectorize across the lanes).
#[inline]
fn stage_state(tmp: &mut [f64], x: &[f64], coeff: f64, k: &[f64]) {
    for ((t, &xi), &ki) in tmp.iter_mut().zip(x).zip(k) {
        *t = xi + coeff * ki;
    }
}

/// `x += h/6 · (k1 + 2k2 + 2k3 + k4)`: the classic RK4 combination.
/// Elementwise like [`stage_state`].
#[inline]
fn rk4_combine(x: &mut [f64], h: f64, k1: &[f64], k2: &[f64], k3: &[f64], k4: &[f64]) {
    let w = h / 6.0;
    for i in 0..x.len() {
        x[i] += w * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Add an integration's work to the metrics in one call: its completed steps
/// to `fluid.dde_steps`, its history's lookup tally to
/// `fluid.history_lookups`, and its stage
/// slots' phase-one fills to `fluid.delayed_evals`. A counter takes a global
/// mutex, which per step (let alone per lookup) is a visible share of a
/// few-components-wide RK4 step. A zero count leaves its counter
/// unregistered, as a per-event increment would.
fn count_integration(completed_steps: u64, hist: &History, stages: &Stages) {
    for (name, count) in [
        ("fluid.dde_steps", completed_steps),
        ("fluid.history_lookups", hist.lookups()),
        ("fluid.delayed_evals", stages.fills()),
    ] {
        if count > 0 {
            obs::metrics::counter_add(name, count);
        }
    }
}

/// Copy lane `lane` of the strided block `x` into the dense `row`.
#[inline]
fn deinterleave(x: &[f64], lane: usize, stride: usize, row: &mut [f64]) {
    for (c, r) in row.iter_mut().enumerate() {
        *r = x[lane_of(c, lane, stride)];
    }
}

/// Restore lane `lane`'s components of `x` from `x_prev` (freeze-on-death).
#[inline]
fn restore_lane(x: &mut [f64], x_prev: &[f64], lane: usize, stride: usize, n: usize) {
    for c in 0..n {
        let i = lane_of(c, lane, stride);
        x[i] = x_prev[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dx/dt = gain · x(t − 1): decays, oscillates or explodes per lane
    /// depending on `gain`. At gain −1 with x ≡ 1 before 0, the exact
    /// solution is x(t) = 1 − t on [0, 1] and 1 − t + (t − 1)²/2 on [1, 2].
    struct DelayGain {
        gain: f64,
    }

    impl LaneSystem for DelayGain {
        fn lane_dim(&self) -> usize {
            1
        }
        fn lane_rhs(
            &mut self,
            t: f64,
            _x: &[f64],
            lane: usize,
            stride: usize,
            hist: &History,
            dxdt: &mut [f64],
        ) {
            let c = lane_of(0, lane, stride);
            dxdt[c] = self.gain * hist.eval(t - 1.0, c);
        }
        fn min_delay(&self) -> f64 {
            1.0
        }
        fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
            // A non-trivial projection so the freeze/restore order is tested.
            let i = lane_of(0, lane, stride);
            x[i] = x[i].clamp(-1e15, 1e15);
        }
    }

    /// dx/dt = gain·x, read from the current state: explosive for a large
    /// positive gain (the canonical watchdog fodder), NaN for a NaN gain.
    struct Explosive {
        gain: f64,
    }

    impl LaneSystem for Explosive {
        fn lane_dim(&self) -> usize {
            1
        }
        fn lane_rhs(
            &mut self,
            _t: f64,
            x: &[f64],
            lane: usize,
            stride: usize,
            _hist: &History,
            dxdt: &mut [f64],
        ) {
            let c = lane_of(0, lane, stride);
            dxdt[c] = self.gain * x[c];
        }
        fn min_delay(&self) -> f64 {
            f64::INFINITY
        }
    }

    fn opts(step: f64, record_every: usize, history_horizon_s: f64) -> DdeOptions {
        DdeOptions {
            step,
            record_every,
            history_horizon_s,
        }
    }

    /// The one lane of a one-lane run, or its divergence.
    fn solo<M: LaneSystem>(m: M, x0: &[f64], t1: f64, o: &DdeOptions) -> Result<Trace, SimError> {
        try_integrate(&mut [m], x0, 0.0, t1, o)
            .expect("valid configuration")
            .remove(0)
    }

    fn assert_traces_bitwise_eq(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!(a.times()[i].to_bits() == b.times()[i].to_bits());
            for (va, vb) in a.state(i).iter().zip(b.state(i)) {
                assert!(va.to_bits() == vb.to_bits(), "row {i}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn zero_delay_reduces_to_ode() {
        /// dx/dt = −x, read from the history at `t` itself.
        struct Decay;
        impl LaneSystem for Decay {
            fn lane_dim(&self) -> usize {
                1
            }
            fn lane_rhs(
                &mut self,
                t: f64,
                _x: &[f64],
                lane: usize,
                stride: usize,
                hist: &History,
                dxdt: &mut [f64],
            ) {
                let c = lane_of(0, lane, stride);
                dxdt[c] = -hist.eval(t, c);
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
        }
        let tr = solo(Decay, &[1.0], 1.0, &opts(1e-3, 100, 0.1)).unwrap();
        let last = tr.last_state().unwrap()[0];
        // History-based lookup lags by one step for the "current" value, so
        // accuracy is ~O(h); just confirm it tracks e^{-1} closely.
        assert!((last - (-1.0f64).exp()).abs() < 1e-2, "got {last}");
    }

    #[test]
    fn projection_clamps_state() {
        /// dx/dt = −10, projected onto x ≥ 0.
        struct Drain;
        impl LaneSystem for Drain {
            fn lane_dim(&self) -> usize {
                1
            }
            fn lane_rhs(
                &mut self,
                _t: f64,
                _x: &[f64],
                lane: usize,
                stride: usize,
                _hist: &History,
                dxdt: &mut [f64],
            ) {
                dxdt[lane_of(0, lane, stride)] = -10.0;
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
            fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
                let c = lane_of(0, lane, stride);
                x[c] = x[c].max(0.0);
            }
        }
        let tr = solo(Drain, &[0.5], 1.0, &opts(0.01, 1, f64::INFINITY)).unwrap();
        assert_eq!(tr.last_state().unwrap()[0], 0.0);
        for i in 0..tr.len() {
            assert!(tr.state(i)[0] >= 0.0);
        }
    }

    #[test]
    fn history_trimming_does_not_change_result() {
        let run = |horizon: f64| {
            let tr = solo(
                DelayGain { gain: -1.0 },
                &[1.0],
                3.0,
                &opts(1e-3, 1, horizon),
            );
            tr.unwrap().last_state().unwrap()[0]
        };
        let full = run(f64::INFINITY);
        let trimmed = run(1.5); // > max delay of 1.0
        assert!((full - trimmed).abs() < 1e-12);
    }

    #[test]
    fn config_errors_are_outer_errors() {
        let check =
            |lanes: &mut [DelayGain], x0: &[f64], t0: f64, t1: f64, step: f64, want: &str| {
                let o = opts(step, 1, f64::INFINITY);
                let e = try_integrate(lanes, x0, t0, t1, &o).expect_err(want);
                assert!(!e.is_divergence());
                assert!(e.to_string().contains(want), "{e}");
            };
        let one = || [DelayGain { gain: -1.0 }];
        let no_lanes: &mut [DelayGain] = &mut [];
        check(
            &mut one(),
            &[1.0],
            0.0,
            4.0,
            2.0,
            "step 2 exceeds smallest delay 1",
        );
        let mismatch = "state dimension mismatch: 1 lanes of 1 components, x0 len 2";
        check(&mut one(), &[1.0, 2.0], 0.0, 4.0, 0.5, mismatch);
        check(no_lanes, &[], 0.0, 4.0, 0.5, "zero lanes");
        // An infinite window would step `usize::MAX` times.
        let forever = "bad integration window: step 0.5 over [0, inf]";
        check(&mut one(), &[1.0], 0.0, f64::INFINITY, 0.5, forever);
        let since_ever = "bad integration window: step 0.5 over [-inf, 1]";
        check(&mut one(), &[1.0], f64::NEG_INFINITY, 1.0, 0.5, since_ever);
    }

    #[test]
    fn step_equal_to_min_delay_is_accepted_and_accurate() {
        // The boundary case step == min_delay: with x ≡ 1 pre-history the
        // delayed term is piecewise linear, which RK4 over the interpolated
        // history integrates exactly — x(1) = 0 and x(2) = -1/2.
        let tr = solo(
            DelayGain { gain: -1.0 },
            &[1.0],
            2.0,
            &opts(1.0, 1, f64::INFINITY),
        );
        let tr = tr.unwrap();
        assert_eq!(tr.len(), 3);
        assert!((tr.state(1)[0]).abs() < 1e-9, "x(1) = {}", tr.state(1)[0]);
        assert!(
            (tr.state(2)[0] + 0.5).abs() < 1e-9,
            "x(2) = {}",
            tr.state(2)[0]
        );
    }

    #[test]
    fn watchdog_trips_on_exploding_state() {
        let o = opts(1e-3, 1, f64::INFINITY);
        let e = solo(Explosive { gain: 1e3 }, &[1.0], 1.0, &o).unwrap_err();
        assert!(e.is_divergence(), "{e}");
        let SimError::Divergence {
            t_s,
            state_norm,
            last_step_s,
            step,
            ..
        } = e
        else {
            unreachable!()
        };
        // e^{1000 t} crosses 1e12 near t ≈ 0.0276: the watchdog must fire
        // long before the nominal end of the window, while still finite.
        assert!(t_s < 0.1, "tripped at t = {t_s}");
        assert!(state_norm > DIVERGENCE_NORM && state_norm.is_finite());
        assert_eq!(last_step_s, 1e-3);
        assert!(step > 0);
    }

    #[test]
    fn watchdog_trips_on_nan_rhs() {
        let o = opts(1e-3, 1, f64::INFINITY);
        let e = solo(Explosive { gain: f64::NAN }, &[1.0], 1.0, &o).unwrap_err();
        let SimError::Divergence {
            state_norm, step, ..
        } = e
        else {
            panic!("expected divergence, got {e}");
        };
        assert!(state_norm.is_nan(), "NaN states report a NaN norm");
        assert_eq!(step, 1, "NaN must be caught on the very first step");
    }

    #[test]
    fn stable_system_unaffected_by_watchdog() {
        // Same machinery, contracting dynamics: Ok, identical to before.
        let o = opts(1e-3, 1, f64::INFINITY);
        let tr = solo(Explosive { gain: -1.0 }, &[1.0], 1.0, &o).unwrap();
        let last = tr.last_state().unwrap()[0];
        assert!((last - (-1.0f64).exp()).abs() < 1e-6, "got {last}");
    }

    fn lanes_opts() -> DdeOptions {
        opts(1e-2, 3, 1.5)
    }

    #[test]
    fn batch_lanes_match_their_solo_runs_bitwise() {
        let gains = [-1.0f64, -0.5, 0.2, -1.4];
        let x0s: Vec<Vec<f64>> = gains.iter().map(|&g| vec![1.0 + g.abs()]).collect();
        let mut lanes: Vec<DelayGain> = gains.iter().map(|&gain| DelayGain { gain }).collect();
        let results = try_integrate(&mut lanes, &pack_lanes(&x0s), 0.0, 4.0, &lanes_opts());
        for ((&gain, x0), res) in gains.iter().zip(&x0s).zip(results.unwrap()) {
            let alone = solo(DelayGain { gain }, x0, 4.0, &lanes_opts()).expect("stable");
            assert_traces_bitwise_eq(&alone, &res.expect("stable"));
        }
    }

    #[test]
    fn per_lane_results_invariant_under_batch_width() {
        // The same four configs, as a B = 4 batch and as the first four lanes
        // of a B = 16 batch: per-lane traces must be bitwise identical.
        let gains4 = [-1.0, -0.5, 0.2, -1.4];
        let mut g16: Vec<f64> = (0..16).map(|i| -1.0 + 0.08 * i as f64).collect();
        g16[..4].copy_from_slice(&gains4);
        let run = |gains: &[f64]| {
            let x0s: Vec<Vec<f64>> = gains.iter().map(|&g| vec![1.0 + g.abs()]).collect();
            let mut lanes: Vec<DelayGain> = gains.iter().map(|&gain| DelayGain { gain }).collect();
            try_integrate(&mut lanes, &pack_lanes(&x0s), 0.0, 4.0, &lanes_opts()).unwrap()
        };
        let (r4, r16) = (run(&gains4), run(&g16));
        for (a, b) in r4.iter().zip(&r16[..4]) {
            assert_traces_bitwise_eq(a.as_ref().expect("stable"), b.as_ref().expect("stable"));
        }
    }

    #[test]
    fn diverging_lane_fails_alone_and_batchmates_are_unperturbed() {
        // Lane 1 explodes (gain ≫ 0): it reports its solo run's divergence,
        // bit for bit, and lanes 0 and 2 complete and match their solo runs.
        let gains = [-1.0, 4000.0, -0.7];
        let mut lanes: Vec<DelayGain> = gains.iter().map(|&gain| DelayGain { gain }).collect();
        let packed = pack_lanes(&vec![vec![1.0]; 3]);
        let results = try_integrate(&mut lanes, &packed, 0.0, 6.0, &lanes_opts()).unwrap();
        assert_eq!(results.len(), 3);
        let divergence = |e: &SimError| match *e {
            SimError::Divergence {
                t_s,
                state_norm,
                last_step_s,
                step,
                ..
            } => (
                t_s.to_bits(),
                state_norm.to_bits(),
                last_step_s.to_bits(),
                step,
            ),
            _ => panic!("expected divergence, got {e}"),
        };
        let err = results[1].as_ref().expect_err("poisoned lane must diverge");
        let alone = solo(DelayGain { gain: 4000.0 }, &[1.0], 6.0, &lanes_opts());
        assert_eq!(divergence(err), divergence(&alone.expect_err("explodes")));
        for lane in [0usize, 2] {
            let alone = solo(DelayGain { gain: gains[lane] }, &[1.0], 6.0, &lanes_opts());
            let got = results[lane].as_ref().expect("stable");
            assert_traces_bitwise_eq(&alone.expect("stable"), got);
        }
    }

    #[test]
    fn pack_lanes_layout_matches_lane_of() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        let packed = pack_lanes(&rows);
        assert_eq!(packed, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(packed[lane_of(2, 1, 2)], 30.0);
    }
}
