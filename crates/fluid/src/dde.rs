//! Fixed-step RK4 integration of delay differential equations.
//!
//! The method of steps: the right-hand side receives the accumulated
//! [`History`] and performs its own delayed lookups (`hist.eval(t - d, c)`),
//! which naturally supports multiple, heterogeneous and *state-dependent*
//! delays (TIMELY's feedback delay `τ′ = q/C + MTU/C + D_prop` depends on the
//! queue itself). Intra-step RK stages query the history too; lookups past
//! the last knot return the latest value, so accuracy demands steps no larger
//! than the smallest delay — the integrator asserts a sane ratio.
//!
//! This module holds the scalar interface — [`DdeSystem`], [`DdeOptions`] and
//! the `integrate_dde*` entry points. The RK4 step loop itself is
//! [`crate::batch`]'s: a [`DdeSystem`] integrates as a batch of one lane.

use crate::batch::{try_integrate_dde_batch, BatchDdeSystem, LaneSystem};
use crate::history::History;
use crate::stage::{StageInstant, Stages};
use crate::trace::Trace;
use faults::SimError;

/// Divergence-watchdog threshold on the state max-norm. The physical states
/// here are queues in packets/bytes (≤ 1e7) and rates in bits/second (≤ 1e11);
/// anything past this bound is numerical blow-up, not physics.
pub const DIVERGENCE_NORM: f64 = 1e12;

/// A delay differential system `dx/dt = f(t, x(t), history)`.
pub trait DdeSystem {
    /// State dimension.
    fn dim(&self) -> usize;

    /// Evaluate the derivative. `x` is the current state; delayed values are
    /// obtained from `hist` (which includes the pre-`t0` initial function).
    /// `&mut self` allows models that carry RNG state (feedback jitter in
    /// Figure 20).
    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]);

    /// [`DdeSystem::rhs`] as the integrator calls it: at stage instant `at`
    /// of the current RK4 step, with the step's stage slots. The default
    /// ignores the slots; a [`LaneSystem`]'s goes through
    /// [`LaneSystem::lanes_rhs_at`], so a
    /// [`StagedLane`](crate::stage::StagedLane) uses them here too.
    fn rhs_at(
        &mut self,
        _at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        _stages: &mut Stages,
        dxdt: &mut [f64],
    ) {
        self.rhs(t, x, hist, dxdt);
    }

    /// The smallest delay the model will ever query, used for a step-size
    /// sanity check. Return `f64::INFINITY` for delay-free systems.
    fn min_delay(&self) -> f64;

    /// Optional state projection applied after every step (e.g. clamping the
    /// queue length and rates to be non-negative, as the physical system
    /// enforces). Default: no projection.
    fn project(&mut self, _t: f64, _x: &mut [f64]) {}
}

/// A lane kernel is a [`DdeSystem`]: the scalar path is lane 0 of a batch of
/// one, so both paths run the same arithmetic.
impl<M: LaneSystem> DdeSystem for M {
    fn dim(&self) -> usize {
        self.lane_dim()
    }

    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]) {
        self.lane_rhs(t, x, 0, 1, hist, dxdt);
    }

    fn rhs_at(
        &mut self,
        at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        stages: &mut Stages,
        dxdt: &mut [f64],
    ) {
        M::lanes_rhs_at(std::slice::from_mut(self), at, t, x, hist, stages, dxdt);
    }

    fn min_delay(&self) -> f64 {
        LaneSystem::min_delay(self)
    }

    fn project(&mut self, t: f64, x: &mut [f64]) {
        self.lane_project(t, x, 0, 1);
    }
}

/// Options for [`integrate_dde`].
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

/// Integrate the DDE from `t0` to `t1` starting at `x0`, with constant
/// pre-history equal to `x0`.
///
/// ```
/// use fluid::dde::{integrate_dde, DdeOptions, DdeSystem};
/// use fluid::history::History;
///
/// // dx/dt = -x(t-1), x ≡ 1 for t ≤ 0: x(1) = 0 exactly.
/// struct UnitDelay;
/// impl DdeSystem for UnitDelay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&mut self, t: f64, _x: &[f64], h: &History, dx: &mut [f64]) {
///         dx[0] = -h.eval(t - 1.0, 0);
///     }
///     fn min_delay(&self) -> f64 { 1.0 }
/// }
/// let opts = DdeOptions { step: 1e-3, record_every: 1, history_horizon_s: f64::INFINITY };
/// let tr = integrate_dde(&mut UnitDelay, &[1.0], 0.0, 1.0, &opts);
/// assert!(tr.last_state().unwrap()[0].abs() < 1e-6);
/// ```
pub fn integrate_dde<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Trace {
    integrate_dde_with_prehistory(sys, x0, x0, t0, t1, opts)
}

/// Integrate with an explicit constant pre-history `pre` (may differ from the
/// initial state, e.g. "queue was empty but rates were at line rate").
///
/// Panics on invalid options or divergence; sweep drivers that must survive
/// individual bad points use [`try_integrate_dde_with_prehistory`].
pub fn integrate_dde_with_prehistory<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    pre: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Trace {
    try_integrate_dde_with_prehistory(sys, x0, pre, t0, t1, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`integrate_dde`]: structured errors instead of panics.
pub fn try_integrate_dde<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Trace, SimError> {
    try_integrate_dde_with_prehistory(sys, x0, x0, t0, t1, opts)
}

/// Fallible variant of [`integrate_dde_with_prehistory`].
///
/// Returns [`SimError::InvalidConfig`] for a bad window/step/dimension and
/// [`SimError::Divergence`] when the watchdog detects NaN/Inf or an exploding
/// state (max-norm beyond [`DIVERGENCE_NORM`]). On divergence the error
/// carries the time, state norm and last step so the caller can record the
/// failed point and continue the sweep.
pub fn try_integrate_dde_with_prehistory<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    pre: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Trace, SimError> {
    let named = |detail: String| SimError::config("integrate_dde", detail);
    try_integrate_dde_batch(&mut OneLane(sys), x0, pre, t0, t1, opts)
        .map_err(|e| match e {
            SimError::InvalidConfig { detail, .. } => named(detail),
            other => other,
        })?
        .pop()
        .unwrap_or_else(|| Err(named("the one-lane batch returned no lane".into())))
}

/// `sys` as a batch of one lane. The batched integrator owns the only RK4
/// step loop; at B = 1 its strided block is the plain state vector.
struct OneLane<'a, S>(&'a mut S);

impl<S: DdeSystem> BatchDdeSystem for OneLane<'_, S> {
    fn lane_dim(&self) -> usize {
        self.0.dim()
    }

    fn lanes(&self) -> usize {
        1
    }

    fn rhs_at(
        &mut self,
        at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        stages: &mut Stages,
        dxdt: &mut [f64],
    ) {
        self.0.rhs_at(at, t, x, hist, stages, dxdt);
    }

    fn min_delay(&self) -> f64 {
        self.0.min_delay()
    }

    fn project(&mut self, t: f64, x: &mut [f64]) {
        self.0.project(t, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dx/dt = -x(t − 1): the classic test DDE. With constant pre-history
    /// x ≡ 1, the exact solution on [0,1] is x(t) = 1 − t, and on [1,2]
    /// x(t) = 1 − t + (t−1)²/2.
    struct UnitDelay;
    impl DdeSystem for UnitDelay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&mut self, t: f64, _x: &[f64], hist: &History, dxdt: &mut [f64]) {
            dxdt[0] = -hist.eval(t - 1.0, 0);
        }
        fn min_delay(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn matches_method_of_steps_exact_solution() {
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde(&mut UnitDelay, &[1.0], 0.0, 2.0, &opts);
        for i in 0..tr.len() {
            let t = tr.times()[i];
            let x = tr.state(i)[0];
            let exact = if t <= 1.0 {
                1.0 - t
            } else {
                1.0 - t + (t - 1.0) * (t - 1.0) / 2.0
            };
            assert!((x - exact).abs() < 1e-6, "t={t}: {x} vs {exact}");
        }
    }

    #[test]
    fn zero_delay_reduces_to_ode() {
        struct Decay;
        impl DdeSystem for Decay {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, t: f64, _x: &[f64], hist: &History, dxdt: &mut [f64]) {
                dxdt[0] = -hist.eval(t, 0);
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
        }
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 100,
            history_horizon_s: 0.1,
        };
        let tr = integrate_dde(&mut Decay, &[1.0], 0.0, 1.0, &opts);
        let last = tr.last_state().unwrap()[0];
        // History-based lookup lags by one step for the "current" value, so
        // accuracy is ~O(h); just confirm it tracks e^{-1} closely.
        assert!((last - (-1.0f64).exp()).abs() < 1e-2, "got {last}");
    }

    #[test]
    fn projection_clamps_state() {
        struct Drain;
        impl DdeSystem for Drain {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, _t: f64, _x: &[f64], _h: &History, dxdt: &mut [f64]) {
                dxdt[0] = -10.0;
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
            fn project(&mut self, _t: f64, x: &mut [f64]) {
                x[0] = x[0].max(0.0);
            }
        }
        let opts = DdeOptions {
            step: 0.01,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde(&mut Drain, &[0.5], 0.0, 1.0, &opts);
        assert_eq!(tr.last_state().unwrap()[0], 0.0);
        for i in 0..tr.len() {
            assert!(tr.state(i)[0] >= 0.0);
        }
    }

    #[test]
    fn prehistory_differs_from_initial_state() {
        // dx/dt = -x(t-1); pre-history 2 but x0 = 0: derivative is -2 for
        // t in [0,1) regardless of the current state.
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde_with_prehistory(&mut UnitDelay, &[0.0], &[2.0], 0.0, 0.5, &opts);
        let last = tr.last_state().unwrap()[0];
        assert!((last - (-1.0)).abs() < 1e-6, "got {last}");
    }

    #[test]
    fn history_trimming_does_not_change_result() {
        let run = |horizon: f64| {
            let opts = DdeOptions {
                step: 1e-3,
                record_every: 1,
                history_horizon_s: horizon,
            };
            integrate_dde(&mut UnitDelay, &[1.0], 0.0, 3.0, &opts)
                .last_state()
                .unwrap()[0]
        };
        let full = run(f64::INFINITY);
        let trimmed = run(1.5); // > max delay of 1.0
        assert!((full - trimmed).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds smallest delay")]
    fn oversized_step_rejected() {
        let opts = DdeOptions {
            step: 2.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        integrate_dde(&mut UnitDelay, &[1.0], 0.0, 4.0, &opts);
    }

    #[test]
    fn try_variant_reports_oversized_step_as_config_error() {
        let opts = DdeOptions {
            step: 2.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e = try_integrate_dde(&mut UnitDelay, &[1.0], 0.0, 4.0, &opts).unwrap_err();
        assert!(!e.is_divergence());
        assert!(e.to_string().contains("exceeds smallest delay"), "{e}");
    }

    #[test]
    fn step_equal_to_min_delay_is_accepted_and_accurate() {
        // The boundary case step == min_delay: with x ≡ 1 pre-history the
        // delayed term is piecewise linear, which RK4 over the interpolated
        // history integrates exactly — x(1) = 0 and x(2) = -1/2.
        let opts = DdeOptions {
            step: 1.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = try_integrate_dde(&mut UnitDelay, &[1.0], 0.0, 2.0, &opts).unwrap();
        assert_eq!(tr.len(), 3);
        assert!((tr.state(1)[0]).abs() < 1e-9, "x(1) = {}", tr.state(1)[0]);
        assert!(
            (tr.state(2)[0] + 0.5).abs() < 1e-9,
            "x(2) = {}",
            tr.state(2)[0]
        );
    }

    /// dx/dt = gain·x: explosive for large positive gain, the canonical
    /// watchdog fodder.
    struct Explosive {
        gain: f64,
    }
    impl DdeSystem for Explosive {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&mut self, _t: f64, x: &[f64], _h: &History, dxdt: &mut [f64]) {
            dxdt[0] = self.gain * x[0];
        }
        fn min_delay(&self) -> f64 {
            f64::INFINITY
        }
    }

    #[test]
    fn watchdog_trips_on_exploding_state() {
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e =
            try_integrate_dde(&mut Explosive { gain: 1e3 }, &[1.0], 0.0, 1.0, &opts).unwrap_err();
        assert!(e.is_divergence(), "{e}");
        let faults::SimError::Divergence {
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
        struct NanRhs;
        impl DdeSystem for NanRhs {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, _t: f64, _x: &[f64], _h: &History, dxdt: &mut [f64]) {
                dxdt[0] = f64::NAN;
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
        }
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e = try_integrate_dde(&mut NanRhs, &[1.0], 0.0, 1.0, &opts).unwrap_err();
        let faults::SimError::Divergence {
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
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = try_integrate_dde(&mut Explosive { gain: -1.0 }, &[1.0], 0.0, 1.0, &opts).unwrap();
        let last = tr.last_state().unwrap()[0];
        assert!((last - (-1.0f64).exp()).abs() < 1e-6, "got {last}");
    }
}
