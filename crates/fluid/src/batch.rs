//! Batched lockstep RK4 integration of B independent DDE configs.
//!
//! A parameter sweep integrates many *independent* DDE instances with the
//! same state dimension and step grid — Figure 4's `delay × N` queue panels,
//! the stability-atlas grids of ROADMAP item 3. Integrating them one at a
//! time pays the full per-step overhead (history locate, RHS dispatch, trace
//! bookkeeping) per point. This module integrates B configs *simultaneously*
//! over one shared struct-of-arrays state block:
//!
//! * **Memory layout** — the batch state is `[state_dim × B]`, component `c`
//!   of lane `l` at flat index `c·B + l` (see [`lane_of`]). Lanes are adjacent
//!   in memory, so the RK4 stage kernels (`stage_state` / `rk4_combine`) are
//!   tight per-component loops over the batch lane that rustc
//!   auto-vectorizes. The [`History`] stores the same flat layout, so one
//!   [`History::eval_strided`] call fetches a lane's full delayed state with
//!   a single bracketing-knot locate, itself O(1) on the integrator's
//!   uniform step grid.
//! * **One step loop** — [`try_integrate_dde_batch`] is the only RK4 DDE
//!   loop in the workspace: the scalar
//!   [`try_integrate_dde_with_prehistory`](crate::dde::try_integrate_dde_with_prehistory)
//!   wraps its [`DdeSystem`](crate::dde::DdeSystem) as a batch of one lane
//!   and returns that lane, so scalar and B = 1 are the same computation
//!   rather than two kept equal by tests. A lane kernel
//!   ([`LaneSystem::lane_rhs`]) is *the* model implementation — the scalar
//!   trait calls it with `lane = 0, stride = 1`, the batch with
//!   `lane = l, stride = B` — and because every per-lane operation touches
//!   only that lane's strided components, per-lane results are invariant
//!   under the batch width (B = 4 and B = 16 lanes holding the same config
//!   produce bitwise-equal traces).
//! * **Lane-divergence semantics** — the watchdog norm is evaluated per
//!   lane. A diverging lane is recorded as
//!   [`SimError::Divergence`] in its slot of the returned
//!   `Vec<Result<Trace, SimError>>`, its state is frozen at the last good
//!   step, and its batchmates integrate on unperturbed (lanes never read
//!   each other's components). Only when *every* lane has died does the
//!   integration stop early.

use crate::dde::{DdeOptions, DIVERGENCE_NORM};
use crate::history::History;
use crate::stage::{
    StageInstant::{self, End, Mid, Start},
    Stages,
};
use crate::trace::Trace;
use faults::SimError;

/// Flat index of `component` of `lane` in a struct-of-arrays batch block
/// whose lane stride is `stride` (= the batch width B). The unit of the
/// value read through this index is the unit of `component` — strided batch
/// reads keep their dimensional meaning.
#[inline]
pub fn lane_of(component: usize, lane: usize, stride: usize) -> usize {
    component * stride + lane
}

/// The lane stride of a batch of `lanes` configs: lanes are adjacent, so the
/// stride between consecutive components of one lane is the batch width.
#[inline]
pub fn batch_stride(lanes: usize) -> usize {
    lanes
}

/// Pack per-lane state rows (each `state_dim` long) into one
/// `[state_dim × B]` struct-of-arrays block: `out[lane_of(c, l, B)] =
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

/// A DDE right-hand side written as a *lane kernel*: it reads and writes
/// only the components of one lane of a strided batch block. The scalar
/// [`DdeSystem`](crate::dde::DdeSystem) path is the `lane = 0, stride = 1`
/// special case, so implementing this trait once gives both paths the same
/// arithmetic — the bit-identity guarantee of the batch integrator.
pub trait LaneSystem {
    /// Per-lane state dimension.
    fn lane_dim(&self) -> usize;

    /// Evaluate this lane's derivative. `x` and `dxdt` are full strided
    /// blocks; component `c` of this lane lives at [`lane_of`]`(c, lane,
    /// stride)`. Delayed lookups go through `hist` (same strided layout; use
    /// [`History::eval_strided`] for one-locate whole-lane reads).
    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    );

    /// Smallest delay this lane will ever query (`f64::INFINITY` if none).
    fn min_delay(&self) -> f64;

    /// Optional per-step projection of this lane's components (clamping).
    /// Default: no projection.
    fn lane_project(&mut self, _t: f64, _x: &mut [f64], _lane: usize, _stride: usize) {}

    /// The derivative of every lane of `lanes` (lane `l` at stride
    /// `lanes.len()`) at stage instant `at` of the current RK4 step — how
    /// [`LaneBatch`] calls its lanes. The default calls each lane's
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

/// A batch of B lockstep DDE lanes sharing one strided state block.
pub trait BatchDdeSystem {
    /// Per-lane state dimension.
    fn lane_dim(&self) -> usize;

    /// Number of lanes B (the stride of the state block).
    fn lanes(&self) -> usize;

    /// Evaluate the derivative of the whole `[lane_dim × B]` block at stage
    /// instant `at` of the current RK4 step; `stages` holds what earlier
    /// calls of the step derived from delayed state (see [`crate::stage`]).
    fn rhs_at(
        &mut self,
        at: StageInstant,
        t: f64,
        x: &[f64],
        hist: &History,
        stages: &mut Stages,
        dxdt: &mut [f64],
    );

    /// Smallest delay any lane will ever query.
    fn min_delay(&self) -> f64;

    /// Optional per-step projection of the whole block.
    fn project(&mut self, _t: f64, _x: &mut [f64]) {}
}

/// The standard [`BatchDdeSystem`]: B instances of one [`LaneSystem`] model,
/// one per lane. Lanes may hold different parameterizations (that is the
/// point of a sweep batch) but must share the state dimension.
pub struct LaneBatch<M: LaneSystem> {
    models: Vec<M>,
    lane_dim: usize,
}

impl<M: LaneSystem> LaneBatch<M> {
    /// Batch `models` into lockstep lanes. Panics if `models` is empty or
    /// the lane state dimensions disagree.
    pub fn new(models: Vec<M>) -> Self {
        assert!(!models.is_empty(), "a batch needs at least one lane");
        // `models[0]` is safe: non-emptiness asserted above.
        let lane_dim = models[0].lane_dim();
        for m in &models {
            assert_eq!(m.lane_dim(), lane_dim, "lanes must share the state dim");
        }
        LaneBatch { models, lane_dim }
    }

    /// The per-lane models, in lane order.
    pub fn into_inner(self) -> Vec<M> {
        self.models
    }

    /// Borrow the per-lane models, in lane order.
    pub fn models(&self) -> &[M] {
        &self.models
    }
}

impl<M: LaneSystem> BatchDdeSystem for LaneBatch<M> {
    fn lane_dim(&self) -> usize {
        self.lane_dim
    }

    fn lanes(&self) -> usize {
        self.models.len()
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
        M::lanes_rhs_at(&mut self.models, at, t, x, hist, stages, dxdt);
    }

    fn min_delay(&self) -> f64 {
        self.models
            .iter()
            .map(LaneSystem::min_delay)
            .fold(f64::INFINITY, f64::min)
    }

    fn project(&mut self, t: f64, x: &mut [f64]) {
        let stride = self.models.len();
        for (lane, m) in self.models.iter_mut().enumerate() {
            m.lane_project(t, x, lane, stride);
        }
    }
}

/// Integrate B lockstep lanes from `t0` to `t1`.
///
/// `x0` and `pre` are `[lane_dim × B]` struct-of-arrays blocks (see
/// [`pack_lanes`]). The outer `Result` reports configuration errors (bad
/// window/step/dimension — nothing ran); the inner per-lane `Result`s carry
/// each lane's de-interleaved [`Trace`] or its [`SimError::Divergence`].
/// A diverging lane is frozen at its last good state and its batchmates
/// continue; integration stops early only when every lane has diverged.
///
/// [`try_integrate_dde_with_prehistory`](crate::dde::try_integrate_dde_with_prehistory)
/// is this function at B = 1.
pub fn try_integrate_dde_batch<S: BatchDdeSystem>(
    sys: &mut S,
    x0: &[f64],
    pre: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Vec<Result<Trace, SimError>>, SimError> {
    let n = sys.lane_dim();
    let b = sys.lanes();
    let total = n * b;
    if b == 0 {
        return Err(SimError::config("integrate_dde_batch", "zero lanes"));
    }
    if x0.len() != total || pre.len() != total {
        return Err(SimError::config(
            "integrate_dde_batch",
            format!(
                "state dimension mismatch: {n} components x {b} lanes, x0 len {}, pre len {}",
                x0.len(),
                pre.len()
            ),
        ));
    }
    if !(opts.step > 0.0 && opts.step.is_finite() && t1 >= t0) {
        return Err(SimError::config(
            "integrate_dde_batch",
            format!(
                "bad integration window: step {} over [{t0}, {t1}]",
                opts.step
            ),
        ));
    }
    let min_delay = sys.min_delay();
    if !(min_delay.is_infinite() || opts.step <= min_delay) {
        return Err(SimError::config(
            "integrate_dde_batch",
            format!(
                "step {} exceeds smallest delay {min_delay}; results would be inconsistent",
                opts.step
            ),
        ));
    }

    let mut hist = History::new(t0, pre);
    // Exact by design: only a bitwise-identical pre-history skips the knot.
    if pre != x0 {
        hist.push(t0, x0);
    }

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
        sys.rhs_at(Start, t, &x, &hist, &mut stages, &mut k1);
        stage_state(&mut tmp, &x, 0.5 * h, &k1);
        sys.rhs_at(Mid, t + 0.5 * h, &tmp, &hist, &mut stages, &mut k2);
        stage_state(&mut tmp, &x, 0.5 * h, &k2);
        sys.rhs_at(Mid, t + 0.5 * h, &tmp, &hist, &mut stages, &mut k3);
        stage_state(&mut tmp, &x, h, &k3);
        sys.rhs_at(End, t + h, &tmp, &hist, &mut stages, &mut k4);
        rk4_combine(&mut x, h, &k1, &k2, &k3, &k4);
        t += h;
        sys.project(t, &mut x);
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

    Ok(traces
        .into_iter()
        .zip(errors)
        .map(|(tr, err)| match err {
            Some(e) => Err(e),
            None => Ok(tr),
        })
        .collect())
}

/// `tmp = x + coeff·k`: the RK intermediate-stage state. Elementwise over
/// the flat `[state_dim × B]` struct-of-arrays block (lanes are adjacent in
/// memory, which is what lets rustc auto-vectorize across the batch).
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
/// to `fluid.dde_steps`, its history's lookup tallies to
/// `fluid.history_lookups` / `fluid.history_lookup_fallbacks`, and its stage
/// slots' phase-one fills to `fluid.delayed_evals`. A counter takes a global
/// mutex, which per step (let alone per lookup) is a visible share of a
/// few-components-wide RK4 step. A zero count leaves its counter
/// unregistered, as a per-event increment would.
fn count_integration(completed_steps: u64, hist: &History, stages: &Stages) {
    let (lookups, fallbacks) = hist.lookup_counts();
    for (name, count) in [
        ("fluid.dde_steps", completed_steps),
        ("fluid.history_lookups", lookups),
        ("fluid.history_lookup_fallbacks", fallbacks),
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
    use crate::dde::try_integrate_dde;

    /// dx/dt = gain · x(t − 1): decays, oscillates or explodes per lane
    /// depending on `gain`. One lane kernel serves the scalar path too.
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
            dxdt[lane_of(0, lane, stride)] =
                self.gain * hist.eval(t - 1.0, lane_of(0, lane, stride));
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

    fn opts() -> DdeOptions {
        DdeOptions {
            step: 1e-2,
            record_every: 3,
            history_horizon_s: 1.5,
        }
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
    fn batch_of_one_is_bitwise_identical_to_scalar() {
        let scalar = try_integrate_dde(&mut DelayGain { gain: -1.0 }, &[1.0], 0.0, 5.0, &opts())
            .expect("stable");
        let mut batch = LaneBatch::new(vec![DelayGain { gain: -1.0 }]);
        let results =
            try_integrate_dde_batch(&mut batch, &[1.0], &[1.0], 0.0, 5.0, &opts()).unwrap();
        assert_eq!(results.len(), 1);
        let tr = results.into_iter().next().unwrap().expect("stable");
        assert_traces_bitwise_eq(&scalar, &tr);
    }

    #[test]
    fn batch_lanes_match_their_solo_runs_bitwise() {
        let gains = [-1.0f64, -0.5, 0.2, -1.4];
        let x0s: Vec<Vec<f64>> = gains.iter().map(|&g| vec![1.0 + g.abs()]).collect();
        let packed = pack_lanes(&x0s);
        let mut batch = LaneBatch::new(gains.iter().map(|&gain| DelayGain { gain }).collect());
        let results =
            try_integrate_dde_batch(&mut batch, &packed, &packed, 0.0, 4.0, &opts()).unwrap();
        for ((&gain, x0), res) in gains.iter().zip(&x0s).zip(results) {
            let solo =
                try_integrate_dde(&mut DelayGain { gain }, x0, 0.0, 4.0, &opts()).expect("stable");
            assert_traces_bitwise_eq(&solo, &res.expect("stable"));
        }
    }

    #[test]
    fn per_lane_results_invariant_under_batch_width() {
        // The same four configs, as a B = 4 batch and as the first four lanes
        // of a B = 16 batch: per-lane traces must be bitwise identical.
        let gains4 = [-1.0, -0.5, 0.2, -1.4];
        let gains16: Vec<f64> = (0..16).map(|i| -1.0 + 0.08 * i as f64).collect();
        let mut g16 = gains16.clone();
        g16[..4].copy_from_slice(&gains4);

        let x0 = |g: f64| vec![1.0 + g.abs()];
        let packed4 = pack_lanes(&gains4.iter().map(|&g| x0(g)).collect::<Vec<_>>());
        let packed16 = pack_lanes(&g16.iter().map(|&g| x0(g)).collect::<Vec<_>>());

        let mut b4 = LaneBatch::new(gains4.iter().map(|&gain| DelayGain { gain }).collect());
        let mut b16 = LaneBatch::new(g16.iter().map(|&gain| DelayGain { gain }).collect());
        let r4 = try_integrate_dde_batch(&mut b4, &packed4, &packed4, 0.0, 4.0, &opts()).unwrap();
        let r16 =
            try_integrate_dde_batch(&mut b16, &packed16, &packed16, 0.0, 4.0, &opts()).unwrap();
        for (a, b) in r4.iter().zip(&r16[..4]) {
            assert_traces_bitwise_eq(a.as_ref().expect("stable"), b.as_ref().expect("stable"));
        }
    }

    #[test]
    fn diverging_lane_fails_alone_and_batchmates_are_unperturbed() {
        // Lane 1 explodes (gain ≫ 0); lanes 0 and 2 must complete and match
        // their solo runs bitwise.
        let gains = [-1.0, 4000.0, -0.7];
        let x0s: Vec<Vec<f64>> = gains.iter().map(|_| vec![1.0]).collect();
        let packed = pack_lanes(&x0s);
        let mut batch = LaneBatch::new(gains.iter().map(|&gain| DelayGain { gain }).collect());
        let results =
            try_integrate_dde_batch(&mut batch, &packed, &packed, 0.0, 6.0, &opts()).unwrap();
        assert_eq!(results.len(), 3);
        let err = results[1].as_ref().expect_err("poisoned lane must diverge");
        assert!(err.is_divergence(), "{err}");
        for lane in [0usize, 2] {
            let solo = try_integrate_dde(
                &mut DelayGain { gain: gains[lane] },
                &[1.0],
                0.0,
                6.0,
                &opts(),
            )
            .expect("stable");
            assert_traces_bitwise_eq(&solo, results[lane].as_ref().expect("stable"));
        }
    }

    #[test]
    fn diverging_single_lane_matches_scalar_error() {
        let opts = opts();
        let scalar_err =
            try_integrate_dde(&mut DelayGain { gain: 4000.0 }, &[1.0], 0.0, 6.0, &opts)
                .expect_err("explodes");
        let mut batch = LaneBatch::new(vec![DelayGain { gain: 4000.0 }]);
        let results = try_integrate_dde_batch(&mut batch, &[1.0], &[1.0], 0.0, 6.0, &opts).unwrap();
        let batch_err = results.into_iter().next().unwrap().expect_err("explodes");
        // Same trip time, norm bits, step and last step as the scalar path.
        let faults::SimError::Divergence {
            t_s: ts,
            state_norm: ns,
            last_step_s: hs,
            step: ss,
            ..
        } = scalar_err
        else {
            panic!("expected divergence");
        };
        let faults::SimError::Divergence {
            t_s: tb,
            state_norm: nb,
            last_step_s: hb,
            step: sb,
            ..
        } = batch_err
        else {
            panic!("expected divergence");
        };
        assert!(ts.to_bits() == tb.to_bits());
        assert!(ns.to_bits() == nb.to_bits() || (ns.is_nan() && nb.is_nan()));
        assert!(hs.to_bits() == hb.to_bits());
        assert_eq!(ss, sb);
    }

    #[test]
    fn config_errors_are_outer_errors() {
        let mut batch = LaneBatch::new(vec![DelayGain { gain: -1.0 }]);
        let e = try_integrate_dde_batch(
            &mut batch,
            &[1.0],
            &[1.0],
            0.0,
            4.0,
            &DdeOptions {
                step: 2.0, // exceeds the min delay of 1.0
                record_every: 1,
                history_horizon_s: f64::INFINITY,
            },
        )
        .expect_err("oversized step");
        assert!(e.to_string().contains("exceeds smallest delay"), "{e}");
        let e2 = try_integrate_dde_batch(&mut batch, &[1.0, 2.0], &[1.0], 0.0, 4.0, &opts())
            .expect_err("dim mismatch");
        assert!(e2.to_string().contains("dimension mismatch"), "{e2}");
    }

    #[test]
    fn pack_lanes_layout_matches_lane_of() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        let packed = pack_lanes(&rows);
        assert_eq!(packed, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(packed[lane_of(2, 1, batch_stride(2))], 30.0);
    }
}
