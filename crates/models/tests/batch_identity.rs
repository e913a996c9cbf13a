//! Oracle tests for lockstep lanes: every protocol's lane kernel, run as a
//! lane of a batch, must be **bit-identical** to its solo (one-lane) run,
//! and lane results must not depend on the batch width.
//!
//! Both properties fall out of the single-code-path design — a solo run is
//! the `lane = 0, stride = 1` case of the same `lane_rhs`, and per-lane
//! arithmetic only ever touches that lane's strided components — but these
//! tests pin them as executable contracts so a future "optimization" that
//! reorders lane arithmetic fails loudly.
//!
//! Every protocol's contracts are asserted twice: on full-width lanes (the
//! identity flow partition a fresh model holds) and on *reduced* lanes that
//! step one block per class of the lanes' joint flow partition (see
//! `fluid::classes`), whose expanded traces must also equal the full-width
//! ones bit for bit.

use fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use fluid::dde::{lane_of, pack_lanes, try_integrate, DdeOptions, LaneSystem};
use fluid::Trace;
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use models::{TimelyFluid, TimelyLaw, TimelyParams};

/// Every recorded knot of a trace, as raw bits: `t` then the state row.
fn trace_bits(tr: &Trace) -> Vec<u64> {
    let mut bits = Vec::with_capacity(tr.len() * (tr.dim() + 1));
    for (i, &t) in tr.times().iter().enumerate() {
        bits.push(t.to_bits());
        bits.extend(tr.state(i).iter().map(|v| v.to_bits()));
    }
    bits
}

/// Shared lockstep options: one step for all lanes (≤ every lane's smallest
/// delay), knots recorded every step, and a history horizon generous enough
/// that no in-run lookback can fall off the back (horizon ≥ duration +
/// slack, and the deepest lookback any model makes during `duration` is far
/// smaller than `duration` itself at these time scales).
fn shared_opts<M: LaneSystem>(models: &[M], duration_s: f64) -> DdeOptions {
    let min_delay = models
        .iter()
        .map(LaneSystem::min_delay)
        .fold(f64::INFINITY, f64::min);
    DdeOptions {
        step: (min_delay / 4.0).min(1e-6),
        record_every: 1,
        history_horizon_s: duration_s + 0.01,
    }
}

/// Integrate `models` as the lanes of one batch from `x0s`; no lane may
/// diverge.
fn run<M: LaneSystem>(
    mut models: Vec<M>,
    x0s: &[Vec<f64>],
    duration_s: f64,
    opts: &DdeOptions,
) -> Vec<Trace> {
    try_integrate(&mut models, &pack_lanes(x0s), 0.0, duration_s, opts)
        .expect("valid batch configuration")
        .into_iter()
        .map(|r| r.expect("lane diverged"))
        .collect()
}

/// The oracle: integrate each model solo and as a lane of one batch, under
/// identical options and initial states, and require bitwise-equal traces.
fn assert_lanes_match_solo<M>(models: Vec<M>, x0s: Vec<Vec<f64>>, duration_s: f64)
where
    M: LaneSystem + Clone,
{
    let opts = shared_opts(&models, duration_s);
    let lanes = run(models.clone(), &x0s, duration_s, &opts);
    assert_eq!(lanes.len(), models.len());
    for ((m, x0), lane) in models.into_iter().zip(&x0s).zip(&lanes) {
        let solo = run(vec![m], std::slice::from_ref(x0), duration_s, &opts);
        assert_eq!(
            trace_bits(lane),
            trace_bits(&solo[0]),
            "lane x0={x0:?} must match its solo run bit-for-bit"
        );
    }
}

/// Batch-width invariance: integrating the first `narrow` models as a small
/// batch must reproduce, bit-for-bit, the same lanes of the full batch.
fn assert_width_invariant<M>(models: Vec<M>, x0s: Vec<Vec<f64>>, narrow: usize, duration_s: f64)
where
    M: LaneSystem + Clone,
{
    let opts = shared_opts(&models, duration_s);
    let wide = run(models.clone(), &x0s, duration_s, &opts);
    let thin = run(models[..narrow].to_vec(), &x0s[..narrow], duration_s, &opts);
    for (lane, (a, b)) in thin.iter().zip(&wide).enumerate() {
        assert_eq!(
            trace_bits(a),
            trace_bits(b),
            "lane {lane} must not depend on batch width"
        );
    }
}

/// Install the lanes' joint flow partition on every model and reduce every
/// initial state to it — what `try_integrate_classes` does internally.
fn reduce_lanes<M: FlowClassSystem>(
    mut models: Vec<M>,
    x0s: &[Vec<f64>],
    expect_classes: usize,
) -> (Vec<M>, Vec<Vec<f64>>) {
    let layout = models[0].layout();
    let states: Vec<&[f64]> = x0s.iter().map(Vec::as_slice).collect();
    let classes = FlowClasses::partition(layout, &states, |_, _| {});
    assert_eq!(classes.len(), expect_classes, "joint partition size");
    for m in &mut models {
        *m.classes_mut() = classes.clone();
    }
    let reduced = x0s.iter().map(|x0| classes.reduce(layout, x0)).collect();
    (models, reduced)
}

/// The three reduced-lane contracts for one protocol: reduced lanes expand
/// to exactly the full-width lanes, match their solo (reduced) runs, and do
/// not depend on the batch width.
fn assert_reduced_lane_contracts<M>(
    models: Vec<M>,
    x0s: Vec<Vec<f64>>,
    expect_classes: usize,
    duration_s: f64,
) where
    M: FlowClassSystem + Clone,
{
    let opts = shared_opts(&models, duration_s);
    let full = run(models.clone(), &x0s, duration_s, &opts);
    let expanded = try_integrate_classes(&mut models.clone(), &x0s, 0.0, duration_s, &opts)
        .expect("valid batch configuration");
    for (lane, (wide, narrow)) in full.iter().zip(expanded).enumerate() {
        assert_eq!(
            trace_bits(&narrow.expect("lane diverged")),
            trace_bits(wide),
            "lane {lane}: the expanded reduced lane must equal the full-width lane"
        );
    }
    let (reduced_models, reduced_x0s) = reduce_lanes(models, &x0s, expect_classes);
    assert_lanes_match_solo(reduced_models.clone(), reduced_x0s.clone(), duration_s);
    assert_width_invariant(reduced_models, reduced_x0s, 4, duration_s);
}

/// Move the second half of every lane's flows to `factor` × their block, so
/// the joint partition has two classes.
fn split_in_two(x0s: &mut [Vec<f64>], layout: FlowLayout, factor: f64) {
    for x0 in x0s {
        let n = (x0.len() - layout.shared) / layout.per_flow;
        for v in &mut x0[layout.dim(n / 2)..] {
            *v *= factor;
        }
    }
}

// --- DCQCN -----------------------------------------------------------------

/// 16 DCQCN configs sharing flow count and derived step but sweeping the
/// RED profile (which the step derivation never reads).
fn dcqcn_models(b: usize) -> Vec<DcqcnFluid> {
    (0..b)
        .map(|i| {
            let mut p = DcqcnParams::default_40g();
            p.kmax_kb = 200.0 + 100.0 * i as f64;
            DcqcnFluid::new(p, 4)
        })
        .collect()
}

#[test]
fn dcqcn_batch_of_one_matches_simulate() {
    // The public entry points themselves: `simulate_batch` at B = 1 against
    // `simulate`, no shared scaffolding between the two call sites.
    let duration = 0.004;
    let mut scalar = DcqcnFluid::new(DcqcnParams::default_40g(), 4);
    let solo = scalar.simulate(duration);
    let batched = DcqcnFluid::simulate_batch(vec![scalar.clone()], duration)
        .pop()
        .unwrap()
        .expect("lane diverged");
    assert_eq!(trace_bits(&batched), trace_bits(&solo));
}

#[test]
fn dcqcn_batch_width_invariant_b4_vs_b16() {
    let duration = 0.003;
    let models = dcqcn_models(16);
    let wide = DcqcnFluid::simulate_batch(models.clone(), duration);
    let thin = DcqcnFluid::simulate_batch(models[..4].to_vec(), duration);
    for (lane, (a, b)) in thin.iter().zip(&wide).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            trace_bits(a),
            trace_bits(b),
            "DCQCN lane {lane} must not depend on batch width"
        );
    }
}

/// The protocol's start, as `simulate`/`simulate_batch` build it.
fn dcqcn_line_rate_start(m: &DcqcnFluid) -> Vec<f64> {
    let mut x0 = vec![0.0; m.state_dim()];
    for i in 0..m.n_flows {
        x0[m.rc_index(i)] = m.params.capacity_pps();
        x0[m.rt_index(i)] = m.params.capacity_pps();
        x0[m.alpha_index(i)] = 1.0;
    }
    x0
}

#[test]
fn dcqcn_reduced_lanes() {
    let models = dcqcn_models(16);
    let mut x0s: Vec<Vec<f64>> = models.iter().map(dcqcn_line_rate_start).collect();
    assert_reduced_lane_contracts(models.clone(), x0s.clone(), 1, 0.0015);
    split_in_two(&mut x0s, models[0].layout(), 0.5);
    assert_reduced_lane_contracts(models, x0s, 2, 0.0015);
}

#[test]
fn dcqcn_simulate_batch_matches_full_width_lanes() {
    // The public entry point reduces internally; a batch of fresh models
    // (identity partition) from the same line-rate start is the reference.
    let duration = 0.002;
    let models = dcqcn_models(4);
    let x0s: Vec<Vec<f64>> = models.iter().map(dcqcn_line_rate_start).collect();
    let step = (models[0].params.feedback_delay_s() / 4.0).min(1e-6);
    let opts = DdeOptions {
        step,
        record_every: 1,
        history_horizon_s: models[0].params.feedback_delay_s() * 4.0 + 10.0 * step,
    };
    let full = run(models.clone(), &x0s, duration, &opts);
    let reduced = DcqcnFluid::simulate_batch(models, duration);
    for (lane, (a, b)) in reduced.iter().zip(&full).enumerate() {
        assert_eq!(
            trace_bits(a.as_ref().unwrap()),
            trace_bits(b),
            "DCQCN lane {lane}: simulate_batch must equal the full-width batch"
        );
    }
}

// --- TIMELY ----------------------------------------------------------------

fn timely_setup(b: usize) -> (Vec<TimelyFluid>, Vec<Vec<f64>>) {
    let models: Vec<TimelyFluid> = (0..b)
        .map(|_| TimelyFluid::new(TimelyParams::default_10g(), TimelyLaw::Original, 4))
        .collect();
    let x0s = models
        .iter()
        .enumerate()
        .map(|(lane, m)| {
            let mut x0 = vec![0.0; m.state_dim()];
            // Distinct per-lane starting rates around the fair share.
            let r0 = m.params.capacity_pps() / m.n_flows as f64;
            for i in 0..m.n_flows {
                x0[m.rate_index(i)] = r0 * (0.8 + 0.05 * lane as f64);
            }
            x0
        })
        .collect();
    (models, x0s)
}

#[test]
fn timely_batch_lane_matches_scalar() {
    let (models, x0s) = timely_setup(3);
    assert_lanes_match_solo(models, x0s, 0.002);
}

#[test]
fn timely_batch_width_invariant() {
    let (models, x0s) = timely_setup(16);
    assert_width_invariant(models, x0s, 4, 0.0015);
}

#[test]
fn timely_reduced_lanes() {
    let (models, mut x0s) = timely_setup(16);
    assert_reduced_lane_contracts(models.clone(), x0s.clone(), 1, 0.0015);
    split_in_two(&mut x0s, models[0].layout(), 0.5);
    assert_reduced_lane_contracts(models, x0s, 2, 0.0015);
}

// --- patched TIMELY --------------------------------------------------------

fn patched_timely_setup(b: usize) -> (Vec<TimelyFluid>, Vec<Vec<f64>>) {
    let models: Vec<TimelyFluid> = (0..b).map(|_| TimelyFluid::patched_10g(4)).collect();
    let x0s = models
        .iter()
        .enumerate()
        .map(|(lane, m)| {
            let mut x0 = vec![0.0; m.state_dim()];
            let r0 = m.params.capacity_pps() / m.n_flows as f64;
            for i in 0..m.n_flows {
                x0[m.rate_index(i)] = r0 * (0.85 + 0.04 * lane as f64);
            }
            x0
        })
        .collect();
    (models, x0s)
}

#[test]
fn patched_timely_batch_lane_matches_scalar() {
    let (models, x0s) = patched_timely_setup(3);
    assert_lanes_match_solo(models, x0s, 0.002);
}

#[test]
fn patched_timely_batch_width_invariant() {
    let (models, x0s) = patched_timely_setup(16);
    assert_width_invariant(models, x0s, 4, 0.0015);
}

#[test]
fn patched_timely_reduced_lanes() {
    let (models, mut x0s) = patched_timely_setup(16);
    assert_reduced_lane_contracts(models.clone(), x0s.clone(), 1, 0.0015);
    split_in_two(&mut x0s, models[0].layout(), 0.5);
    assert_reduced_lane_contracts(models, x0s, 2, 0.0015);
}

// --- DCQCN + PI ------------------------------------------------------------

fn dcqcn_pi_setup(b: usize) -> (Vec<DcqcnFluid>, Vec<Vec<f64>>) {
    let models: Vec<DcqcnFluid> = (0..b)
        .map(|i| DcqcnFluid::pi(DcqcnParams::default_40g(), 100.0 + 20.0 * i as f64, 4))
        .collect();
    let x0s = models
        .iter()
        .map(|m| {
            let line = m.params.capacity_pps();
            let mut x0 = vec![0.0; m.state_dim()];
            for i in 0..m.n_flows {
                x0[m.rc_index(i)] = line;
                x0[m.rt_index(i)] = line;
                x0[m.alpha_index(i)] = 1.0;
            }
            x0
        })
        .collect();
    (models, x0s)
}

#[test]
fn dcqcn_pi_batch_lane_matches_scalar() {
    let (models, x0s) = dcqcn_pi_setup(3);
    assert_lanes_match_solo(models, x0s, 0.002);
}

#[test]
fn dcqcn_pi_batch_width_invariant() {
    let (models, x0s) = dcqcn_pi_setup(16);
    assert_width_invariant(models, x0s, 4, 0.001);
}

#[test]
fn dcqcn_pi_reduced_lanes() {
    let (models, mut x0s) = dcqcn_pi_setup(16);
    assert_reduced_lane_contracts(models.clone(), x0s.clone(), 1, 0.001);
    split_in_two(&mut x0s, models[0].layout(), 0.5);
    assert_reduced_lane_contracts(models, x0s, 2, 0.001);
}

// --- patched TIMELY + PI ---------------------------------------------------

fn patched_timely_pi_setup(b: usize) -> (Vec<TimelyFluid>, Vec<Vec<f64>>) {
    let models: Vec<TimelyFluid> = (0..b)
        .map(|_| TimelyFluid::patched_pi_10g(300.0, 4))
        .collect();
    let x0s = models
        .iter()
        .enumerate()
        .map(|(lane, m)| {
            let mut x0 = vec![0.0; m.state_dim()];
            let r0 = m.params.capacity_pps() / m.n_flows as f64;
            for i in 0..m.n_flows {
                x0[m.rate_index(i)] = r0 * (0.9 + 0.02 * lane as f64);
                x0[m.p_index(i)] = 0.3;
            }
            x0
        })
        .collect();
    (models, x0s)
}

#[test]
fn patched_timely_pi_batch_lane_matches_scalar() {
    let (models, x0s) = patched_timely_pi_setup(3);
    assert_lanes_match_solo(models, x0s, 0.002);
}

#[test]
fn patched_timely_pi_batch_width_invariant() {
    let (models, x0s) = patched_timely_pi_setup(16);
    assert_width_invariant(models, x0s, 4, 0.001);
}

#[test]
fn patched_timely_pi_reduced_lanes() {
    let (models, mut x0s) = patched_timely_pi_setup(16);
    assert_reduced_lane_contracts(models.clone(), x0s.clone(), 1, 0.001);
    split_in_two(&mut x0s, models[0].layout(), 0.5);
    assert_reduced_lane_contracts(models, x0s, 2, 0.001);
}

// --- divergence isolation --------------------------------------------------

/// A one-component exponential `x' = g·x`. Every protocol model projects
/// its state into a bounded box, so real lanes cannot trip the watchdog;
/// this synthetic lane is how the divergence contract is exercised (the
/// `ext_faults` watchdog sweep uses the same `gain = 4000/s` convention).
#[derive(Clone)]
struct Exponential {
    gain_per_s: f64,
}

impl LaneSystem for Exponential {
    fn lane_dim(&self) -> usize {
        1
    }

    fn lane_rhs(
        &mut self,
        _t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        _hist: &fluid::History,
        dxdt: &mut [f64],
    ) {
        let c = lane_of(0, lane, stride);
        dxdt[c] = self.gain_per_s * x[c];
    }

    fn min_delay(&self) -> f64 {
        f64::INFINITY
    }
}

#[test]
fn poisoned_lane_fails_alone() {
    // A lane driven past the watchdog norm must come back as
    // `Err(Divergence)` while its batchmates' traces stay bit-identical to
    // a batch that never contained it.
    let duration = 0.01; // gain 4000/s crosses the 1e12 watchdog by ~6.9 ms
    let lanes = |gains: &[f64]| {
        let mut models: Vec<Exponential> = gains
            .iter()
            .map(|&g| Exponential { gain_per_s: g })
            .collect();
        let x0s: Vec<Vec<f64>> = gains.iter().map(|_| vec![1.0]).collect();
        let opts = DdeOptions {
            step: 1e-5,
            record_every: 1,
            history_horizon_s: 1e-3,
        };
        try_integrate(&mut models, &pack_lanes(&x0s), 0.0, duration, &opts)
            .expect("valid batch configuration")
    };
    let mixed = lanes(&[-5.0, 4000.0, -9.0]);
    assert!(
        mixed[1].is_err(),
        "poisoned lane must report divergence, got Ok"
    );
    assert!(mixed[0].is_ok() && mixed[2].is_ok());
    let healthy = lanes(&[-5.0, -9.0]);
    assert_eq!(
        trace_bits(mixed[0].as_ref().unwrap()),
        trace_bits(healthy[0].as_ref().unwrap()),
        "healthy lane 0 must be unaffected by a diverging batchmate"
    );
    assert_eq!(
        trace_bits(mixed[2].as_ref().unwrap()),
        trace_bits(healthy[1].as_ref().unwrap()),
        "healthy lane 2 must be unaffected by a diverging batchmate"
    );
}
