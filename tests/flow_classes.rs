//! Flow-class reduction is invisible in the output: for every fluid model,
//! integrating one representative per class of bitwise-identical flows
//! (`fluid::classes`) produces, bit for bit, the trace of the same run under
//! the identity partition a fresh model holds (every flow stepped on its
//! own) — symmetric starts, two-class starts, fully asymmetric starts,
//! jittered feedback, and a divergence's time and step.

use ecn_delay::desim::rng::SimRng;
use ecn_delay::fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use ecn_delay::fluid::dde::{lane_of, try_integrate, DdeOptions, LaneSystem};
use ecn_delay::fluid::{History, Trace};
use ecn_delay::models::dcqcn::{DcqcnFluid, DcqcnParams, Marking};
use ecn_delay::models::jitter::Jitter;
use ecn_delay::models::{TimelyFluid, TimelyLaw, TimelyParams};
use faults::SimError;

/// Every recorded knot of a trace, as raw bits: `t` then the state row.
fn trace_bits(tr: &Trace) -> Vec<u64> {
    let mut bits = Vec::with_capacity(tr.len() * (tr.dim() + 1));
    for (i, &t) in tr.times().iter().enumerate() {
        bits.push(t.to_bits());
        bits.extend(tr.state(i).iter().map(|v| v.to_bits()));
    }
    bits
}

/// A step below the model's smallest delay, an odd record cadence (so the
/// forced final record differs from a cadence hit), and the given history
/// horizon (longer than any lookback the model makes in the run).
fn opts<S: LaneSystem>(sys: &S, horizon_s: f64) -> DdeOptions {
    DdeOptions {
        step: (sys.min_delay() / 4.0).min(1e-6),
        record_every: 7,
        history_horizon_s: horizon_s,
    }
}

/// The one lane of a one-lane run, or its error.
fn lane0(run: Result<Vec<Result<Trace, SimError>>, SimError>) -> Result<Trace, SimError> {
    run.and_then(|mut lanes| lanes.remove(0))
}

/// Integrate `sys` from `x0` under its own flow partition (which must have
/// `expect_classes` classes) and, as built, under the identity partition;
/// the two N-flow traces must be bitwise equal.
fn assert_reduction_invisible<S>(sys: &S, x0: &[f64], expect_classes: usize, opts: &DdeOptions)
where
    S: FlowClassSystem + Clone,
{
    let duration_s = 0.003;
    assert_eq!(
        sys.flow_classes(x0).len(),
        expect_classes,
        "classes of {x0:?}"
    );
    let reduced = lane0(try_integrate_classes(
        &mut [sys.clone()],
        &[x0.to_vec()],
        0.0,
        duration_s,
        opts,
    ))
    .expect("reduced run");
    let full =
        lane0(try_integrate(&mut [sys.clone()], x0, 0.0, duration_s, opts)).expect("identity run");
    assert_eq!(
        reduced.dim(),
        x0.len(),
        "trace comes back in the N-flow layout"
    );
    assert_eq!(trace_bits(&reduced), trace_bits(&full));
}

/// Per-flow scale factors for the three starts every model is tested from.
fn symmetric(n: usize) -> Vec<f64> {
    vec![1.0; n]
}
fn two_classes(n: usize) -> Vec<f64> {
    (0..n).map(|i| if i < n / 2 { 1.0 } else { 0.4 }).collect()
}
fn asymmetric(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect()
}

// --- DCQCN -----------------------------------------------------------------

/// The DCQCN family's start: `shared` zero components (queue, and PI's `p`),
/// then `(R_C, R_T, α) = (f·line, f·line, 1)` per flow.
fn line_rate_x0(shared: usize, line_pps: f64, scale: &[f64]) -> Vec<f64> {
    let mut x0 = vec![0.0; shared];
    for &f in scale {
        x0.extend([line_pps * f, line_pps * f, 1.0]);
    }
    x0
}

fn dcqcn_x0(m: &DcqcnFluid, scale: &[f64]) -> Vec<f64> {
    line_rate_x0(1, m.params.capacity_pps(), scale)
}

#[test]
fn dcqcn_reduction_is_invisible() {
    let m = DcqcnFluid::new(DcqcnParams::default_40g(), 64);
    let o = opts(&m, 40e-6);
    assert_reduction_invisible(&m, &dcqcn_x0(&m, &symmetric(64)), 1, &o);
    assert_reduction_invisible(&m, &dcqcn_x0(&m, &two_classes(64)), 2, &o);
    let m = DcqcnFluid::new(DcqcnParams::default_40g(), 6);
    assert_reduction_invisible(&m, &dcqcn_x0(&m, &asymmetric(6)), 6, &o);
}

#[test]
fn dcqcn_reduction_is_invisible_under_jitter() {
    // Jitter is one shared process: it moves the delayed instant of every
    // flow alike and stays outside the partition key.
    let m = DcqcnFluid::new(DcqcnParams::default_40g(), 16)
        .with_jitter(Jitter::uniform(20e-6, 10e-6, 7));
    let o = opts(&m, 120e-6);
    assert_reduction_invisible(&m, &dcqcn_x0(&m, &symmetric(16)), 1, &o);
    assert_reduction_invisible(&m, &dcqcn_x0(&m, &two_classes(16)), 2, &o);
}

#[test]
fn dcqcn_simulate_returns_the_n_flow_layout() {
    let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 8);
    let tr = m.simulate(0.002);
    assert_eq!(tr.dim(), m.state_dim());
    for row in 0..tr.len() {
        let x = tr.state(row);
        for i in 1..8 {
            assert_eq!(x[m.rc_index(i)].to_bits(), x[m.rc_index(0)].to_bits());
            assert_eq!(x[m.alpha_index(i)].to_bits(), x[m.alpha_index(0)].to_bits());
        }
    }
    // The model is back on the identity partition: it integrates N-wide.
    assert_eq!(m.lane_dim(), m.state_dim());
}

// --- DCQCN + PI ------------------------------------------------------------

fn dcqcn_pi_x0(m: &DcqcnFluid, scale: &[f64]) -> Vec<f64> {
    line_rate_x0(2, m.params.capacity_pps(), scale)
}

fn dcqcn_pi(n: usize) -> DcqcnFluid {
    DcqcnFluid::pi(DcqcnParams::default_40g(), 100.0, n)
}

#[test]
fn dcqcn_pi_reduction_is_invisible() {
    let m = dcqcn_pi(64);
    let o = opts(&m, 40e-6);
    assert_reduction_invisible(&m, &dcqcn_pi_x0(&m, &symmetric(64)), 1, &o);
    assert_reduction_invisible(&m, &dcqcn_pi_x0(&m, &two_classes(64)), 2, &o);
    let m = dcqcn_pi(6);
    assert_reduction_invisible(&m, &dcqcn_pi_x0(&m, &asymmetric(6)), 6, &o);
}

// --- TIMELY ----------------------------------------------------------------

/// `x[1+2i] = R_i`, gradients and queue zero — TIMELY's and patched
/// TIMELY's start.
fn rates_x0(capacity_pps: f64, scale: &[f64]) -> Vec<f64> {
    let mut x0 = vec![0.0; 1 + 2 * scale.len()];
    for (i, &f) in scale.iter().enumerate() {
        x0[1 + 2 * i] = capacity_pps * f / scale.len() as f64;
    }
    x0
}

/// TIMELY-family lookbacks reach `τ′ + τ*` with `τ* = Seg/R`, milliseconds
/// at a 64th of the link: keep the whole run (the DCQCN tests cover trimmed
/// and compacted histories).
const TIMELY_HORIZON_S: f64 = 4e-3;

#[test]
fn timely_reduction_is_invisible() {
    let p = TimelyParams::default_10g();
    let c = p.capacity_pps();
    let timely = |n| TimelyFluid::new(p.clone(), TimelyLaw::Original, n);
    let m = timely(64);
    let o = opts(&m, TIMELY_HORIZON_S);
    assert_reduction_invisible(&m, &rates_x0(c, &symmetric(64)), 1, &o);
    assert_reduction_invisible(&m, &rates_x0(c, &two_classes(64)), 2, &o);
    let m = timely(6);
    assert_reduction_invisible(&m, &rates_x0(c, &asymmetric(6)), 6, &o);
    let m = timely(16).with_jitter(Jitter::uniform(20e-6, 10e-6, 3));
    assert_reduction_invisible(&m, &rates_x0(c, &two_classes(16)), 2, &o);
}

#[test]
fn timely_start_times_are_part_of_the_key() {
    // Equal rates, distinct start times: a late flow is frozen until it
    // starts, so these are distinct trajectories and must not merge.
    let p = TimelyParams::default_10g();
    let c = p.capacity_pps();
    let x0 = rates_x0(c, &symmetric(4));
    let staggered = TimelyFluid::new(p.clone(), TimelyLaw::Original, 4)
        .with_start_times(vec![0.0, 0.5e-3, 1.0e-3, 1.5e-3]);
    assert_eq!(staggered.flow_classes(&x0), FlowClasses::identity(4));
    let o = opts(&staggered, TIMELY_HORIZON_S);
    assert_reduction_invisible(&staggered, &x0, 4, &o);
    // Two flows per start time: two classes, interleaved in flow order.
    let paired = TimelyFluid::new(p, TimelyLaw::Original, 4)
        .with_start_times(vec![0.0, 1.0e-3, 0.0, 1.0e-3]);
    assert_eq!(paired.flow_classes(&x0).class_of(), &[0, 1, 0, 1]);
    assert_reduction_invisible(&paired, &x0, 2, &o);
}

// --- patched TIMELY --------------------------------------------------------

#[test]
fn patched_timely_reduction_is_invisible() {
    let m = TimelyFluid::patched_10g(64);
    let c = m.params.capacity_pps();
    let o = opts(&m, TIMELY_HORIZON_S);
    assert_reduction_invisible(&m, &rates_x0(c, &symmetric(64)), 1, &o);
    assert_reduction_invisible(&m, &rates_x0(c, &two_classes(64)), 2, &o);
    let m = TimelyFluid::patched_10g(6);
    assert_reduction_invisible(&m, &rates_x0(c, &asymmetric(6)), 6, &o);
    let m = TimelyFluid::patched_10g(16).with_jitter(Jitter::uniform(20e-6, 10e-6, 3));
    assert_reduction_invisible(&m, &rates_x0(c, &symmetric(16)), 1, &o);
    assert_reduction_invisible(&m, &rates_x0(c, &two_classes(16)), 2, &o);
}

// --- patched TIMELY + PI ---------------------------------------------------

fn patched_timely_pi_x0(m: &TimelyFluid, scale: &[f64]) -> Vec<f64> {
    let base = &m.params;
    let mut x0 = vec![0.0; m.state_dim()];
    for (i, &f) in scale.iter().enumerate() {
        let r = base.capacity_pps() * f / scale.len() as f64;
        x0[m.rate_index(i)] = r;
        x0[m.p_index(i)] = base.delta_pps() / (base.beta * r);
    }
    x0
}

#[test]
fn patched_timely_pi_reduction_is_invisible() {
    let m = TimelyFluid::patched_pi_10g(300.0, 64);
    let o = opts(&m, TIMELY_HORIZON_S);
    assert_reduction_invisible(&m, &patched_timely_pi_x0(&m, &symmetric(64)), 1, &o);
    assert_reduction_invisible(&m, &patched_timely_pi_x0(&m, &two_classes(64)), 2, &o);
    let m = TimelyFluid::patched_pi_10g(300.0, 6);
    assert_reduction_invisible(&m, &patched_timely_pi_x0(&m, &asymmetric(6)), 6, &o);
}

// --- the partition itself --------------------------------------------------

#[test]
fn partition_is_a_correct_order_stable_equivalence() {
    // Random states with planted duplicates: flows drawn from a small pool
    // of blocks, with a per-flow parameter drawn from a pool of two.
    let mut rng = SimRng::new(0x5eed);
    for _ in 0..300 {
        let layout = FlowLayout {
            shared: rng.next_below(3) as usize,
            per_flow: 1 + rng.next_below(3) as usize,
        };
        let n = 1 + rng.next_below(40) as usize;
        let pool: Vec<Vec<f64>> = (0..1 + rng.next_below(6))
            .map(|_| (0..layout.per_flow).map(|_| rng.next_f64()).collect())
            .collect();
        let mut x: Vec<f64> = (0..layout.shared).map(|_| rng.next_f64()).collect();
        for _ in 0..n {
            x.extend_from_slice(&pool[rng.next_below(pool.len() as u64) as usize]);
        }
        let params: Vec<u64> = (0..n).map(|_| rng.next_below(2)).collect();
        let key = |i: usize| -> Vec<u64> {
            let mut k: Vec<u64> = layout.block(&x, i).iter().map(|v| v.to_bits()).collect();
            k.push(params[i]);
            k
        };

        let p = FlowClasses::partition(layout, &[&x], |i, k| k.push(params[i]));
        assert_eq!(p.n_flows(), n);
        // An equivalence on exactly the key.
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    p.class_of()[i] == p.class_of()[j],
                    key(i) == key(j),
                    "flows {i}, {j}"
                );
            }
        }
        // Order-stable: a class's representative is its first member, and
        // classes are numbered in order of first appearance.
        for (k, &rep) in p.representatives().iter().enumerate() {
            assert_eq!(p.class_of()[rep], k);
            assert_eq!(p.class_of().iter().position(|&c| c == k), Some(rep));
        }
        assert!(p.representatives().windows(2).all(|w| w[0] < w[1]));
        // Reduce, then expand, is the identity on a state row.
        let mut reduced = Trace::new(layout.dim(p.len()));
        reduced.push(0.0, &p.reduce(layout, &x));
        assert_eq!(p.expand(layout, reduced).state(0), &x[..]);
    }
}

// --- divergence ------------------------------------------------------------

/// `dx_i/dt = gain · x_i(t − d) + s`, `ds/dt = Σ x_i − s`: explodes for a
/// large gain. Every protocol model projects its state into a bounded box,
/// so this synthetic system is how a mid-run watchdog trip is exercised at
/// both widths.
#[derive(Clone)]
struct Explosive {
    gain_per_s: f64,
    classes: FlowClasses,
}

const EXPLOSIVE_LAYOUT: FlowLayout = FlowLayout {
    shared: 1,
    per_flow: 1,
};

impl LaneSystem for Explosive {
    fn lane_dim(&self) -> usize {
        EXPLOSIVE_LAYOUT.dim(self.classes.len())
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
        let at = |c: usize| lane_of(c, lane, stride);
        let sum: f64 = self.classes.class_of().iter().map(|&k| x[at(1 + k)]).sum();
        dxdt[at(0)] = sum - x[at(0)];
        for k in 0..self.classes.len() {
            dxdt[at(1 + k)] = self.gain_per_s * hist.eval(t - 1e-4, at(1 + k)) + x[at(0)];
        }
    }
    fn min_delay(&self) -> f64 {
        1e-4
    }
}

impl FlowClassSystem for Explosive {
    fn layout(&self) -> FlowLayout {
        EXPLOSIVE_LAYOUT
    }
    fn classes_mut(&mut self) -> &mut FlowClasses {
        &mut self.classes
    }
}

fn divergence_fields(e: SimError) -> (u64, u64, u64, u64) {
    let SimError::Divergence {
        t_s,
        state_norm,
        last_step_s,
        step,
        ..
    } = e
    else {
        panic!("expected divergence, got {e}");
    };
    (
        t_s.to_bits(),
        state_norm.to_bits(),
        last_step_s.to_bits(),
        step,
    )
}

#[test]
fn divergence_is_reported_identically_at_both_widths() {
    let sys = Explosive {
        gain_per_s: 4000.0,
        classes: FlowClasses::identity(6),
    };
    let x0 = [0.0, 1.0, 1.0, 3.0, 1.0, 3.0, 1.0];
    let o = DdeOptions {
        step: 1e-5,
        record_every: 1,
        history_horizon_s: 1e-3,
    };
    assert_eq!(sys.flow_classes(&x0).len(), 2);
    let reduced = lane0(try_integrate_classes(
        &mut [sys.clone()],
        &[x0.to_vec()],
        0.0,
        0.05,
        &o,
    ))
    .expect_err("gain 4000/s crosses the watchdog norm within the window");
    let full = lane0(try_integrate(&mut [sys], &x0, 0.0, 0.05, &o))
        .expect_err("diverges at full width too");
    let (t_bits, norm_bits, h_bits, step) = divergence_fields(reduced);
    assert!(step > 100, "tripped mid-run, at step {step}");
    assert_eq!((t_bits, norm_bits, h_bits, step), divergence_fields(full));
}

#[test]
fn poisoned_gain_trips_a_real_model_identically_at_both_widths() {
    // A NaN gain survives the model's clamps (NaN.clamp is NaN), so the
    // watchdog fires on the first step, reduced or not.
    let mut m = dcqcn_pi(8);
    if let Marking::Pi(gains) = &mut m.marking {
        gains.k2 = f64::NAN;
    }
    let x0 = dcqcn_pi_x0(&m, &two_classes(8));
    let o = opts(&m, 40e-6);
    let x0s = std::slice::from_ref(&x0);
    let reduced =
        lane0(try_integrate_classes(&mut [m.clone()], x0s, 0.0, 1e-3, &o)).expect_err("NaN state");
    let full = lane0(try_integrate(&mut [m], &x0, 0.0, 1e-3, &o)).expect_err("NaN state");
    let (t_bits, _, h_bits, step) = divergence_fields(reduced);
    assert_eq!(step, 1);
    let (t_full, _, h_full, step_full) = divergence_fields(full);
    assert_eq!((t_bits, h_bits, step), (t_full, h_full, step_full));
}
