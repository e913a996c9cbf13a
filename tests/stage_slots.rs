//! The integrators' stage slots (`fluid::stage`) are invisible in the
//! output: a DCQCN-family run that builds what it derives from delayed state
//! once per stage *instant* (two phase-one fills per step) produces, bit for
//! bit, the trace of the run that rebuilds it on all four RK4 stages.
//!
//! Checked three ways. Model traces hash to the digests the code *before*
//! the slots produced (recorded at dfaf7ee). A run through [`Unslotted`], a
//! wrapper that hides the opt-in and so refills on every stage, equals the
//! slotted run. And a synthetic constant-delay system whose stage-4 lookup
//! lands at or past the history's back knot shows the `end → start`
//! hand-over refilling after the push instead of reusing a clamped answer.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ecn_delay::fluid::batch::{lane_of, pack_lanes, try_integrate_dde_batch, LaneBatch};
use ecn_delay::fluid::classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
use ecn_delay::fluid::dde::{try_integrate_dde, DdeOptions};
use ecn_delay::fluid::{History, LaneSystem, StageInstant, StagedLane, Stages, Trace};
use ecn_delay::models::dcqcn::{DcqcnFluid, DcqcnParams};
use ecn_delay::models::jitter::Jitter;
use ecn_delay::models::pi::DcqcnPiFluid;
use ecn_delay::models::{TimelyFluid, TimelyParams};
use faults::SimError;

const DURATION_S: f64 = 0.003;
const FLOWS: usize = 10;

/// FNV-1a over every recorded knot: the bits of `t`, then of the state row.
fn trace_digest(tr: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, &t) in tr.times().iter().enumerate() {
        eat(t);
        tr.state(i).iter().copied().for_each(&mut eat);
    }
    h
}

/// Hides a lane kernel's opt-in to the stage slots: the integrators see a
/// system that keeps the default `rhs_at` / `lanes_rhs_at`, call its unsplit
/// kernel on every stage, and so rebuild the delayed terms four times a step.
#[derive(Clone)]
struct Unslotted<M>(M);

impl<M: LaneSystem> LaneSystem for Unslotted<M> {
    fn lane_dim(&self) -> usize {
        self.0.lane_dim()
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
        self.0.lane_rhs(t, x, lane, stride, hist, dxdt);
    }
    fn min_delay(&self) -> f64 {
        LaneSystem::min_delay(&self.0)
    }
    fn lane_project(&mut self, t: f64, x: &mut [f64], lane: usize, stride: usize) {
        self.0.lane_project(t, x, lane, stride);
    }
}

impl<M: FlowClassSystem + LaneSystem> FlowClassSystem for Unslotted<M> {
    fn layout(&self) -> FlowLayout {
        self.0.layout()
    }
    fn flow_param_bits(&self, i: usize, key: &mut Vec<u64>) {
        self.0.flow_param_bits(i, key);
    }
    fn classes_mut(&mut self) -> &mut FlowClasses {
        self.0.classes_mut()
    }
}

/// The `obs` counters are process-global and every integration adds to them
/// while they are on: the tests of this file take turns.
fn metrics_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` with the metrics on (the caller holds [`metrics_turn`]); returns
/// its value, the completed steps and the phase-one fills.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    obs::reset();
    obs::enable(obs::METRICS);
    let out = f();
    obs::disable(obs::METRICS);
    let steps = obs::metrics::counter_value("fluid.dde_steps");
    let fills = obs::metrics::counter_value("fluid.delayed_evals");
    obs::reset();
    (out, steps, fills)
}

// --- the models, against the parent code's digests ---------------------------

/// Four DCQCN configurations that share the 1 µs lockstep step: the two
/// Figure 4 delays, each also with another gain / RED profile.
fn lane_params() -> [DcqcnParams; 4] {
    let base = DcqcnParams::default_40g();
    let mut slow = base.clone();
    slow.feedback_delay_us = 85.0;
    let mut gentle = base.clone();
    gentle.r_ai_mbps = 10.0;
    let mut deep = slow.clone();
    deep.kmax_kb = 1000.0;
    [base, slow, gentle, deep]
}

/// `simulate` of each [`lane_params`] configuration, at dfaf7ee.
const LANE_DIGESTS: [u64; 4] = [
    0x112f_d2a0_b8e6_ff2e,
    0xc458_5c21_0fba_c6c5,
    0xb549_4ca8_e45f_f6c3,
    0xfc8f_1e5a_080a_f261,
];

#[test]
fn dcqcn_scalar_runs_match_the_parent_digests() {
    let _turn = metrics_turn();
    for (p, pinned) in lane_params().into_iter().zip(LANE_DIGESTS) {
        let delay_us = p.feedback_delay_us;
        let (trace, steps, fills) = counted(|| DcqcnFluid::new(p, FLOWS).simulate(DURATION_S));
        let digest = trace_digest(&trace);
        assert_eq!(digest, pinned, "{delay_us} µs: digest {digest:#018x}");
        // `mid` once, `end` once, handed to the next `start`; the first
        // steps' delayed instants fall in the pre-history and refill.
        assert!(
            fills > 2 * steps && fills <= 2 * steps + 1 + 100,
            "{delay_us} µs: {fills} fills over {steps} steps"
        );
    }
}

#[test]
fn dcqcn_batch_lanes_match_the_parent_digests() {
    let _turn = metrics_turn();
    // B = 4 with mixed 4 µs / 85 µs lanes: no two neighbours share a
    // delayed instant, so every lane reads its own strided row.
    let lanes: Vec<DcqcnFluid> = lane_params()
        .into_iter()
        .map(|p| DcqcnFluid::new(p, FLOWS))
        .collect();
    let (results, steps, fills) = counted(|| DcqcnFluid::simulate_batch(lanes, DURATION_S));
    for (lane, (result, pinned)) in results.into_iter().zip(LANE_DIGESTS).enumerate() {
        let digest = trace_digest(&result.expect("stable lane"));
        assert_eq!(digest, pinned, "lane {lane}: digest {digest:#018x}");
    }
    assert!(
        fills > 4 * 2 * steps && fills <= 4 * (2 * steps + 1 + 100),
        "{fills} fills over {steps} steps of 4 lanes"
    );

    // B = 1 is the scalar run.
    let [_, slow, ..] = lane_params();
    let solo = DcqcnFluid::simulate_batch(vec![DcqcnFluid::new(slow, FLOWS)], DURATION_S);
    let digest = trace_digest(solo[0].as_ref().expect("stable lane"));
    assert_eq!(digest, LANE_DIGESTS[1], "B = 1: digest {digest:#018x}"); // the 85 µs lane
}

#[test]
fn jittered_dcqcn_matches_the_parent_digest() {
    let _turn = metrics_turn();
    // The jitter moves the delayed instant from window to window, but it is
    // a function of `t`: the slots still fill twice a step.
    let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 2)
        .with_jitter(Jitter::uniform(100e-6, 20e-6, 7));
    let (trace, steps, fills) = counted(|| m.simulate(DURATION_S));
    let digest = trace_digest(&trace);
    assert_eq!(digest, 0x98a9_4ad0_fa6e_aa96, "digest {digest:#018x}");
    assert!(
        fills > 2 * steps && fills <= 2 * steps + 1 + 200,
        "{fills} fills over {steps} steps"
    );
}

#[test]
fn dcqcn_pi_matches_the_parent_digest() {
    let _turn = metrics_turn();
    let params = DcqcnParams::default_40g();
    let gains = DcqcnPiFluid::default_gains(&params, 100.0);
    let mut m = DcqcnPiFluid::new(params, gains, FLOWS);
    let (trace, steps, fills) = counted(|| m.simulate(DURATION_S));
    let digest = trace_digest(&trace);
    assert_eq!(digest, 0x0315_9631_d422_96b1, "digest {digest:#018x}");
    assert!(
        fills > 2 * steps && fills <= 2 * steps + 1 + 100,
        "{fills} fills over {steps} steps"
    );
}

#[test]
fn timely_never_fills_a_slot() {
    let _turn = metrics_turn();
    // Eq 24's delay depends on the stage's own queue: no opt-in, and a zero
    // count leaves the counter unregistered.
    let params = TimelyParams::default_10g();
    let rates = vec![params.capacity_pps() / 2.0; 2];
    let (_, steps, fills) =
        counted(|| TimelyFluid::new(params, 2).simulate_with_rates(&rates, 0.001));
    assert!(steps > 0);
    assert_eq!(fills, 0);
}

// --- slotted against refill-on-every-stage -----------------------------------

/// `(R_C, R_T, α) = (f·line, f·line, 1)` per flow behind `shared` zeros,
/// with three distinct scale factors: three flow classes.
fn three_class_start(shared: usize, line_pps: f64, n_flows: usize) -> Vec<f64> {
    let mut x0 = vec![0.0; shared];
    for i in 0..n_flows {
        let f = 1.0 / (1.0 + (i / 2) as f64);
        x0.extend([line_pps * f, line_pps * f, 1.0]);
    }
    x0
}

fn opts(horizon_s: f64) -> DdeOptions {
    DdeOptions {
        step: 1e-6,
        record_every: 7,
        history_horizon_s: horizon_s,
    }
}

/// Integrate `sys` and its [`Unslotted`] twin from `x0` under `sys`'s own
/// flow partition; the traces must be bitwise equal. Returns the trace.
fn assert_slots_invisible<S>(sys: &S, x0: &[f64], opts: &DdeOptions) -> Trace
where
    S: FlowClassSystem + LaneSystem + Clone,
{
    let classes = sys.flow_classes(x0);
    let slotted =
        try_integrate_classes(&mut sys.clone(), classes.clone(), x0, 0.0, DURATION_S, opts)
            .expect("slotted run");
    let refilled = try_integrate_classes(
        &mut Unslotted(sys.clone()),
        classes,
        x0,
        0.0,
        DURATION_S,
        opts,
    )
    .expect("refilling run");
    assert_eq!(trace_digest(&slotted), trace_digest(&refilled));
    slotted
}

#[test]
fn dcqcn_slots_are_invisible() {
    let _turn = metrics_turn();
    let m = DcqcnFluid::new(DcqcnParams::default_40g(), 6);
    let x0 = three_class_start(1, m.params.capacity_pps(), 6);
    let trace = assert_slots_invisible(&m, &x0, &opts(40e-6));
    let digest = trace_digest(&trace);
    assert_eq!(
        digest, 0xd06d_1b01_965d_5108,
        "three-class start moved off the parent run: digest {digest:#018x}"
    );

    let [_, slow, ..] = lane_params();
    let m = DcqcnFluid::new(slow, 6);
    assert_slots_invisible(&m, &x0, &opts(400e-6));
}

#[test]
fn jittered_dcqcn_slots_are_invisible() {
    let _turn = metrics_turn();
    let m = DcqcnFluid::new(DcqcnParams::default_40g(), 6)
        .with_jitter(Jitter::uniform(100e-6, 20e-6, 7));
    let x0 = three_class_start(1, m.params.capacity_pps(), 6);
    assert_slots_invisible(&m, &x0, &opts(500e-6));
}

#[test]
fn dcqcn_pi_slots_are_invisible() {
    let _turn = metrics_turn();
    let params = DcqcnParams::default_40g();
    let gains = DcqcnPiFluid::default_gains(&params, 100.0);
    let m = DcqcnPiFluid::new(params, gains, 6);
    let x0 = three_class_start(2, m.params.capacity_pps(), 6);
    assert_slots_invisible(&m, &x0, &opts(40e-6));
}

/// Integrate `models` as one batch from full-width starts.
fn run_batch<M: LaneSystem>(
    models: Vec<M>,
    x0s: &[Vec<f64>],
    duration_s: f64,
    opts: &DdeOptions,
) -> Vec<Result<Trace, SimError>> {
    let packed = pack_lanes(x0s);
    let mut batch = LaneBatch::new(models);
    try_integrate_dde_batch(&mut batch, &packed, &packed, 0.0, duration_s, opts)
        .expect("valid batch configuration")
}

#[test]
fn dcqcn_batch_slots_are_invisible() {
    let _turn = metrics_turn();
    // Mixed delays (per-lane strided reads) and one shared delay (the block
    // row read once for all lanes), each against the refilling batch.
    let mixed = lane_params().to_vec();
    let shared = vec![lane_params()[0].clone(); 3]; // three 4 µs lanes
    for params in [mixed, shared] {
        let models: Vec<DcqcnFluid> = params.into_iter().map(|p| DcqcnFluid::new(p, 6)).collect();
        let x0s: Vec<Vec<f64>> = (0..models.len())
            .map(|l| {
                let line = models[l].params.capacity_pps() / (1.0 + l as f64);
                three_class_start(1, line, 6)
            })
            .collect();
        let o = opts(400e-6);
        let slotted = run_batch(models.clone(), &x0s, DURATION_S, &o);
        let refilled = run_batch(
            models.into_iter().map(Unslotted).collect(),
            &x0s,
            DURATION_S,
            &o,
        );
        for (lane, (a, b)) in slotted.iter().zip(&refilled).enumerate() {
            assert_eq!(
                trace_digest(a.as_ref().expect("stable lane")),
                trace_digest(b.as_ref().expect("stable lane")),
                "lane {lane}"
            );
        }
    }
}

// --- the hand-over rule, on a synthetic system --------------------------------

/// `dx₀/dt = g·x₁(t − d) − 30·x₀`, `dx₁/dt = g·x₀(t − d) − 10·x₁`: a
/// constant-delay lane kernel that opts in to the stage slots. Its reported
/// minimum delay is a separate field so that a test can put the true delay
/// an ulp *below* the step the integrator accepts.
#[derive(Clone)]
struct Lag {
    gain_per_s: f64,
    delay_s: f64,
    reported_min_delay_s: f64,
}

impl Lag {
    fn new(gain_per_s: f64, delay_s: f64) -> Self {
        Lag {
            gain_per_s,
            delay_s,
            reported_min_delay_s: delay_s,
        }
    }
}

impl LaneSystem for Lag {
    fn lane_dim(&self) -> usize {
        2
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
        self.reported_min_delay_s
    }
}

impl StagedLane for Lag {
    fn delayed_instant(&self, t: f64) -> f64 {
        t - self.delay_s
    }
    fn stage(&self, delayed: &[f64], terms: &mut Vec<f64>) {
        terms.extend(delayed.iter().rev().map(|&v| self.gain_per_s * v));
    }
    fn rhs_staged(
        &mut self,
        x: &[f64],
        lane: usize,
        stride: usize,
        terms: &[f64],
        dxdt: &mut [f64],
    ) {
        for (c, (&term, decay_per_s)) in terms.iter().zip([30.0, 10.0]).enumerate() {
            let i = lane_of(c, lane, stride);
            dxdt[i] = term - decay_per_s * x[i];
        }
    }
}

/// Integrate `lag` slotted and refilling from `[1, 2]` for 400 steps of
/// 1 ms; the traces must be bitwise equal. Returns the slotted run's
/// phase-one fills per step.
fn lag_fills_per_step(lag: &Lag) -> f64 {
    let o = DdeOptions {
        step: 1e-3,
        record_every: 1,
        history_horizon_s: 0.05,
    };
    let (slotted, steps, fills) = counted(|| {
        try_integrate_dde(&mut lag.clone(), &[1.0, 2.0], 0.0, 0.4, &o).expect("slotted")
    });
    let refilled = try_integrate_dde(&mut Unslotted(lag.clone()), &[1.0, 2.0], 0.0, 0.4, &o)
        .expect("refilling");
    assert_eq!(steps, 400);
    assert_eq!(trace_digest(&slotted), trace_digest(&refilled));
    assert!(slotted.last_state().expect("recorded")[0].abs() < 10.0);
    fills as f64 / steps as f64
}

#[test]
fn hand_over_refills_when_stage_four_reads_past_the_back_knot() {
    let _turn = metrics_turn();
    // A delay of three steps: stage 4 reads well inside the history, the
    // `end` slot is handed over, two fills a step.
    let deep = lag_fills_per_step(&Lag::new(-5.0, 3e-3));
    assert!((2.0..2.05).contains(&deep), "{deep} fills per step");

    // delay == step: stage 4's instant `(t + h) − h` rounds to the back
    // knot `t`, an ulp before it or an ulp past it. At or past it the
    // lookup was answered by clamping to a knot that the push leaves
    // interior — reusing it would read `x(t)` where the next stage 1 must
    // interpolate — so those steps fill three times.
    let on_the_knot = lag_fills_per_step(&Lag::new(-5.0, 1e-3));
    assert!(
        (2.5..=3.0).contains(&on_the_knot),
        "{on_the_knot} fills per step"
    );

    // A delay below the step (the kernel reports the step as its minimum,
    // or the integrator would refuse), by an ulp and by a quarter step:
    // `(t + h) − delay > t` on every step, every hand-over is refused.
    for delay_s in [1e-3_f64.next_down(), 0.75e-3] {
        let past_the_knot = lag_fills_per_step(&Lag {
            delay_s,
            ..Lag::new(-5.0, 1e-3)
        });
        assert!(
            (2.99..=3.0).contains(&past_the_knot),
            "delay {delay_s:e}: {past_the_knot} fills per step"
        );
    }
}

// --- divergence ---------------------------------------------------------------

#[test]
fn diverging_lane_freezes_without_perturbing_batchmates() {
    let _turn = metrics_turn();
    // Lane 1 explodes mid-run. All lanes share the delayed instant, so the
    // block row — dead lane's frozen components included — is read once for
    // the three of them; lanes 0 and 2 must still equal their solo runs.
    let gains = [-5.0, 4000.0, -2.0];
    let lanes: Vec<Lag> = gains.iter().map(|&g| Lag::new(g, 3e-3)).collect();
    let x0s = vec![vec![1.0, 2.0]; 3];
    let o = DdeOptions {
        step: 1e-3,
        record_every: 1,
        history_horizon_s: 0.05,
    };
    let results = run_batch(lanes.clone(), &x0s, 0.4, &o);
    let refilled = run_batch(
        lanes.iter().cloned().map(Unslotted).collect(),
        &x0s,
        0.4,
        &o,
    );
    let divergence = |r: &Result<Trace, SimError>| match r {
        Err(SimError::Divergence { t_s, step, .. }) => (t_s.to_bits(), *step),
        other => panic!("expected divergence, got {other:?}"),
    };
    let (_, step) = divergence(&results[1]);
    assert!(step > 10 && step < 400, "tripped mid-run, at step {step}");
    assert_eq!(divergence(&results[1]), divergence(&refilled[1]));
    for lane in [0usize, 2] {
        let solo =
            try_integrate_dde(&mut lanes[lane].clone(), &x0s[lane], 0.0, 0.4, &o).expect("stable");
        let got = trace_digest(results[lane].as_ref().expect("stable lane"));
        assert_eq!(got, trace_digest(&solo), "lane {lane} vs its solo run");
        assert_eq!(
            got,
            trace_digest(refilled[lane].as_ref().expect("stable lane")),
            "lane {lane} vs the refilling batch"
        );
    }
}
