//! Known deviations from the paper, pinned as numbers, outside fixtures
//! the models must reproduce, metamorphic checks of the fluid layer, and
//! the paper's theorems over seeded draws.
//!
//! EXPERIMENTS.md says where this reproduction departs from the paper, and
//! by how much. Each deviation test reads the checked-in result a deviation
//! is about and asserts its number with a tolerance, so a change that moves
//! one fails here instead of leaving the prose stale. `figs <id>`
//! regenerates each file. Still prose only: `ext_parking_lot`'s 2.5 Gbps
//! long flow, which needs the multi-bottleneck fixed point derived first.

use ecn_delay::desim::rng::SimRng;
use ecn_delay::fluid::dde::{lane_of, try_integrate, DdeOptions, LaneSystem};
use ecn_delay::fluid::{FlowClassSystem, History, Trace};
use ecn_delay::models::{units, DcqcnFluid, DcqcnParams, TimelyFluid};
use obs::json::{parse, Value};

/// The checked-in `results/<id>.json`, parsed.
fn result(id: &str) -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key:?} in {v:?}"))
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::items)
        .unwrap_or_else(|| panic!("no array {key:?}"))
}

/// Paper §5, Fig 11: patched TIMELY's phase margin falls as N grows and
/// crosses zero near N = 40. EXPERIMENTS.md, "Known deviations" 2 (Fig 11's
/// ⚠️): ours crosses at N = 20 — positive through N = 16 (15.32°),
/// negative from N = 20 (−4.81°) on.
#[test]
fn fig11_patched_timely_margin_crosses_zero_at_20_flows() {
    let fig = result("fig11");
    let threshold = fig.get("instability_threshold").and_then(Value::as_u64);
    assert_eq!(threshold, Some(20), "Fig 11 instability threshold");
    // A point is `[N, margin_deg, q*_KB, τ_µs]`.
    for point in items(&fig, "points") {
        let p = point.items().expect("a point is an array");
        let (n, margin) = (p[0].as_u64().expect("N"), p[1].as_f64().expect("margin"));
        assert_eq!(
            margin > 0.0,
            n < 20,
            "Fig 11 margin {margin:.2}° at N = {n}"
        );
    }
}

/// Paper Appendix B, Eq 40: the AIMD cycle length at the fixed-point α*.
/// EXPERIMENTS.md, "Appendix B": the packet simulator's inter-cut interval
/// is within 15 % of it at every N (13.2 % at N = 2 today).
#[test]
fn appendix_b_eq40_cycle_within_15_percent_of_the_packet_sim() {
    let rows = result("appendix_b");
    let rows = items(&rows, "rows");
    assert_eq!(rows.len(), 3, "N = 2, 4, 8");
    for row in rows {
        let n = num(row, "n_flows");
        let err = num(row, "measured_cycle_us") / num(row, "predicted_cycle_us") - 1.0;
        assert!(
            err.abs() <= 0.15,
            "Eq 40 off by {:.1} % at N = {n}",
            err * 100.0
        );
    }
}

/// Paper §6, Figs 14–16: original TIMELY does worst at load, through a
/// large and variable queue. EXPERIMENTS.md, "Known deviations" 1: ours
/// starves long flows instead — bottleneck utilisation 0.4239 against
/// DCQCN's 0.4577 at load 0.8.
#[test]
fn fig14_timely_loses_utilisation_at_load_0_8() {
    let fig = result("fig14");
    let utilisation_at_0_8 = |protocol: &str| {
        let curve = items(&fig, "curves")
            .iter()
            .find(|c| c.get("protocol").and_then(Value::as_str) == Some(protocol))
            .unwrap_or_else(|| panic!("no {protocol} curve"));
        let point = items(curve, "utilization")
            .iter()
            .filter_map(Value::items)
            .find(|p| p[0].as_f64().is_some_and(|load| (load - 0.8).abs() < 1e-9))
            .unwrap_or_else(|| panic!("no {protocol} point at load 0.8"));
        point[1].as_f64().expect("utilisation")
    };
    for (protocol, want) in [("TIMELY", 0.4239), ("DCQCN", 0.4577)] {
        let got = utilisation_at_0_8(protocol);
        assert!(
            (got - want).abs() <= 1e-3,
            "Fig 14 {protocol} utilisation {got:.4} at load 0.8, want {want} ± 1e-3"
        );
    }
}

/// Paper Eq 14, against an independent DCQCN fluid model
/// (`dcqcn-fluid-model`'s `dcqcn-sim.py`, SNIPPETS.md). That script converts
/// its Table 1 values to packets of 8 000 bits and computes the marking
/// probability that makes a flow of rate `S` hold still,
/// `Psend = ((Rai/(τ′S²))·(1/B + 1/(S·T))²)^{1/3}` — Eq 14 for one flow on
/// a bottleneck of `S` — at S = 80 and 40 Gbps. The expected values were
/// evaluated outside this repo with the script's own formula.
#[test]
fn eq14_matches_the_dcqcn_fluid_model_fixture() {
    let snippet = |capacity_gbps| DcqcnParams {
        packet_bytes: 1000.0,
        capacity_gbps,
        kmin_kb: 5.0,
        kmax_kb: 200.0,
        p_max: 0.5,
        g: 1.0 / 256.0,
        r_ai_mbps: 40.0,
        fast_recovery_steps: 5.0,
        byte_counter_mb: 10.0,
        timer_us: 55.0,
        cnp_timer_us: 50.0,
        alpha_timer_us: 55.0,
        feedback_delay_us: 85.0,
        ..DcqcnParams::default_40g()
    };
    // The script's unit conversions.
    let p = snippet(100.0);
    let conversions = [
        ("Kmin", p.kmin_pkts(), 5.0),
        ("Kmax", p.kmax_pkts(), 200.0),
        ("B", p.byte_counter_pkts(), 10_000.0),
        ("Rai", p.r_ai_pps(), 5_000.0),
        ("C", p.capacity_pps(), 1.25e7),
    ];
    for (name, got, want) in conversions {
        assert!(
            (got / want - 1.0).abs() <= 1e-12,
            "{name}: {got} packets, want {want}"
        );
    }
    for (capacity_gbps, psend) in [(80.0, 1.4955316841478716e-4), (40.0, 3.702728423210916e-4)] {
        let got = snippet(capacity_gbps).p_star_approx(1);
        assert!(
            (got / psend - 1.0).abs() <= 1e-12,
            "Eq 14 at S = {capacity_gbps} Gbps: {got:e}, the script's Psend {psend:e}"
        );
    }
}

/// `x′(t) = −x(t − 1)` with `x ≡ 1` for `t ≤ 0`: the textbook DDE, solved
/// exactly by the method of steps — `x = 1 − t` on [0, 1],
/// `1 − t + (t − 1)²/2` on [1, 2], so `x(2) = −1/2` and `x(3) = −1/6`.
struct UnitDelay;

impl LaneSystem for UnitDelay {
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
        dxdt[c] = -hist.eval(t - 1.0, c);
    }
    fn min_delay(&self) -> f64 {
        1.0
    }
}

/// Step halving pins the integrator's order. On [0, 2] the delayed term is
/// linear in `t` (the solution on [−1, 1] is), which linear `History`
/// interpolation reproduces and RK4 integrates exactly: every knot is the
/// method-of-steps value and `x(2) = −1/2` to the bit. On [2, 3] it is the
/// quadratic of [1, 2]; the two mid-step stages read its linear interpolant,
/// `h²/8` off, which leaves `x(3) + 1/6 = −h²/12` — order 2, however
/// accurate RK4's own stages are.
#[test]
fn integrator_matches_the_method_of_steps_at_order_2() {
    for h in [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0] {
        let opts = DdeOptions {
            step: h,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let trace = try_integrate(&mut [UnitDelay], &[1.0], 0.0, 3.0, &opts)
            .expect("valid configuration")
            .remove(0)
            .expect("bounded solution");
        let at = |t: f64| {
            let i = (t / h) as usize;
            assert_eq!(
                trace.times()[i].to_bits(),
                t.to_bits(),
                "knot {i} at h = {h}"
            );
            trace.state(i)[0]
        };
        for i in 0..=(2.0 / h) as usize {
            let t = i as f64 * h;
            let exact = if t <= 1.0 {
                1.0 - t
            } else {
                1.0 - t + (t - 1.0) * (t - 1.0) / 2.0
            };
            assert!((at(t) - exact).abs() < 1e-12, "x({t}) at h = {h}");
        }
        assert_eq!(at(2.0).to_bits(), (-0.5f64).to_bits(), "x(2) at h = {h}");
        let scaled = (at(3.0) + 1.0 / 6.0) * 12.0 / (h * h);
        assert!(
            (scaled + 1.0).abs() < 1e-6,
            "(x(3) + 1/6)·12/h² = {scaled} at h = {h}, want −1"
        );
    }
}

/// The queue's relative L2 error against the same run at a 64× finer step,
/// over the records the two share.
fn queue_error(coarse: &Trace, reference: &Trace) -> f64 {
    assert_eq!(coarse.len(), reference.len(), "one record grid");
    let (mut diff, mut norm) = (0.0, 0.0);
    for i in 0..coarse.len() {
        assert!((coarse.times()[i] - reference.times()[i]).abs() < 1e-9);
        let (q, r) = (coarse.state(i)[0], reference.state(i)[0]);
        diff += (q - r) * (q - r);
        norm += r * r;
    }
    (diff / norm).sqrt()
}

/// ROADMAP item 14's two smooth rows (τ* = 4 µs, N = 2 and 10, flows
/// alternately 10 % above and below the fair share): the queue stays
/// positive and no projection fires, so `DcqcnFluid`'s error against a
/// 1/64 µs reference falls at order 2 per step halving (linear
/// interpolation of the delayed state caps RK4 there), and at the 1 µs
/// production step it stays under a stated bound. The horizon is 7.96 ms,
/// not the table's 64 ms, to keep the reference run short; at that length
/// every step below records on one 2 µs grid.
#[test]
fn dcqcn_fluid_converges_at_order_2_on_smooth_starts() {
    const HORIZON_S: f64 = 7.96e-3;
    // (N, bound on the relative L2 error at 1 µs): 8.0e-7 and 1.4e-7 today.
    for (n, bound) in [(2usize, 1e-6), (10, 2e-7)] {
        let params = DcqcnParams::default_40g();
        let fair = params.capacity_pps() / n as f64;
        let start: Vec<f64> = (0..n)
            .map(|i| fair * if i % 2 == 0 { 1.1 } else { 0.9 })
            .collect();
        let run = |step_us: f64| {
            DcqcnFluid::new(params.clone(), n).simulate_with_step(&start, HORIZON_S, step_us * 1e-6)
        };
        let reference = run(1.0 / 64.0);
        assert!(
            (1..reference.len()).all(|i| reference.state(i)[0] > 0.0),
            "N = {n}: the queue empties, so the derivative switches"
        );
        let errors: Vec<f64> = [2.0, 1.0, 0.5, 0.25]
            .iter()
            .map(|&h| queue_error(&run(h), &reference))
            .collect();
        let orders: Vec<f64> = errors.windows(2).map(|e| (e[0] / e[1]).log2()).collect();
        for (i, order) in orders.iter().enumerate() {
            assert!(
                (order - 2.0).abs() <= 0.2,
                "N = {n}, halving {i}: order {order}"
            );
        }
        assert!(errors[1] <= bound, "N = {n}: error {} at 1 µs", errors[1]);
    }
}

/// Permuting the flows permutes the flow classes: draw N flows from a pool
/// of at most four distinct blocks, reorder them by a permutation π, and
/// the partition of the reordered start has as many classes, puts flows
/// `i` and `j` together exactly when the original put `π(i)` and `π(j)`
/// together, and still numbers classes by first appearance.
#[test]
fn permuting_the_flows_permutes_flow_classes() {
    for seed in 0..64 {
        let mut rng = SimRng::new(seed);
        let n = 2 + rng.next_below(31) as usize; // 2..=32
        let pool: Vec<[f64; 3]> = (0..1 + rng.next_below(4))
            .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()])
            .collect();
        let draws: Vec<usize> = (0..n)
            .map(|_| rng.next_below(pool.len() as u64) as usize)
            .collect();
        let mut pi: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            pi.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let start = |flow_block: &dyn Fn(usize) -> usize| {
            let mut x = vec![0.0]; // the queue
            for i in 0..n {
                x.extend(pool[draws[flow_block(i)]]);
            }
            x
        };
        let model = DcqcnFluid::new(DcqcnParams::default_40g(), n);
        let cx = model.flow_classes(&start(&|i| i));
        let cy = model.flow_classes(&start(&|i| pi[i]));

        assert_eq!(cy.len(), cx.len(), "seed {seed}: K");
        let (x_of, y_of) = (cx.class_of(), cy.class_of());
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    y_of[i] == y_of[j],
                    x_of[pi[i]] == x_of[pi[j]],
                    "seed {seed}: flows {i}, {j}"
                );
            }
        }
        let mut next = 0;
        for &k in y_of {
            assert!(k <= next, "seed {seed}: class {k} before class {next}");
            next += usize::from(k == next);
        }
        assert_eq!(next, cy.len(), "seed {seed}");
    }
}

/// Paper §5.2, Theorem 6, over seeded two-flow splits `f₀ ∈ [0.55, 0.95]`:
/// PI marking at the switch (Fig 18) moves any split to a share of 1/2 with
/// the queue at `q_ref`, because every flow reads the one shared `p`; an
/// end-host PI on delay (Fig 19) pins the queue too, but each flow's
/// integrator sees the same queue error, so the split it started from
/// stays, at full utilisation. Starting unequal is the point: flows that
/// start bitwise-equal stay equal under either law.
#[test]
fn theorem6_switch_pi_equalises_any_split_end_host_pi_keeps_it() {
    for seed in 0..6 {
        let f0 = SimRng::new(seed).uniform(0.55, 0.95);
        let shares = [f0, 1.0 - f0];

        // DCQCN + PI at the switch, 40 Gbps, q_ref = 100 KB.
        let mut m = DcqcnFluid::pi(DcqcnParams::default_40g(), 100.0, 2);
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&shares.map(|f| f * c), 0.1);
        let [r0, r1] = [0, 1].map(|i| tr.mean_from(m.rc_index(i), 0.08));
        let q = tr.mean_from(0, 0.08); // component 0 is the queue
        assert!(
            (r0 / (r0 + r1) - 0.5).abs() < 0.005,
            "seed {seed}: DCQCN+PI from f0 = {f0:.3} holds share {:.4}",
            r0 / (r0 + r1)
        );
        let q_ref = units::kb_to_pkts(100.0, m.params.packet_bytes);
        assert!(
            (q - q_ref).abs() / q_ref < 0.02,
            "seed {seed}: DCQCN+PI queue {q:.1} pkts vs q_ref {q_ref}"
        );

        // Patched TIMELY + PI at each end host, 10 Gbps, q_ref = 300 KB.
        let mut m = TimelyFluid::patched_pi_10g(300.0, 2);
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&shares.map(|f| f * c), 0.3);
        let [r0, r1] = [0, 1].map(|i| tr.mean_from(m.rate_index(i), 0.25));
        assert!(
            (r0 / (r0 + r1) - f0).abs() < 0.02,
            "seed {seed}: TIMELY+PI from f0 = {f0:.3} moved to share {:.4}",
            r0 / (r0 + r1)
        );
        assert!(
            ((r0 + r1) / c - 1.0).abs() < 0.05,
            "seed {seed}: TIMELY+PI utilisation {:.3}",
            (r0 + r1) / c
        );
    }
}
