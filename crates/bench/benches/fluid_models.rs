//! Benchmarks for the fluid models: DDE integration speed of the DCQCN and
//! patched-TIMELY systems, fixed-point solving, and phase-margin
//! computation (the inner loops of Figures 3 and 11).

use bench::harness::{bench, black_box};
use ecn_delay_core::experiments::fig3;
use fluid::classes::FlowClassSystem;
use fluid::History;
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use models::timely::TimelyFluid;

/// `fluid::History` alone, at the live-window size of the paper-scale runs
/// (10 ms horizon at a 1 µs step), on the `t += h` grid the integrators push.
fn history_rows() {
    const KNOTS: usize = 10_000;
    const STEP_S: f64 = 1e-6;
    let state = |t: f64| [1e3 * t, 1.0 - t, t * t];
    let mut h = History::new(0.0, &state(0.0));
    let mut t_back = 0.0;
    for _ in 0..KNOTS {
        t_back += STEP_S;
        h.push(t_back, &state(t_back));
    }

    // The TIMELY pattern (Eq 22/24): each instant reads the queue once at a
    // near delay and once much further back (≫ a few knots), both delays
    // wandering as a state-dependent delay does.
    bench("history/eval_two_far_delays_10k_knots", || {
        let mut acc = 0.0;
        for i in 0..KNOTS {
            let t = 0.5 * t_back + 0.5 * STEP_S * i as f64;
            let near = 50e-6 + 1e-6 * (i % 7) as f64;
            let far = 1e-3 + 13e-6 * (i % 11) as f64;
            acc += h.eval(t - near, 0) + h.eval(t - near - far, 0);
        }
        black_box(acc)
    });

    // The DCQCN pattern: one fixed delay, so the delayed instant advances
    // monotonically, a whole row per lookup.
    bench("history/eval_monotone_10k_knots", || {
        let mut row = [0.0; 3];
        let mut acc = 0.0;
        for i in 0..KNOTS {
            h.eval_all(0.25 * STEP_S * i as f64 + 50e-6, &mut row);
            acc += row[0] + row[2];
        }
        black_box(acc)
    });

    // The integrators' per-step upkeep at a full window: push one knot, drop
    // what fell behind the horizon (compaction amortized in).
    let horizon_s = STEP_S * KNOTS as f64;
    bench("history/trim_before_10k_knots", || {
        for _ in 0..KNOTS {
            t_back += STEP_S;
            h.push(t_back, &state(t_back));
            h.trim_before(t_back - horizon_s);
        }
        black_box(h.len())
    });
}

fn main() {
    history_rows();

    {
        let m = DcqcnFluid::new(DcqcnParams::default_40g(), 10);
        bench("dcqcn_fixed_point", || black_box(m.fixed_point().p_star));
    }

    {
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let m = DcqcnFluid::new(p, 10);
        bench("dcqcn_phase_margin_n10", || {
            black_box(m.margin_report().phase_margin_deg)
        });
    }

    bench("dcqcn_dde_integrate_2flows_10ms", || {
        let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 2);
        black_box(m.simulate(0.01).len())
    });

    bench("patched_timely_dde_integrate_2flows_10ms", || {
        let mut m = TimelyFluid::patched_10g(2);
        black_box(m.simulate(0.01).len())
    });

    {
        let m = TimelyFluid::patched_10g(16);
        bench("patched_timely_phase_margin_n16", || {
            black_box(m.margin_report().phase_margin_deg)
        });
    }

    // Ten flows from the line-rate start. Since the flow-class reduction
    // they integrate as one class (4 components); this row's earlier shas
    // are the 31-component integration.
    bench("dcqcn_dde_integrate_10flows_10ms", || {
        let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 10);
        black_box(m.simulate(0.01).len())
    });

    // Flow-class reduction (fluid::classes), the fig18 / fig12 shape: 64
    // flows from a symmetric start integrate as one class, so these rows sit
    // near the 2-flow rows above. The `/asymmetric` twins start every flow
    // at a distinct rate — the identity partition, K = N, through the same
    // loop — and guard the unreducible case (fig9, fig19, fig12 panel a)
    // against paying for the reduction.
    {
        let params = DcqcnParams::default_40g();
        let model = || DcqcnFluid::pi(params.clone(), 100.0, 64);
        bench("dcqcn_pi_integrate_64flows_10ms", || {
            black_box(model().simulate(0.01).len())
        });
        let rates: Vec<f64> = (0..64)
            .map(|i| params.capacity_pps() * (0.5 + i as f64 / 128.0))
            .collect();
        let start = model().simulate_with_rates(&rates, 1e-6);
        assert_eq!(
            model().flow_classes(start.state(0)).len(),
            64,
            "asymmetric start must not reduce"
        );
        bench("dcqcn_pi_integrate_64flows_10ms/asymmetric", || {
            black_box(model().simulate_with_rates(&rates, 0.01).len())
        });
    }
    {
        let share = TimelyFluid::patched_10g(64).params.capacity_pps() / 64.0;
        bench("patched_timely_integrate_64flows_10ms", || {
            let mut m = TimelyFluid::patched_10g(64);
            black_box(m.simulate(0.01).len())
        });
        let rates: Vec<f64> = (0..64).map(|i| share * (0.5 + i as f64 / 64.0)).collect();
        bench("patched_timely_integrate_64flows_10ms/asymmetric", || {
            let mut m = TimelyFluid::patched_10g(64);
            black_box(m.simulate_with_rates(&rates, 0.01).len())
        });
    }

    // Batched lockstep integration: 16 DCQCN configurations (a RED-profile
    // sweep) advance as lanes of one SoA state block. The comparison row is
    // 16 × `dcqcn_dde_integrate_10flows_10ms`; the batch target is ≥3× that.
    {
        let batch_models = || -> Vec<DcqcnFluid> {
            (0..16)
                .map(|i| {
                    let mut p = DcqcnParams::default_40g();
                    p.kmax_kb = 200.0 + 50.0 * f64::from(i);
                    DcqcnFluid::new(p, 10)
                })
                .collect()
        };
        let median = bench("dcqcn_dde_integrate_batch16_10ms", || {
            black_box(DcqcnFluid::simulate_batch(batch_models(), 0.01).len())
        });
        // Derived throughput row: lane-steps per wall-clock second (16 lanes
        // × the lockstep step count), from the median batch time.
        let params = DcqcnParams::default_40g();
        let step = (params.feedback_delay_s() / 4.0).min(1e-6);
        let lane_steps = (0.01 / step).ceil() * 16.0;
        println!(
            "{:<44} {:.0} lane-steps/s (16 lanes)",
            "fluid/lane_steps_per_sec_batch16",
            lane_steps / median.as_secs_f64()
        );
    }

    // The margin-grid hot path with shared linearizations: one `lin_parts`
    // serves a whole delay sweep at fixed N (the fig3 panel-(a) grouping),
    // so only the first point pays the central-difference cost.
    bench("margin_grid_shared_lin_parts", || {
        let parts = DcqcnFluid::new(DcqcnParams::default_40g(), 10).lin_parts();
        let mut stable = 0usize;
        for &d in &[4.0, 20.0, 50.0, 85.0, 100.0] {
            let mut p = DcqcnParams::default_40g();
            p.feedback_delay_us = d;
            let m = DcqcnFluid::new(p, 10);
            stable += usize::from(m.margin_report_from(&parts).is_stable());
        }
        black_box(stable)
    });

    // Sweep-level benchmark: the Figure 3 margin grid (reduced) through the
    // deterministic parallel executor.
    let quick = fig3::Fig3Config {
        flow_counts: vec![2, 10, 64],
        delays_us: vec![4.0, 85.0],
        r_ai_mbps: vec![10.0],
        kmax_kb: vec![200.0],
        panel_bc_delay_us: 85.0,
    };
    bench("fig3_margin_grid_quick", || {
        black_box(fig3::run(&quick).by_delay.len())
    });
}
