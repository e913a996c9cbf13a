//! The margin search at its production resolution on the real loops.
//!
//! `control::phase_margin`'s `points` is the walk's resolution floor; both
//! models run it at `points = 3000`. Here the DCQCN loop over a grid that
//! crosses its non-monotone dip (fig3's quick grid: delay × N × `R_AI` ×
//! `K_max`) and the patched-TIMELY loop across its Fig 11 collapse are
//! searched again at ten times that resolution: every margin must agree to
//! 1e-6° and in sign, so the production grid misses no crossing and takes
//! no wrong unwrap branch.

use control::{phase_margin, MarginReport};
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use models::TimelyFluid;

/// `(production, fine)` reports of one loop; `production` must be what
/// the model's own `margin_report` answers.
fn assert_resolved(what: &str, production: &MarginReport, fine: &MarginReport) {
    assert_eq!(production.is_stable(), fine.is_stable(), "{what}: sign");
    assert_eq!(production.no_crossing, fine.no_crossing, "{what}");
    match (production.phase_margin_deg, fine.phase_margin_deg) {
        (Some(pm), Some(pm_fine)) => assert!(
            (pm - pm_fine).abs() < 1e-6,
            "{what}: {pm}° at 3000 points vs {pm_fine}° at 30000"
        ),
        (None, None) => {}
        (a, b) => panic!("{what}: crossing found at one resolution only: {a:?} vs {b:?}"),
    }
}

/// The model's own report, checked to be the search at `points = 3000`.
fn production(what: &str, own: MarginReport, at_3000: MarginReport) -> MarginReport {
    assert_eq!(
        own.phase_margin_deg.map(f64::to_bits),
        at_3000.phase_margin_deg.map(f64::to_bits),
        "{what}: margin_report is the 3000-point search"
    );
    own
}

#[test]
fn dcqcn_margins_hold_at_ten_times_the_resolution() {
    let mut unstable = 0;
    for delay_us in [4.0, 85.0] {
        for n in [2, 10, 64] {
            for r_ai_mbps in [10.0, 40.0] {
                for kmax_kb in [200.0, 1000.0] {
                    let mut p = DcqcnParams::default_40g();
                    p.feedback_delay_us = delay_us;
                    p.r_ai_mbps = r_ai_mbps;
                    p.kmax_kb = kmax_kb;
                    let m = DcqcnFluid::new(p, n);
                    let what =
                        format!("DCQCN tau*={delay_us}us N={n} R_AI={r_ai_mbps} Kmax={kmax_kb}");
                    let own = production(
                        &what,
                        m.margin_report(),
                        phase_margin(m.loop_transfer(), 1e1, 1e7, 3000),
                    );
                    let fine = phase_margin(m.loop_transfer(), 1e1, 1e7, 30_000);
                    assert_resolved(&what, &own, &fine);
                    unstable += usize::from(!own.is_stable());
                }
            }
        }
    }
    // The grid straddles the dip: both signs are exercised.
    assert!(unstable > 0 && unstable < 24, "{unstable} of 24 unstable");
}

#[test]
fn patched_timely_margins_hold_at_ten_times_the_resolution() {
    let mut signs = Vec::new();
    for n in [2, 10, 20, 40, 64] {
        let m = TimelyFluid::patched_10g(n);
        let what = format!("patched TIMELY N={n}");
        let own = production(
            &what,
            m.margin_report(),
            phase_margin(m.loop_transfer(), 1e1, 1e7, 3000),
        );
        let fine = phase_margin(m.loop_transfer(), 1e1, 1e7, 30_000);
        assert_resolved(&what, &own, &fine);
        signs.push(own.is_stable());
    }
    // Fig 11's collapse lies inside the sweep.
    assert!(signs.contains(&true) && signs.contains(&false), "{signs:?}");
}
