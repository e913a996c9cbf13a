//! Patched TIMELY's tests (paper §4.3, Algorithm 2, Eqs 29–31, Theorem 5,
//! Figures 11 and 12): [`TimelyFluid`](crate::timely::TimelyFluid) under
//! [`TimelyLaw::Patched`](crate::timely::TimelyLaw::Patched).

#[cfg(test)]
mod tests {
    use crate::timely::{weight, TimelyFluid};

    #[test]
    fn weight_function_matches_eq30() {
        assert_eq!(weight(-1.0), 0.0);
        assert_eq!(weight(-0.25), 0.0);
        assert_eq!(weight(0.0), 0.5);
        assert_eq!(weight(0.25), 1.0);
        assert_eq!(weight(2.0), 1.0);
        // Linear in the band, monotone overall.
        assert!((weight(0.1) - 0.7).abs() < 1e-12);
        let mut prev = -0.1;
        for k in -10..=10 {
            let w = weight(k as f64 * 0.05);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn q_star_matches_eq31() {
        // q* = N δ q'/(β C) + q'.
        let q_star = |n: usize| TimelyFluid::patched_10g(n).q_star_pkts();
        for n in [1usize, 4, 16, 40] {
            let m = TimelyFluid::patched_10g(n);
            let (p, q_ref) = (&m.params, m.params.q_low_pkts());
            let manual = n as f64 * p.delta_pps() * q_ref / (p.beta * p.capacity_pps()) + q_ref;
            assert!((q_star(n) - manual).abs() < 1e-9);
        }
        // Grows linearly with N.
        let d1 = q_star(2) - q_star(1);
        let d2 = q_star(10) - q_star(9);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn rhs_zero_at_theorem5_fixed_point() {
        let m = TimelyFluid::patched_10g(4);
        let r_star = m.params.capacity_pps() / 4.0;
        let q_star = m.q_star_pkts();
        let out = m.flow_rhs(r_star, 0.0, 0.0, q_star, q_star);
        assert!(
            out[0].abs() / r_star < 1e-10,
            "dR/dt at fixed point = {}",
            out[0]
        );
        assert!(out[1].abs() < 1e-10, "dg/dt at fixed point = {}", out[1]);
    }

    #[test]
    fn unequal_starts_converge_to_fair_share() {
        // Figure 12(a): 7 Gbps vs 3 Gbps start converges (contrast Fig 9c).
        let mut m = TimelyFluid::patched_10g(2);
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&[0.7 * c, 0.3 * c], 0.4);
        let r0 = tr.mean_from(m.rate_index(0), 0.35);
        let r1 = tr.mean_from(m.rate_index(1), 0.35);
        assert!(
            (r0 - r1).abs() / (r0 + r1) < 0.05,
            "rates must converge: {r0} vs {r1}"
        );
        // And the queue must sit at q*.
        let q_tail = tr.mean_from(0, 0.35);
        let q_star = m.q_star_pkts();
        assert!(
            (q_tail - q_star).abs() / q_star < 0.2,
            "queue {q_tail} vs q* {q_star}"
        );
    }

    #[test]
    fn stable_for_16_flows() {
        // Figure 12(b): N = 16 < 40 is stable.
        let mut m = TimelyFluid::patched_10g(16);
        let tr = m.simulate(0.5);
        let osc = tr.peak_to_peak_from(0, 0.4) / m.q_star_pkts();
        assert!(osc < 0.3, "N=16 should be stable, oscillation {osc:.3}");
    }

    /// Figure 11's phase margin at `n` flows (180° when nothing crosses).
    fn pm(n: usize) -> f64 {
        TimelyFluid::patched_10g(n)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0)
    }

    #[test]
    fn margin_positive_small_n_negative_large_n() {
        // Figure 11: stable until ~40 flows, then the margin collapses.
        let pm4 = pm(4);
        let pm64 = pm(64);
        assert!(pm4 > 0.0, "N=4 must be stable, pm = {pm4:.1}");
        assert!(pm64 < pm4, "margin must fall with N: {pm64:.1} vs {pm4:.1}");
        assert!(pm64 < 0.0, "N=64 should be unstable, pm = {pm64:.1}");
    }

    #[test]
    fn margin_decreases_with_flow_count() {
        // Figure 11's regime: as N grows, q* (Eq 31) grows, the feedback
        // delay (Eq 24) grows, and the margin collapses. (Very small N has
        // its own fast-update dynamics, so the monotone region starts at
        // moderate N.)
        let pms: Vec<f64> = [8usize, 16, 32, 64].iter().map(|&n| pm(n)).collect();
        for w in pms.windows(2) {
            assert!(
                w[1] < w[0] + 5.0,
                "patched TIMELY margin should broadly decrease: {pms:?}"
            );
        }
        // And it must actually cross zero somewhere in this range.
        assert!(pms[0] > 0.0 && *pms.last().unwrap() < 0.0, "{pms:?}");
    }
}
