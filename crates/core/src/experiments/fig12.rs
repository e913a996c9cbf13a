//! Figure 12: Patched TIMELY in the time domain.
//!
//! (a) two flows with 7/3 Gbps starts converge to fair share, stable and
//! without oscillation (contrast Figure 9c); (b) moderate flow counts stay
//! stable; (c) beyond the Figure 11 limit the system oscillates.

use crate::experiments::Series;
use models::timely::TimelyFluid;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig12Config {
    /// Duration (seconds) for panel (a).
    pub duration_a_s: f64,
    /// Duration for the stability panels.
    pub duration_bc_s: f64,
    /// Stable flow count for panel (b).
    pub n_stable: usize,
    /// Unstable flow count for panel (c).
    pub n_unstable: usize,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config {
            duration_a_s: 0.4,
            duration_bc_s: 0.5,
            n_stable: 16,
            n_unstable: 64,
        }
    }
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Panel (a): rates of the two flows (Gbps).
    pub panel_a_rates: Vec<Series>,
    /// Panel (a): final share of flow 0.
    pub panel_a_share: f64,
    /// Panel (b): queue (KB) at `n_stable` flows.
    pub panel_b_queue_kb: Series,
    /// Panel (b): normalized oscillation.
    pub panel_b_oscillation: f64,
    /// Panel (c): queue (KB) at `n_unstable` flows.
    pub panel_c_queue_kb: Series,
    /// Panel (c): normalized oscillation.
    pub panel_c_oscillation: f64,
}

/// Run all panels.
pub fn run(cfg: &Fig12Config) -> Fig12Result {
    // (a) unequal start.
    let mut ma = TimelyFluid::patched_10g(2);
    let c = ma.params.capacity_pps();
    let tra = ma.simulate_with_rates(&[0.7 * c, 0.3 * c], cfg.duration_a_s);
    let from_a = cfg.duration_a_s * 0.8;
    let r0 = tra.mean_from(ma.rate_index(0), from_a);
    let r1 = tra.mean_from(ma.rate_index(1), from_a);
    let panel_a_rates = vec![ma.rates_gbps(&tra, 0), ma.rates_gbps(&tra, 1)];

    // (b)/(c) stability contrast: the two integrations are independent, so
    // run them as parallel jobs with ordered results.
    let dur = cfg.duration_bc_s;
    let mut osc = desim::par::par_map(vec![cfg.n_stable, cfg.n_unstable], |n| {
        let mut m = TimelyFluid::patched_10g(n);
        let tr = m.simulate(dur);
        let q_star = m.q_star_pkts();
        let osc = tr.peak_to_peak_from(0, dur * 0.6) / q_star.max(1.0);
        (m.queue_kb(&tr), osc)
    });
    let (panel_c_queue_kb, panel_c_oscillation) = osc.pop().unwrap_or_default();
    let (panel_b_queue_kb, panel_b_oscillation) = osc.pop().unwrap_or_default();

    Fig12Result {
        panel_a_rates,
        panel_a_share: r0 / (r0 + r1),
        panel_b_queue_kb,
        panel_b_oscillation,
        panel_c_queue_kb,
        panel_c_oscillation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_fair_and_stability_contrast() {
        let res = run(&Fig12Config {
            duration_a_s: 0.3,
            duration_bc_s: 0.4,
            ..Default::default()
        });
        // (a) fair convergence (contrast Fig 9c where 0.7 start persists).
        assert!(
            (res.panel_a_share - 0.5).abs() < 0.05,
            "share {:.3}",
            res.panel_a_share
        );
        // (b) calm, (c) oscillating.
        assert!(
            res.panel_b_oscillation < 0.4,
            "N=16 osc {:.3}",
            res.panel_b_oscillation
        );
        assert!(
            res.panel_c_oscillation > 2.0 * res.panel_b_oscillation,
            "N=64 must oscillate more: {:.3} vs {:.3}",
            res.panel_c_oscillation,
            res.panel_b_oscillation
        );
    }
}

crate::impl_to_json!(Fig12Config {
    duration_a_s,
    duration_bc_s,
    n_stable,
    n_unstable
});
crate::impl_to_json!(Fig12Result {
    panel_a_rates,
    panel_a_share,
    panel_b_queue_kb,
    panel_b_oscillation,
    panel_c_queue_kb,
    panel_c_oscillation
});
