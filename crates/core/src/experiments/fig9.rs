//! Figure 9: two TIMELY flows under different starting conditions end in
//! completely different operating regimes — the operational face of
//! Theorems 3/4 (no unique fixed point ⇒ arbitrary unfairness).
//!
//! (a) both start at 5 Gbps at t = 0; (b) both at 5 Gbps, one 10 ms late;
//! (c) one at 7 Gbps, the other at 3 Gbps.

use crate::experiments::Series;
use models::timely::{TimelyFluid, TimelyLaw, TimelyParams};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config { duration_s: 0.3 }
    }
}

/// One starting-condition panel.
#[derive(Debug, Clone)]
pub struct Fig9Panel {
    /// Panel label matching the paper.
    pub label: String,
    /// Flow-0 rate (Gbps).
    pub rate0_gbps: Series,
    /// Flow-1 rate (Gbps).
    pub rate1_gbps: Series,
    /// Tail-window share of flow 0 (0.5 = fair).
    pub tail_share_flow0: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Panels (a), (b), (c).
    pub panels: Vec<Fig9Panel>,
}

fn run_case(label: &str, rates0: [f64; 2], starts: [f64; 2], duration: f64) -> Fig9Panel {
    let params = TimelyParams::default_10g();
    let mut m = TimelyFluid::new(params, TimelyLaw::Original, 2).with_start_times(starts.to_vec());
    let tr = m.simulate_with_rates(&rates0, duration);
    let from = duration * 0.8;
    let r0 = tr.mean_from(m.rate_index(0), from);
    let r1 = tr.mean_from(m.rate_index(1), from);
    Fig9Panel {
        label: label.to_string(),
        rate0_gbps: m.rates_gbps(&tr, 0),
        rate1_gbps: m.rates_gbps(&tr, 1),
        tail_share_flow0: r0 / (r0 + r1),
    }
}

/// Run all three panels.
pub fn run(cfg: &Fig9Config) -> Fig9Result {
    let c = TimelyParams::default_10g().capacity_pps();
    let panels = vec![
        run_case(
            "(a) both 5Gbps at t=0",
            [0.5 * c, 0.5 * c],
            [0.0, 0.0],
            cfg.duration_s,
        ),
        run_case(
            "(b) both 5Gbps, one 10ms late",
            [0.5 * c, 0.5 * c],
            [0.0, 0.01],
            cfg.duration_s,
        ),
        run_case(
            "(c) 7Gbps vs 3Gbps",
            [0.7 * c, 0.3 * c],
            [0.0, 0.0],
            cfg.duration_s,
        ),
    ];
    Fig9Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_depend_on_starting_conditions() {
        let res = run(&Fig9Config { duration_s: 0.2 });
        let a = res.panels[0].tail_share_flow0;
        let c = res.panels[2].tail_share_flow0;
        // Symmetric start stays near fair; asymmetric start stays skewed —
        // and the two regimes differ, which is the point of the figure.
        assert!((a - 0.5).abs() < 0.1, "(a) share {a:.3}");
        assert!(c > 0.55, "(c) share should stay skewed: {c:.3}");
        assert!(
            (a - c).abs() > 0.05,
            "different initial conditions must yield different regimes"
        );
    }

    #[test]
    fn late_flow_disadvantaged_or_divergent() {
        let res = run(&Fig9Config { duration_s: 0.2 });
        let b = res.panels[1].tail_share_flow0;
        // Panel (b) must land away from the (a) outcome (the figure's
        // message is divergence, not a specific split).
        let a = res.panels[0].tail_share_flow0;
        assert!(
            (a - b).abs() > 0.02,
            "late start should shift the regime: a={a:.3} b={b:.3}"
        );
    }
}

crate::impl_to_json!(Fig9Config { duration_s });
crate::impl_to_json!(Fig9Panel {
    label,
    rate0_gbps,
    rate1_gbps,
    tail_share_flow0
});
crate::impl_to_json!(Fig9Result { panels });
