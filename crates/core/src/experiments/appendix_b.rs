//! Appendix B validation: the discrete model's structural quantities
//! checked against the packet-level simulator.
//!
//! The Theorem 2 proof rests on two estimates:
//!
//! * **Eq 41** — the queue-buildup time `t ≤ (−1+√(1+8K_max/(N·R_AI·τ′)))/2`
//!   after aggregate rate crosses capacity;
//! * **Eq 40** — the AIMD cycle length
//!   `ΔT_k = 2 + (t/2 + C/(2·N·R_AI))·α(T_k)` in units of τ′.
//!
//! This experiment measures the *actual* AIMD cycle length of DCQCN in the
//! packet simulator (time between successive rate cuts of a flow at
//! steady state) and compares it with Eq 40 evaluated at the fixed-point
//! `α*` — a cross-layer check the paper never ran but its proof implies.

use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use models::dcqcn::DcqcnParams;
use models::discrete::DiscreteAimd;
use netsim::EngineConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct AppendixBConfig {
    /// Flow counts to test.
    pub flow_counts: Vec<usize>,
    /// Bandwidth (Gbps).
    pub bandwidth_gbps: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for AppendixBConfig {
    fn default() -> Self {
        AppendixBConfig {
            flow_counts: vec![2, 4, 8],
            bandwidth_gbps: 40.0,
            duration_s: 0.2,
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct AppendixBRow {
    /// Flow count.
    pub n_flows: usize,
    /// Fixed-point α* (Eq 42).
    pub alpha_star: f64,
    /// Eq 40's predicted cycle length at α*, in µs.
    pub predicted_cycle_us: f64,
    /// Measured mean inter-cut interval in the packet sim, µs.
    pub measured_cycle_us: f64,
    /// Number of cut events measured.
    pub cuts_measured: usize,
}

/// Result.
#[derive(Debug, Clone)]
pub struct AppendixBResult {
    /// Per-N rows.
    pub rows: Vec<AppendixBRow>,
}

/// Detect rate cuts in a delivered-rate trace: a drop of more than `frac`
/// relative to the previous window.
fn cut_times(trace: &[(f64, f64)], frac: f64, from: f64) -> Vec<f64> {
    let mut cuts = Vec::new();
    for w in trace.windows(2) {
        let (t0, r0) = w[0];
        let (t1, r1) = w[1];
        let _ = t0;
        if t1 >= from && r0 > 0.0 && (r0 - r1) / r0 > frac {
            cuts.push(t1);
        }
    }
    cuts
}

/// Run the cross-layer cycle-length comparison. Each flow count is an
/// independent (analytic + packet-sim) job, run in parallel with ordered
/// results.
pub fn run(cfg: &AppendixBConfig) -> AppendixBResult {
    let run_one = |n: usize| {
        // --- analytic prediction -----------------------------------------
        let mut params = DcqcnParams::default_40g();
        params.capacity_gbps = cfg.bandwidth_gbps;
        let c = params.capacity_pps();
        let discrete = DiscreteAimd::new(params.clone(), &vec![c / n as f64; n]);
        let alpha_star = discrete.alpha_star();
        let cycle_units = discrete.cycle_length(alpha_star); // in τ′ units
        let predicted_cycle_us = cycle_units * params.alpha_timer_us;

        // --- packet measurement -------------------------------------------
        let (mut eng, _b) = single_switch_longlived(
            Protocol::Dcqcn,
            n,
            cfg.bandwidth_gbps * 1e9,
            SimDuration::from_micros(1),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
        // Steady-state window: second half of the run. At equilibrium each
        // cut removes α*/2 of the rate (Eq 1 with α = α*), so detect drops
        // at half that depth — above windowing noise, below the cut size.
        let frac = (alpha_star / 2.0) * 0.5;
        let cuts = cut_times(&report.rate_traces[0], frac, cfg.duration_s / 2.0);
        let measured_cycle_us = if cuts.len() >= 2 {
            (cuts.last().unwrap() - cuts[0]) / (cuts.len() - 1) as f64 * 1e6
        } else {
            f64::NAN
        };

        AppendixBRow {
            n_flows: n,
            alpha_star,
            predicted_cycle_us,
            measured_cycle_us,
            cuts_measured: cuts.len(),
        }
    };
    let rows = desim::par::par_map(cfg.flow_counts.clone(), run_one);
    AppendixBResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_and_measured_cycles_same_scale() {
        let res = run(&AppendixBConfig {
            flow_counts: vec![2, 4],
            bandwidth_gbps: 40.0,
            duration_s: 0.15,
        });
        for row in &res.rows {
            assert!(
                row.cuts_measured >= 3,
                "N={}: need cut events, got {}",
                row.n_flows,
                row.cuts_measured
            );
            // The discrete model idealizes (synchronized flows, no fast
            // recovery); agreement within a factor of 3 in either direction
            // validates the Eq 40 scale.
            let ratio = row.measured_cycle_us / row.predicted_cycle_us;
            assert!(
                (0.33..3.0).contains(&ratio),
                "N={}: predicted {:.0} µs vs measured {:.0} µs (ratio {:.2})",
                row.n_flows,
                row.predicted_cycle_us,
                row.measured_cycle_us,
                ratio
            );
        }
    }

    #[test]
    fn cycle_grows_with_fewer_flows() {
        // Eq 40: ΔT has the C/(2·N·R_AI)·α term — fewer flows ⇒ each flow
        // must climb further back ⇒ longer cycles.
        let res = run(&AppendixBConfig {
            flow_counts: vec![2, 8],
            bandwidth_gbps: 40.0,
            duration_s: 0.15,
        });
        assert!(
            res.rows[0].predicted_cycle_us > res.rows[1].predicted_cycle_us,
            "prediction must decrease with N"
        );
    }

    #[test]
    fn cut_detection_finds_drops() {
        let trace = vec![
            (0.0, 10.0),
            (1.0, 10.0),
            (2.0, 4.0), // cut
            (3.0, 5.0),
            (4.0, 5.2),
            (5.0, 2.0), // cut
        ];
        let cuts = cut_times(&trace, 0.10, 0.0);
        assert_eq!(cuts, vec![2.0, 5.0]);
        // Window filter.
        let cuts = cut_times(&trace, 0.10, 3.0);
        assert_eq!(cuts, vec![5.0]);
    }
}

crate::impl_to_json!(AppendixBConfig {
    flow_counts,
    bandwidth_gbps,
    duration_s
});
crate::impl_to_json!(AppendixBRow {
    n_flows,
    alpha_star,
    predicted_cycle_us,
    measured_cycle_us,
    cuts_measured
});
crate::impl_to_json!(AppendixBResult { rows });
