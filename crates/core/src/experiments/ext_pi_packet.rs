//! Extension: PI-marking AQM in the **packet-level** simulator.
//!
//! The paper demonstrates the PI controller in the fluid model (Figure 18)
//! and lists a hardware/switch implementation as future work ("we are doing
//! a full exploration of PI like controllers … including a hardware
//! implementation"). This experiment runs DCQCN against a PI AQM in the
//! packet simulator: the bottleneck queue should pin at `q_ref` regardless
//! of the number of flows, with fair rates — the property RED cannot give
//! (Eq 14: `q*` grows with N).

use crate::experiments::{queue_kb, tail_mean, Series};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use netsim::config::PiAqmConfig;
use netsim::EngineConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct ExtPiPacketConfig {
    /// Flow counts.
    pub flow_counts: Vec<usize>,
    /// Queue reference in KB.
    pub q_ref_kb: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for ExtPiPacketConfig {
    fn default() -> Self {
        ExtPiPacketConfig {
            flow_counts: vec![2, 10, 32],
            q_ref_kb: 100.0,
            duration_s: 0.15,
        }
    }
}

/// One flow-count panel.
#[derive(Debug, Clone)]
pub struct ExtPiPacketPanel {
    /// Flow count.
    pub n_flows: usize,
    /// Bottleneck queue (KB) over time.
    pub queue_kb: Series,
    /// Tail mean queue with RED (KB).
    pub red_tail_queue_kb: f64,
    /// Tail mean queue with PI (KB).
    pub pi_tail_queue_kb: f64,
    /// Worst per-flow deviation from fair share under PI.
    pub pi_worst_rate_error: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct ExtPiPacketResult {
    /// Per-N panels.
    pub panels: Vec<ExtPiPacketPanel>,
    /// The queue reference (KB).
    pub q_ref_kb: f64,
}

/// Run the RED-vs-PI comparison.
pub fn run(cfg: &ExtPiPacketConfig) -> ExtPiPacketResult {
    let mut panels = Vec::new();
    for &n in &cfg.flow_counts {
        let run_one = |pi: bool| {
            let mut ecfg = EngineConfig::default();
            if pi {
                ecfg.pi_aqm = Some(PiAqmConfig::default_for((cfg.q_ref_kb * 1000.0) as u64));
            }
            let (mut eng, bottleneck) = single_switch_longlived(
                Protocol::Dcqcn,
                n,
                10e9,
                SimDuration::from_micros(1),
                ecfg,
            );
            let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
            (report, bottleneck)
        };
        let (red_report, red_link) = run_one(false);
        let (pi_report, pi_link) = run_one(true);
        let from = cfg.duration_s * 0.6;

        let fair = 10e9 / n as f64;
        let worst = (0..n)
            .map(|f| ((tail_mean(&pi_report.rate_traces[f], from) - fair) / fair).abs())
            .fold(0.0, f64::max);
        let pi_queue_kb = queue_kb(&pi_report, pi_link);

        panels.push(ExtPiPacketPanel {
            n_flows: n,
            red_tail_queue_kb: tail_mean(&queue_kb(&red_report, red_link), from),
            pi_tail_queue_kb: tail_mean(&pi_queue_kb, from),
            queue_kb: pi_queue_kb,
            pi_worst_rate_error: worst,
        });
    }
    ExtPiPacketResult {
        panels,
        q_ref_kb: cfg.q_ref_kb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_queue_independent_of_n_red_queue_is_not() {
        // The integral action needs a few tens of milliseconds to settle.
        let res = run(&ExtPiPacketConfig {
            flow_counts: vec![2, 16],
            q_ref_kb: 100.0,
            duration_s: 0.25,
        });
        let p2 = &res.panels[0];
        let p16 = &res.panels[1];
        // PI pins both near 100 KB.
        for p in [p2, p16] {
            assert!(
                (p.pi_tail_queue_kb - 100.0).abs() / 100.0 < 0.35,
                "N={}: PI queue {:.1} KB should be near 100",
                p.n_flows,
                p.pi_tail_queue_kb
            );
        }
        // PI's spread across N is smaller than RED's (Eq 14 growth).
        let pi_spread = (p16.pi_tail_queue_kb - p2.pi_tail_queue_kb).abs();
        let red_spread = (p16.red_tail_queue_kb - p2.red_tail_queue_kb).abs();
        assert!(
            pi_spread < red_spread,
            "PI spread {pi_spread:.1} KB vs RED spread {red_spread:.1} KB"
        );
        // Fairness holds under PI.
        assert!(
            p16.pi_worst_rate_error < 0.35,
            "worst rate error {:.3}",
            p16.pi_worst_rate_error
        );
    }
}

crate::impl_to_json!(ExtPiPacketConfig {
    flow_counts,
    q_ref_kb,
    duration_s
});
crate::impl_to_json!(ExtPiPacketPanel {
    n_flows,
    queue_kb,
    red_tail_queue_kb,
    pi_tail_queue_kb,
    pi_worst_rate_error
});
crate::impl_to_json!(ExtPiPacketResult { panels, q_ref_kb });
