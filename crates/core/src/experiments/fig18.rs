//! Figure 18: DCQCN with a PI controller at the switch.
//!
//! "All the flows converge to the same (fair) rate and the queue length is
//! stabilized to a preconfigured value, regardless of the number of flows
//! (as well as regardless of propagation delay)."

use crate::experiments::{tail_mean, Series};
use models::dcqcn::{DcqcnFluid, DcqcnParams};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig18Config {
    /// Flow counts.
    pub flow_counts: Vec<usize>,
    /// Queue reference (KB).
    pub q_ref_kb: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig18Config {
    fn default() -> Self {
        Fig18Config {
            flow_counts: vec![2, 10, 64],
            q_ref_kb: 100.0,
            duration_s: 0.4,
        }
    }
}

/// One flow-count panel.
#[derive(Debug, Clone)]
pub struct Fig18Panel {
    /// Flow count.
    pub n_flows: usize,
    /// Queue (KB) over time.
    pub queue_kb: Series,
    /// Flow-0 rate (Gbps) over time.
    pub rate_gbps: Series,
    /// Tail queue mean (KB).
    pub tail_queue_kb: f64,
    /// Worst relative deviation of any flow from fair share, over the tail.
    pub worst_rate_error: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// Panels.
    pub panels: Vec<Fig18Panel>,
    /// The reference (KB).
    pub q_ref_kb: f64,
}

/// Run: one independent integration per flow count, through
/// [`desim::par::par_map`] with ordered results.
pub fn run(cfg: &Fig18Config) -> Fig18Result {
    let panels = desim::par::par_map(cfg.flow_counts.clone(), |n| {
        let mut m = DcqcnFluid::pi(DcqcnParams::default_40g(), cfg.q_ref_kb, n);
        let tr = m.simulate(cfg.duration_s);
        let from = cfg.duration_s * 0.75;
        let fair = m.params.capacity_pps() / n as f64;
        let worst = (0..n)
            .map(|i| ((tr.mean_from(m.rc_index(i), from) - fair) / fair).abs())
            .fold(0.0, f64::max);
        let q_kb = m.queue_kb(&tr);
        Fig18Panel {
            n_flows: n,
            tail_queue_kb: tail_mean(&q_kb, from),
            queue_kb: q_kb,
            rate_gbps: m.rates_gbps(&tr, 0),
            worst_rate_error: worst,
        }
    });
    Fig18Result {
        panels,
        q_ref_kb: cfg.q_ref_kb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pinned_and_fair_for_all_n() {
        // The PI promise: q → q_ref independent of N, rates fair.
        let res = run(&Fig18Config {
            flow_counts: vec![2, 10],
            q_ref_kb: 100.0,
            duration_s: 0.35,
        });
        for p in &res.panels {
            assert!(
                (p.tail_queue_kb - 100.0).abs() / 100.0 < 0.15,
                "N={}: queue {:.1} KB vs 100 KB",
                p.n_flows,
                p.tail_queue_kb
            );
            assert!(
                p.worst_rate_error < 0.1,
                "N={}: worst rate error {:.3}",
                p.n_flows,
                p.worst_rate_error
            );
        }
        // Same queue for different N — the contrast with Eq 14 where q*
        // grows with N.
        let dq = (res.panels[0].tail_queue_kb - res.panels[1].tail_queue_kb).abs();
        assert!(dq < 15.0, "queues should coincide across N: Δ={dq:.1} KB");
    }
}

crate::impl_to_json!(Fig18Config {
    flow_counts,
    q_ref_kb,
    duration_s
});
crate::impl_to_json!(Fig18Panel {
    n_flows,
    queue_kb,
    rate_gbps,
    tail_queue_kb,
    worst_rate_error
});
crate::impl_to_json!(Fig18Result { panels, q_ref_kb });
