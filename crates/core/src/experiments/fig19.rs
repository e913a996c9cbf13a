//! Figure 19: a PI controller at the end hosts with Patched TIMELY.
//!
//! "Although we can control the queue to a specified value (300 KB), we
//! cannot achieve fairness. Thus, while patched TIMELY was able to achieve
//! fairness without guaranteeing delay, with PI it is able to guarantee
//! delay without achieving fairness" — the demonstration of Theorem 6.

use crate::experiments::{tail_mean, Series};
use models::timely::TimelyFluid;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig19Config {
    /// Queue reference in KB (300 in the paper).
    pub q_ref_kb: f64,
    /// Initial rates of the two flows as fractions of C.
    pub initial_fractions: Vec<f64>,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig19Config {
    fn default() -> Self {
        Fig19Config {
            q_ref_kb: 300.0,
            initial_fractions: vec![0.9, 0.1],
            duration_s: 0.6,
        }
    }
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig19Result {
    /// Queue (KB) over time.
    pub queue_kb: Series,
    /// Per-flow rates (Gbps) over time.
    pub rates_gbps: Vec<Series>,
    /// Tail queue mean (KB).
    pub tail_queue_kb: f64,
    /// Tail rate shares per flow.
    pub tail_shares: Vec<f64>,
    /// Tail utilization (Σrates / C).
    pub tail_utilization: f64,
}

/// Run.
pub fn run(cfg: &Fig19Config) -> Fig19Result {
    let n = cfg.initial_fractions.len();
    let mut m = TimelyFluid::patched_pi_10g(cfg.q_ref_kb, n);
    let c = m.params.capacity_pps();
    let rates0: Vec<f64> = cfg.initial_fractions.iter().map(|&f| f * c).collect();
    let tr = m.simulate_with_rates(&rates0, cfg.duration_s);
    let from = cfg.duration_s * 0.8;

    let tail_rates: Vec<f64> = (0..n)
        .map(|i| tr.mean_from(m.rate_index(i), from))
        .collect();
    let total: f64 = tail_rates.iter().sum();
    let queue_kb: Series = m.queue_kb(&tr);

    Fig19Result {
        rates_gbps: (0..n).map(|i| m.rates_gbps(&tr, i)).collect(),
        tail_queue_kb: tail_mean(&queue_kb, from),
        queue_kb,
        tail_shares: tail_rates.iter().map(|&r| r / total).collect(),
        tail_utilization: total / c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pinned_but_unfair() {
        let res = run(&Fig19Config {
            duration_s: 0.5,
            ..Default::default()
        });
        // Queue at 300 KB.
        assert!(
            (res.tail_queue_kb - 300.0).abs() / 300.0 < 0.2,
            "queue {:.1} KB vs 300 KB",
            res.tail_queue_kb
        );
        // Link fully used.
        assert!(
            res.tail_utilization > 0.85,
            "utilization {:.3}",
            res.tail_utilization
        );
        // But the split stays skewed — Theorem 6.
        assert!(
            res.tail_shares[0] > 0.6,
            "unfairness must persist: shares {:?}",
            res.tail_shares
        );
    }
}

crate::impl_to_json!(Fig19Config {
    q_ref_kb,
    initial_fractions,
    duration_s
});
crate::impl_to_json!(Fig19Result {
    queue_kb,
    rates_gbps,
    tail_queue_kb,
    tail_shares,
    tail_utilization
});
