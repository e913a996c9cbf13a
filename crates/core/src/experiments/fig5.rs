//! Figure 5: the DCQCN instability of Figure 4 confirmed with packet-level
//! simulations — 10 flows with an 85 µs control loop oscillate; 2 flows do
//! not.
//!
//! In the packet simulator the control-loop delay is realized with link
//! propagation delays: τ* ≈ 2 hops of data path + 2 hops of CNP return.

use crate::experiments::{queue_kb, rate_gbps, tail_p2p, Series};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use netsim::EngineConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Flow counts to contrast.
    pub flow_counts: Vec<usize>,
    /// One-hop propagation delay (µs); the effective loop delay is ~4×.
    pub hop_delay_us: u64,
    /// Bandwidth in Gbps.
    pub bandwidth_gbps: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            flow_counts: vec![2, 10, 64],
            hop_delay_us: 21, // ≈ 85 µs loop
            bandwidth_gbps: 40.0,
            duration_s: 0.1,
        }
    }
}

/// One packet-level run.
#[derive(Debug, Clone)]
pub struct Fig5Panel {
    /// Number of flows.
    pub n_flows: usize,
    /// Bottleneck queue (KB) over time.
    pub queue_kb: Series,
    /// Flow-0 delivered rate (Gbps) over time.
    pub rate_gbps: Series,
    /// Queue peak-to-peak over the tail (KB).
    pub queue_p2p_kb: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One panel per flow count.
    pub panels: Vec<Fig5Panel>,
}

/// Run the packet-level stability contrast: one independent engine per flow
/// count, in parallel with ordered results.
pub fn run(cfg: &Fig5Config) -> Fig5Result {
    let run_one = |n: usize| {
        let (mut eng, bottleneck) = single_switch_longlived(
            Protocol::Dcqcn,
            n,
            cfg.bandwidth_gbps * 1e9,
            SimDuration::from_micros(cfg.hop_delay_us),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
        let queue_kb = queue_kb(&report, bottleneck);
        let rate_gbps = rate_gbps(&report, 0);
        let p2p = tail_p2p(&queue_kb, cfg.duration_s * 0.5);
        Fig5Panel {
            n_flows: n,
            queue_kb,
            rate_gbps,
            queue_p2p_kb: p2p,
        }
    };
    let panels = desim::par::par_map(cfg.flow_counts.clone(), run_one);
    Fig5Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_flows_oscillate_more_than_two() {
        let cfg = Fig5Config {
            flow_counts: vec![2, 10],
            duration_s: 0.08,
            ..Default::default()
        };
        let res = run(&cfg);
        let p2 = res.panels[0].queue_p2p_kb;
        let p10 = res.panels[1].queue_p2p_kb;
        assert!(
            p10 > 1.5 * p2,
            "packet-level N=10 must oscillate more: {p2:.1} vs {p10:.1} KB"
        );
    }
}

crate::impl_to_json!(Fig5Config {
    flow_counts,
    hop_delay_us,
    bandwidth_gbps,
    duration_s
});
crate::impl_to_json!(Fig5Panel {
    n_flows,
    queue_kb,
    rate_gbps,
    queue_p2p_kb
});
crate::impl_to_json!(Fig5Result { panels });
