//! Figure 17: DCQCN stability with ECN marking on ingress vs egress, two
//! flows and an 85 µs feedback delay.
//!
//! "To further confirm that ECN marking on egress is important for
//! stability, we run DCQCN with ECN marking on ingress for comparison.
//! Figure 17 shows that marking on ingress leads to queue length
//! fluctuation." Ingress marks sit in the queue behind earlier packets, so
//! the congestion signal inherits the queueing delay — exactly the
//! RTT-signal pathology of §5.2.

use crate::experiments::{queue_kb, tail_stddev, Series};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use netsim::{EngineConfig, MarkingMode};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig17Config {
    /// Flows at the bottleneck (2 in the paper).
    pub n_flows: usize,
    /// One-hop propagation delay (µs) — 21 µs ≈ an 85 µs loop.
    pub hop_delay_us: u64,
    /// Link bandwidth (Gbps). At 10 Gbps the queueing delay that ingress
    /// marking adds to the control loop (q/C) is large relative to the
    /// propagation delay, which is what makes the effect visible.
    pub bandwidth_gbps: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig17Config {
    fn default() -> Self {
        Fig17Config {
            n_flows: 2,
            hop_delay_us: 21,
            bandwidth_gbps: 10.0,
            duration_s: 0.1,
        }
    }
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Queue (KB) with egress marking.
    pub egress_queue_kb: Series,
    /// Queue (KB) with ingress marking.
    pub ingress_queue_kb: Series,
    /// Tail std-dev of the queue (KB): (egress, ingress).
    pub queue_stddev_kb: (f64, f64),
}

fn run_mode(cfg: &Fig17Config, mode: MarkingMode) -> Series {
    let mut ecfg = EngineConfig::default();
    ecfg.marking = mode;
    let (mut eng, bottleneck) = single_switch_longlived(
        Protocol::Dcqcn,
        cfg.n_flows,
        cfg.bandwidth_gbps * 1e9,
        SimDuration::from_micros(cfg.hop_delay_us),
        ecfg,
    );
    let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
    queue_kb(&report, bottleneck)
}

/// Run both marking modes.
pub fn run(cfg: &Fig17Config) -> Fig17Result {
    let egress = run_mode(cfg, MarkingMode::Egress);
    let ingress = run_mode(cfg, MarkingMode::Ingress);
    let from = cfg.duration_s * 0.5;
    let sd = (tail_stddev(&egress, from), tail_stddev(&ingress, from));
    Fig17Result {
        egress_queue_kb: egress,
        ingress_queue_kb: ingress,
        queue_stddev_kb: sd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingress_marking_fluctuates_more() {
        let res = run(&Fig17Config {
            duration_s: 0.08,
            ..Default::default()
        });
        let (egress_sd, ingress_sd) = res.queue_stddev_kb;
        assert!(
            ingress_sd > egress_sd,
            "ingress marking must fluctuate more: egress σ={egress_sd:.1} KB, ingress σ={ingress_sd:.1} KB"
        );
    }
}

crate::impl_to_json!(Fig17Config {
    n_flows,
    hop_delay_us,
    bandwidth_gbps,
    duration_s
});
crate::impl_to_json!(Fig17Result {
    egress_queue_kb,
    ingress_queue_kb,
    queue_stddev_kb
});
