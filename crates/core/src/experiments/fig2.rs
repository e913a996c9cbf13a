//! Figure 2: DCQCN fluid model vs packet-level simulation.
//!
//! "We simulate and model a simple topology, in which N senders, connected
//! to a switch, send to a single receiver […] DCQCN parameters are set to
//! the values proposed in \[31\]. Note that as per DCQCN specification, all
//! flows start at line rate. Figure 2 shows that the fluid model and the
//! simulator are in good agreement."

use crate::experiments::{queue_kb, rate_gbps, tail_mean, Series};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use netsim::EngineConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Flow counts to run (the paper shows N = 2 and N = 10-style panels).
    pub flow_counts: Vec<usize>,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Link speed in Gbps (the DCQCN hardware context is 40 GbE).
    pub bandwidth_gbps: f64,
    /// Per-link propagation delay in µs.
    pub prop_delay_us: f64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            flow_counts: vec![2, 10],
            duration_s: 0.05,
            bandwidth_gbps: 40.0,
            prop_delay_us: 1.0,
        }
    }
}

/// Result for one flow count.
#[derive(Debug, Clone)]
pub struct Fig2Panel {
    /// Number of flows.
    pub n_flows: usize,
    /// Fluid-model flow-0 rate (Gbps) over time.
    pub fluid_rate_gbps: Series,
    /// Fluid-model queue (KB) over time.
    pub fluid_queue_kb: Series,
    /// Packet-sim flow-0 delivered rate (Gbps) over time.
    pub sim_rate_gbps: Series,
    /// Packet-sim bottleneck queue (KB) over time.
    pub sim_queue_kb: Series,
    /// Tail-window mean rates: (fluid, sim), Gbps.
    pub tail_rates_gbps: (f64, f64),
    /// Tail-window mean queues: (fluid, sim), KB.
    pub tail_queues_kb: (f64, f64),
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// One panel per flow count.
    pub panels: Vec<Fig2Panel>,
}

/// Run the comparison.
pub fn run(cfg: &Fig2Config) -> Fig2Result {
    let mut panels = Vec::new();
    for &n in &cfg.flow_counts {
        // ---- fluid model ----
        let mut params = DcqcnParams::default_40g();
        params.capacity_gbps = cfg.bandwidth_gbps;
        // Control loop delay ≈ 2 hops of propagation each way (sender →
        // switch → receiver for data, receiver → sender for the CNP).
        params.feedback_delay_us = 4.0 * cfg.prop_delay_us;
        let mut fluid = DcqcnFluid::new(params.clone(), n);
        let trace = fluid.simulate(cfg.duration_s);
        let fluid_rate_gbps = fluid.rates_gbps(&trace, 0);
        let fluid_queue_kb = fluid.queue_kb(&trace);

        // ---- packet simulation ----
        let (mut eng, bottleneck) = single_switch_longlived(
            Protocol::Dcqcn,
            n,
            cfg.bandwidth_gbps * 1e9,
            SimDuration::from_micros(cfg.prop_delay_us.round() as u64),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
        let sim_rate_gbps = rate_gbps(&report, 0);
        let sim_queue_kb = queue_kb(&report, bottleneck);

        let from = cfg.duration_s * 0.7;
        panels.push(Fig2Panel {
            n_flows: n,
            tail_rates_gbps: (
                tail_mean(&fluid_rate_gbps, from),
                tail_mean(&sim_rate_gbps, from),
            ),
            tail_queues_kb: (
                tail_mean(&fluid_queue_kb, from),
                tail_mean(&sim_queue_kb, from),
            ),
            fluid_rate_gbps,
            fluid_queue_kb,
            sim_rate_gbps,
            sim_queue_kb,
        });
    }
    Fig2Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_and_sim_agree_for_two_flows() {
        let cfg = Fig2Config {
            flow_counts: vec![2],
            duration_s: 0.04,
            ..Default::default()
        };
        let res = run(&cfg);
        let p = &res.panels[0];
        let (fluid_r, sim_r) = p.tail_rates_gbps;
        // Both should be near fair share (20 Gbps).
        assert!(
            (fluid_r - 20.0).abs() < 2.0,
            "fluid tail rate {fluid_r:.2} Gbps"
        );
        // The packet simulator's sawtooth (per-packet marking, discrete
        // CNPs, header overhead) costs some goodput relative to the fluid
        // equilibrium; "good agreement" here means within ~20 %.
        assert!((sim_r - 20.0).abs() < 4.0, "sim tail rate {sim_r:.2} Gbps");
        // Queues in the same ballpark (the paper's "good agreement").
        let (fluid_q, sim_q) = p.tail_queues_kb;
        assert!(
            fluid_q > 0.0 && sim_q > 0.0,
            "queues must be nonzero: {fluid_q:.1} vs {sim_q:.1}"
        );
        assert!(
            (fluid_q - sim_q).abs() / fluid_q.max(sim_q) < 0.6,
            "queue disagreement: fluid {fluid_q:.1} KB vs sim {sim_q:.1} KB"
        );
    }
}

crate::impl_to_json!(Fig2Config {
    flow_counts,
    duration_s,
    bandwidth_gbps,
    prop_delay_us
});
crate::impl_to_json!(Fig2Panel {
    n_flows,
    fluid_rate_gbps,
    fluid_queue_kb,
    sim_rate_gbps,
    sim_queue_kb,
    tail_rates_gbps,
    tail_queues_kb
});
crate::impl_to_json!(Fig2Result { panels });
