//! Figure 8: TIMELY fluid model vs packet-level simulation.
//!
//! "The starting rate for each flow is set to be 1/N of the link bandwidth
//! […] we use per-packet pacing. We see the fluid model and the simulator
//! are in good agreement." Parameters are footnote 4's recommended values
//! on 10 Gbps.

use crate::experiments::{goodput_gbps, queue_kb, rate_gbps, tail_mean, Series};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use models::timely::{TimelyFluid, TimelyLaw, TimelyParams};
use netsim::EngineConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Flow counts.
    pub flow_counts: Vec<usize>,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            flow_counts: vec![2, 10],
            duration_s: 0.1,
        }
    }
}

/// One panel.
#[derive(Debug, Clone)]
pub struct Fig8Panel {
    /// Number of flows.
    pub n_flows: usize,
    /// Fluid queue (KB) over time.
    pub fluid_queue_kb: Series,
    /// Packet-sim queue (KB) over time.
    pub sim_queue_kb: Series,
    /// Fluid flow-0 rate (Gbps).
    pub fluid_rate_gbps: Series,
    /// Sim flow-0 delivered rate (Gbps).
    pub sim_rate_gbps: Series,
    /// Tail mean queues (fluid, sim) in KB.
    pub tail_queues_kb: (f64, f64),
    /// Tail aggregate throughputs (fluid, sim) in Gbps.
    pub tail_agg_gbps: (f64, f64),
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// One panel per flow count.
    pub panels: Vec<Fig8Panel>,
}

/// Run the comparison.
pub fn run(cfg: &Fig8Config) -> Fig8Result {
    let mut panels = Vec::new();
    for &n in &cfg.flow_counts {
        // Fluid.
        let params = TimelyParams::default_10g();
        let mut fluid = TimelyFluid::new(params.clone(), TimelyLaw::Original, n);
        let trace = fluid.simulate(cfg.duration_s);
        let fluid_queue_kb = fluid.queue_kb(&trace);
        let fluid_rate_gbps = fluid.rates_gbps(&trace, 0);
        let fluid_agg: f64 = (0..n)
            .map(|i| {
                models::units::pps_to_gbps(
                    trace.mean_from(fluid.rate_index(i), cfg.duration_s * 0.7),
                    params.packet_bytes,
                )
            })
            .sum();

        // Packet sim, per-packet pacing as in the paper's validation.
        let (mut eng, bottleneck) = single_switch_longlived(
            Protocol::TimelyPerPacket,
            n,
            10e9,
            SimDuration::from_micros(1),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
        let sim_queue_kb = queue_kb(&report, bottleneck);
        let sim_rate_gbps = rate_gbps(&report, 0);
        let from = cfg.duration_s * 0.7;
        let sim_agg = goodput_gbps(&report, cfg.duration_s);

        panels.push(Fig8Panel {
            n_flows: n,
            tail_queues_kb: (
                tail_mean(&fluid_queue_kb, from),
                tail_mean(&sim_queue_kb, from),
            ),
            tail_agg_gbps: (fluid_agg, sim_agg),
            fluid_queue_kb,
            sim_queue_kb,
            fluid_rate_gbps,
            sim_rate_gbps,
        });
    }
    Fig8Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_and_sim_agree_qualitatively() {
        let res = run(&Fig8Config {
            flow_counts: vec![2],
            duration_s: 0.08,
        });
        let p = &res.panels[0];
        // Both keep the link near capacity.
        assert!(
            p.tail_agg_gbps.0 > 8.0,
            "fluid aggregate {:.2}",
            p.tail_agg_gbps.0
        );
        assert!(
            p.tail_agg_gbps.1 > 7.0,
            "sim aggregate {:.2}",
            p.tail_agg_gbps.1
        );
        // Both hold a nonzero standing queue (TIMELY's T_low keeps one).
        assert!(
            p.tail_queues_kb.0 > 5.0,
            "fluid queue {:.1}",
            p.tail_queues_kb.0
        );
        assert!(
            p.tail_queues_kb.1 > 5.0,
            "sim queue {:.1}",
            p.tail_queues_kb.1
        );
    }
}

crate::impl_to_json!(Fig8Config {
    flow_counts,
    duration_s
});
crate::impl_to_json!(Fig8Panel {
    n_flows,
    fluid_queue_kb,
    sim_queue_kb,
    fluid_rate_gbps,
    sim_rate_gbps,
    tail_queues_kb,
    tail_agg_gbps
});
crate::impl_to_json!(Fig8Result { panels });
