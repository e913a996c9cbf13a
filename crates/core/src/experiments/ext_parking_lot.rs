//! Extension: the multi-bottleneck "parking lot" scenario (the paper's
//! future work: "These include multiple bottleneck scenario…").
//!
//! One long DCQCN flow crosses `n_hops` bottlenecks; one cross flow loads
//! each hop. Classic congestion-control theory: AIMD-style protocols give
//! the multi-hop flow *less* than the single-bottleneck fair share (it is
//! beaten at every hop), but it must not starve, and every link should
//! stay fully utilized with a controlled queue.

use crate::experiments::{rate_gbps, tail_mean, Series};
use crate::scenarios::{parking_lot, Sender};
use desim::{SimDuration, SimTime};
use netsim::EngineConfig;
use protocols::DcqcnCcParams;

/// Configuration.
#[derive(Debug, Clone)]
pub struct ParkingLotConfig {
    /// Number of bottleneck hops.
    pub n_hops: usize,
    /// Link bandwidth (Gbps).
    pub bandwidth_gbps: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for ParkingLotConfig {
    fn default() -> Self {
        ParkingLotConfig {
            n_hops: 3,
            bandwidth_gbps: 10.0,
            duration_s: 0.15,
        }
    }
}

/// Result.
#[derive(Debug, Clone)]
pub struct ParkingLotResult {
    /// Long-flow throughput (Gbps) over time.
    pub long_flow_gbps: Series,
    /// Long-flow tail throughput (Gbps).
    pub long_tail_gbps: f64,
    /// Per-hop cross-flow tail throughputs (Gbps).
    pub cross_tail_gbps: Vec<f64>,
    /// Per-hop link utilization over the tail.
    pub hop_utilization: Vec<f64>,
}

/// Run the parking lot with DCQCN everywhere.
pub fn run(cfg: &ParkingLotConfig) -> ParkingLotResult {
    let bw = cfg.bandwidth_gbps * 1e9;
    let (mut eng, long_id, cross_ids) = parking_lot(
        cfg.n_hops,
        bw,
        SimDuration::from_micros(1),
        EngineConfig::default(),
        || Sender::dcqcn(DcqcnCcParams::default()),
    );
    let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));

    let from = cfg.duration_s * 0.6;
    let tail = |f: usize| tail_mean(&report.rate_traces[f], from);
    let long_tail = tail(long_id.0);
    let cross_tails: Vec<f64> = cross_ids.iter().map(|id| tail(id.0) / 1e9).collect();
    let hop_utilization: Vec<f64> = cross_tails
        .iter()
        .map(|&c| (c * 1e9 + long_tail) / bw)
        .collect();

    ParkingLotResult {
        long_flow_gbps: rate_gbps(&report, long_id.0),
        long_tail_gbps: long_tail / 1e9,
        cross_tail_gbps: cross_tails,
        hop_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_flow_disadvantaged_but_not_starved() {
        let res = run(&ParkingLotConfig::default());
        let fair = 5.0; // single-hop fair share on 10 Gbps with 2 flows
        assert!(
            res.long_tail_gbps < fair,
            "long flow {:.2} Gbps should be below single-hop fair share",
            res.long_tail_gbps
        );
        assert!(
            res.long_tail_gbps > 0.5,
            "long flow must not starve: {:.2} Gbps",
            res.long_tail_gbps
        );
        // Cross flows pick up the slack; each hop well utilized.
        for (h, &u) in res.hop_utilization.iter().enumerate() {
            assert!(u > 0.8, "hop {h} utilization {u:.3}");
        }
        // Goodput accounting: cross flows get the larger share at each hop.
        for (h, &c) in res.cross_tail_gbps.iter().enumerate() {
            assert!(
                c > res.long_tail_gbps,
                "hop {h}: cross {:.2} vs long {:.2}",
                c,
                res.long_tail_gbps
            );
        }
    }
}

crate::impl_to_json!(ParkingLotConfig {
    n_hops,
    bandwidth_gbps,
    duration_s
});
crate::impl_to_json!(ParkingLotResult {
    long_flow_gbps,
    long_tail_gbps,
    cross_tail_gbps,
    hop_utilization
});
