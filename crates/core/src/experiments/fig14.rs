//! Figure 14: median and 90th-percentile FCT of small flows vs load, for
//! DCQCN, TIMELY and Patched TIMELY on the Figure 13 dumbbell.
//!
//! "The X axis shows relative load: load factor of 1 corresponds to an
//! average of 8 Gbps of traffic on the bottleneck link. […] at higher
//! loads, FCT for both TIMELY and patched TIMELY is high, and highly
//! variable." Small flows are those under 100 KB (pFabric convention).

use crate::scenarios::{dumbbell_fct, Protocol};
use desim::{SimDuration, SimTime};
use netsim::EngineConfig;
use workload::{FctStats, FlowSizeDist, ScenarioConfig};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig14Config {
    /// Load factors to sweep.
    pub loads: Vec<f64>,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Arrival horizon per run (seconds); the run itself extends 50 %
    /// longer so late flows can drain.
    pub horizon_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Fig14Config {
    fn default() -> Self {
        Fig14Config {
            loads: vec![0.2, 0.4, 0.6, 0.8],
            protocols: vec![Protocol::Dcqcn, Protocol::Timely, Protocol::PatchedTimely],
            horizon_s: 0.4,
            seed: 1,
        }
    }
}

/// One protocol's curve.
#[derive(Debug, Clone)]
pub struct Fig14Curve {
    /// Protocol label.
    pub protocol: String,
    /// `(load, median small-flow FCT ms)`.
    pub median_ms: Vec<(f64, f64)>,
    /// `(load, p90 small-flow FCT ms)`.
    pub p90_ms: Vec<(f64, f64)>,
    /// `(load, completed small flows)`.
    pub small_counts: Vec<(f64, usize)>,
    /// `(load, bottleneck utilization)` over the horizon.
    pub utilization: Vec<(f64, f64)>,
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// One curve per protocol.
    pub curves: Vec<Fig14Curve>,
}

/// Run one (protocol, load) cell and return its stats.
pub fn run_cell(protocol: Protocol, load: f64, horizon_s: f64, seed: u64) -> (FctStats, f64) {
    let scenario = ScenarioConfig {
        n_pairs: 10,
        load_factor: load,
        base_rate_bps: 8e9,
        horizon_s,
        seed,
    };
    let dist = FlowSizeDist::web_search();
    let mut cfg = EngineConfig::default();
    cfg.rate_trace_window = None; // thousands of flows; skip rate traces
    let (mut eng, _bottleneck) = dumbbell_fct(
        protocol,
        &scenario,
        &dist,
        10e9,
        SimDuration::from_micros(1),
        cfg,
    );
    let report = eng.run(SimTime::from_secs_f64(horizon_s * 1.5));
    let mut stats = FctStats::default();
    for r in &report.fcts {
        stats.push(r.size_bytes, r.fct_s);
    }
    let delivered: u64 = report.delivered_bytes.iter().sum();
    let util = delivered as f64 * 8.0 / (horizon_s * 1.5) / 10e9;
    (stats, util)
}

/// Run the full sweep: every `(protocol, load)` cell builds its own engine
/// from its inputs, so the cells run through [`desim::par::par_map`] with
/// ordered results.
pub fn run(cfg: &Fig14Config) -> Fig14Result {
    let cells: Vec<(Protocol, f64)> = cfg
        .protocols
        .iter()
        .flat_map(|&proto| cfg.loads.iter().map(move |&load| (proto, load)))
        .collect();
    let mut results = desim::par::par_map(cells, |(proto, load)| {
        run_cell(proto, load, cfg.horizon_s, cfg.seed)
    })
    .into_iter();
    let mut curves = Vec::new();
    for &proto in &cfg.protocols {
        let mut median_ms = Vec::new();
        let mut p90_ms = Vec::new();
        let mut small_counts = Vec::new();
        let mut utilization = Vec::new();
        for (&load, (stats, util)) in cfg.loads.iter().zip(results.by_ref()) {
            median_ms.push((load, stats.small_median().unwrap_or(f64::NAN) * 1e3));
            p90_ms.push((load, stats.small_p90().unwrap_or(f64::NAN) * 1e3));
            small_counts.push((load, stats.small_count()));
            utilization.push((load, util));
        }
        curves.push(Fig14Curve {
            protocol: proto.label().to_string(),
            median_ms,
            p90_ms,
            small_counts,
            utilization,
        });
    }
    Fig14Result { curves }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_beats_timely_family_at_high_load() {
        // The paper's Figure 14 claim: DCQCN outperforms the delay-based
        // protocols at high load. In our simulator the penalty splits by
        // variant: Patched TIMELY (β = 0.008) pays in small-flow latency
        // (uncontrolled queue transients), original TIMELY pays in
        // long-flow throughput (slow δ = 10 Mbps recovery starves the
        // utilization) — see EXPERIMENTS.md for the mechanism discussion.
        // The utilization gap needs enough horizon for long flows to
        // accumulate; 0.3 s shows it clearly (see the fig14 bench for the
        // full-horizon sweep).
        let cfg = Fig14Config {
            loads: vec![0.8],
            protocols: vec![Protocol::Dcqcn, Protocol::Timely, Protocol::PatchedTimely],
            horizon_s: 0.3,
            seed: 2,
        };
        let res = run(&cfg);
        let dcqcn_p90 = res.curves[0].p90_ms[0].1;
        let timely_p90 = res.curves[1].p90_ms[0].1;
        let patched_p90 = res.curves[2].p90_ms[0].1;
        let dcqcn_util = res.curves[0].utilization[0].1;
        let timely_util = res.curves[1].utilization[0].1;
        assert!(
            patched_p90 > 2.0 * dcqcn_p90,
            "patched TIMELY p90 {patched_p90:.3} ms must exceed DCQCN {dcqcn_p90:.3} ms"
        );
        assert!(
            timely_p90 > dcqcn_p90 || timely_util < dcqcn_util * 0.97,
            "TIMELY must pay somewhere: p90 {timely_p90:.3} vs {dcqcn_p90:.3} ms, \
             util {timely_util:.3} vs {dcqcn_util:.3}"
        );
        for c in &res.curves {
            assert!(
                c.small_counts[0].1 > 20,
                "{} too few completions",
                c.protocol
            );
        }
    }

    #[test]
    fn fct_grows_with_load() {
        let cfg = Fig14Config {
            loads: vec![0.2, 0.8],
            protocols: vec![Protocol::Dcqcn],
            horizon_s: 0.12,
            seed: 3,
        };
        let res = run(&cfg);
        let lo = res.curves[0].p90_ms[0].1;
        let hi = res.curves[0].p90_ms[1].1;
        assert!(
            hi > lo,
            "p90 at load 0.8 ({hi:.3}) must exceed 0.2 ({lo:.3})"
        );
    }
}

crate::impl_to_json!(Fig14Config {
    loads,
    protocols,
    horizon_s,
    seed
});
crate::impl_to_json!(Fig14Curve {
    protocol,
    median_ms,
    p90_ms,
    small_counts,
    utilization
});
crate::impl_to_json!(Fig14Result { curves });
