//! Figure 10: impact of per-burst pacing on TIMELY (packet-level).
//!
//! (a) with 16 KB chunks, the burst "noise" de-correlates the two flows
//! and TIMELY appears to converge; (b) with 64 KB chunks, the initial
//! near-simultaneous bursts ("incast") produce a huge RTT sample, both
//! flows slash their rates (Algorithm 1 line 8), and the slow δ = 10 Mbps
//! additive recovery takes a long time to climb back.

use crate::experiments::{queue_kb, rate_gbps, window_agg, Series};
use crate::scenarios::{single_switch, Sender};
use desim::{SimDuration, SimTime};
use netsim::{EngineConfig, SimReport};
use protocols::TimelyCcParams;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Chunk sizes to contrast (bytes).
    pub seg_sizes: Vec<u32>,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            seg_sizes: vec![16_000, 64_000],
            duration_s: 0.3,
        }
    }
}

/// One chunk-size panel.
#[derive(Debug, Clone)]
pub struct Fig10Panel {
    /// Segment size in bytes.
    pub seg_bytes: u32,
    /// Per-flow delivered rates (Gbps).
    pub rates_gbps: Vec<Series>,
    /// Bottleneck queue (KB).
    pub queue_kb: Series,
    /// Aggregate tail throughput (Gbps).
    pub tail_agg_gbps: f64,
    /// Aggregate throughput over the first 50 ms (Gbps) — exposes the
    /// incast collapse of 64 KB chunks.
    pub early_agg_gbps: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// One panel per segment size.
    pub panels: Vec<Fig10Panel>,
}

/// Two TIMELY flows pacing `seg_bytes` chunks through one switch for
/// `duration_s` under `ecfg`: the panel, and the report it was read from.
pub fn panel(
    seg_bytes: u32,
    bandwidth_bps: f64,
    duration_s: f64,
    ecfg: EngineConfig,
) -> (Fig10Panel, SimReport) {
    let hop = SimDuration::from_micros(1);
    let (mut eng, bottleneck) = single_switch(2, bandwidth_bps, hop, ecfg, || {
        Sender::timely(TimelyCcParams {
            seg_bytes,
            start_divisor: 2.0,
            ..Default::default()
        })
    });
    let report = eng.run(SimTime::from_secs_f64(duration_s));
    let rates_gbps: Vec<Series> = (0..2).map(|f| rate_gbps(&report, f)).collect();
    let panel = Fig10Panel {
        seg_bytes,
        tail_agg_gbps: window_agg(&rates_gbps, duration_s * 0.7, duration_s),
        early_agg_gbps: window_agg(&rates_gbps, 0.0, 0.05),
        queue_kb: queue_kb(&report, bottleneck),
        rates_gbps,
    };
    (panel, report)
}

/// Run the burst-pacing contrast.
pub fn run(cfg: &Fig10Config) -> Fig10Result {
    let panels = cfg
        .seg_sizes
        .iter()
        .map(|&seg| panel(seg, 10e9, cfg.duration_s, EngineConfig::default()).0);
    Fig10Result {
        panels: panels.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_pacing_converges_and_64k_ramps_slowly() {
        let res = run(&Fig10Config {
            duration_s: 0.25,
            ..Default::default()
        });
        let p16 = &res.panels[0];
        let p64 = &res.panels[1];
        // 16 KB chunks reach decent utilization.
        assert!(
            p16.tail_agg_gbps > 6.0,
            "16KB tail {:.2} Gbps",
            p16.tail_agg_gbps
        );
        // The 64 KB early window is depressed relative to 16 KB (incast
        // collapse + slow additive recovery).
        assert!(
            p64.early_agg_gbps < p16.early_agg_gbps,
            "64KB early {:.2} vs 16KB early {:.2}",
            p64.early_agg_gbps,
            p16.early_agg_gbps
        );
    }
}

crate::impl_to_json!(Fig10Config {
    seg_sizes,
    duration_s
});
crate::impl_to_json!(Fig10Panel {
    seg_bytes,
    rates_gbps,
    queue_kb,
    tail_agg_gbps,
    early_agg_gbps
});
crate::impl_to_json!(Fig10Result { panels });
