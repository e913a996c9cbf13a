//! Figure 10: impact of per-burst pacing on TIMELY (packet-level).
//!
//! (a) with 16 KB chunks, the burst "noise" de-correlates the two flows
//! and TIMELY appears to converge; (b) with 64 KB chunks, the initial
//! near-simultaneous bursts ("incast") produce a huge RTT sample, both
//! flows slash their rates (Algorithm 1 line 8), and the slow δ = 10 Mbps
//! additive recovery takes a long time to climb back.

use crate::experiments::Series;
use desim::{SimDuration, SimTime};
use netsim::{Engine, EngineConfig, FlowSpec, Pacing, Topology};
use protocols::{TimelyCc, TimelyCcParams};

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

/// Run the burst-pacing contrast.
pub fn run(cfg: &Fig10Config) -> Fig10Result {
    let mut panels = Vec::new();
    for &seg in &cfg.seg_sizes {
        let (topo, senders, receiver) =
            Topology::single_switch(2, 10e9, SimDuration::from_micros(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        for &s in &senders {
            let mut p = TimelyCcParams::default();
            p.seg_bytes = seg;
            p.start_divisor = 2.0;
            eng.add_flow(FlowSpec {
                src: s,
                dst: receiver,
                size_bytes: None,
                start: SimTime::ZERO,
                pacing: Pacing::PerChunk { seg_bytes: seg },
                cc: Box::new(TimelyCc::new(p)),
                ack_chunk_bytes: seg,
            });
        }
        let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
        let rates_gbps: Vec<Series> = report
            .rate_traces
            .iter()
            .map(|tr| tr.iter().map(|&(t, bps)| (t, bps / 1e9)).collect())
            .collect();
        let queue_kb: Series = report
            .queue_traces
            .values()
            .max_by_key(|tr| tr.len())
            .map(|tr| tr.points().iter().map(|&(t, b)| (t, b / 1000.0)).collect())
            .unwrap_or_default();

        let window_mean = |from: f64, to: f64| -> f64 {
            let mut total = 0.0;
            for tr in &rates_gbps {
                let pts: Vec<f64> = tr
                    .iter()
                    .filter(|&&(t, _)| t >= from && t < to)
                    .map(|&(_, v)| v)
                    .collect();
                if !pts.is_empty() {
                    total += pts.iter().sum::<f64>() / pts.len() as f64;
                }
            }
            total
        };
        panels.push(Fig10Panel {
            seg_bytes: seg,
            tail_agg_gbps: window_mean(cfg.duration_s * 0.7, cfg.duration_s),
            early_agg_gbps: window_mean(0.0, 0.05),
            rates_gbps,
            queue_kb,
        });
    }
    Fig10Result { panels }
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
