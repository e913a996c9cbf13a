//! Extension: ECN-before-PFC (the deployment rule the paper's model
//! assumes: "We assume that ECN marking is triggered before PFC").
//!
//! With PFC alone (ECN disabled), the bottleneck backlog climbs to the
//! PAUSE threshold and pausing propagates upstream — the blunt per-link
//! mechanism with its head-of-line side effects. With DCQCN's ECN marking
//! configured *below* the PFC threshold, end-to-end congestion control
//! reacts first and (almost) no PAUSE is ever generated. This experiment
//! measures PAUSE activity and queue levels in both configurations.

use crate::experiments::{goodput_gbps, queue_kb, tail};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{SimDuration, SimTime};
use netsim::{EngineConfig, PfcConfig, RedConfig};

/// Configuration.
#[derive(Debug, Clone)]
pub struct ExtPfcConfig {
    /// Flows at the bottleneck.
    pub n_flows: usize,
    /// PFC pause threshold (bytes).
    pub pause_threshold_bytes: u64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for ExtPfcConfig {
    fn default() -> Self {
        ExtPfcConfig {
            n_flows: 4,
            pause_threshold_bytes: 400_000,
            duration_s: 0.1,
        }
    }
}

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct ExtPfcOutcome {
    /// Label.
    pub label: String,
    /// PAUSE transitions observed.
    pub pauses: u64,
    /// Total paused port-seconds.
    pub paused_s: f64,
    /// Max bottleneck queue (KB).
    pub max_queue_kb: f64,
    /// Aggregate goodput (Gbps).
    pub goodput_gbps: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct ExtPfcResult {
    /// ECN+PFC vs PFC-only.
    pub outcomes: Vec<ExtPfcOutcome>,
}

fn run_one(cfg: &ExtPfcConfig, ecn: bool) -> ExtPfcOutcome {
    let mut ecfg = EngineConfig::default();
    ecfg.pfc = Some(PfcConfig {
        pause_threshold_bytes: cfg.pause_threshold_bytes,
        resume_threshold_bytes: cfg.pause_threshold_bytes * 3 / 4,
    });
    if !ecn {
        // Disable marking entirely: thresholds above any reachable queue.
        ecfg.red = RedConfig {
            kmin_bytes: u64::MAX / 4,
            kmax_bytes: u64::MAX / 2,
            p_max: 0.0,
        };
    }
    let (mut eng, bottleneck) = single_switch_longlived(
        Protocol::Dcqcn,
        cfg.n_flows,
        10e9,
        SimDuration::from_micros(1),
        ecfg,
    );
    let report = eng.run(SimTime::from_secs_f64(cfg.duration_s));
    // Skip the line-rate start transient.
    let max_queue_kb = tail(&queue_kb(&report, bottleneck), 0.01)
        .into_iter()
        .fold(0.0f64, f64::max);
    ExtPfcOutcome {
        label: if ecn { "ECN before PFC" } else { "PFC only" }.to_string(),
        pauses: report.pfc_pauses,
        paused_s: report.pfc_paused_s,
        max_queue_kb,
        goodput_gbps: goodput_gbps(&report, cfg.duration_s),
    }
}

/// Run both configurations.
pub fn run(cfg: &ExtPfcConfig) -> ExtPfcResult {
    ExtPfcResult {
        outcomes: vec![run_one(cfg, true), run_one(cfg, false)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecn_prevents_pfc_engagement() {
        let res = run(&ExtPfcConfig::default());
        let ecn = &res.outcomes[0];
        let pfc_only = &res.outcomes[1];
        // With ECN configured below the PFC threshold, congestion control
        // reacts first: steady-state PAUSE activity is (near) zero.
        assert!(
            ecn.paused_s <= pfc_only.paused_s,
            "ECN must not pause more: {} vs {}",
            ecn.paused_s,
            pfc_only.paused_s
        );
        // PFC-only keeps flows at line rate (no end-to-end signal), so the
        // queue rides the PAUSE threshold and pausing is continuous.
        assert!(
            pfc_only.pauses > 10,
            "PFC-only must pause repeatedly, saw {}",
            pfc_only.pauses
        );
        assert!(
            pfc_only.max_queue_kb > ecn.max_queue_kb,
            "PFC-only queue {:.0} KB vs ECN {:.0} KB",
            pfc_only.max_queue_kb,
            ecn.max_queue_kb
        );
        // Both remain lossless and keep the link busy.
        assert!(ecn.goodput_gbps > 7.0, "{:.2}", ecn.goodput_gbps);
        assert!(pfc_only.goodput_gbps > 7.0, "{:.2}", pfc_only.goodput_gbps);
    }
}

crate::impl_to_json!(ExtPfcConfig {
    n_flows,
    pause_threshold_bytes,
    duration_s
});
crate::impl_to_json!(ExtPfcOutcome {
    label,
    pauses,
    paused_s,
    max_queue_kb,
    goodput_gbps
});
crate::impl_to_json!(ExtPfcResult { outcomes });
