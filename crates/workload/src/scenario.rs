//! Scenario generation: the Figure 13 dumbbell workload.
//!
//! "The topology consists of 20 nodes — 10 senders and 10 receivers. All
//! traffic flows across the bottleneck link between the two switches […]
//! The traffic consists of long and short-lived flows, between pairs of
//! randomly selected sender and receiver nodes."

use crate::arrivals::PoissonArrivals;
use crate::flowsize::FlowSizeDist;
use desim::{SimRng, SimTime};
use faults::FaultSchedule;

/// One generated flow (engine-agnostic description).
#[derive(Debug, Clone, Copy)]
pub struct FlowDescriptor {
    /// Index into the sender host list.
    pub sender_index: usize,
    /// Index into the receiver host list.
    pub receiver_index: usize,
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Start time.
    pub start: SimTime,
}

/// Configuration for the FCT case study.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of sender/receiver pairs (10 in Figure 13).
    pub n_pairs: usize,
    /// Load factor; 1.0 ≡ `base_rate_bps` of offered load.
    pub load_factor: f64,
    /// Offered load at factor 1.0 (8 Gbps in the paper).
    pub base_rate_bps: f64,
    /// Simulated horizon for flow arrivals (seconds).
    pub horizon_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_pairs: 10,
            load_factor: 0.8,
            base_rate_bps: 8e9,
            horizon_s: 1.0,
            seed: 1,
        }
    }
}

/// Generate the flow list: Poisson arrivals, sizes from `dist`, uniformly
/// random sender→receiver pairs.
pub fn generate_flows(
    cfg: &ScenarioConfig,
    dist: &FlowSizeDist,
    rng: &mut SimRng,
) -> Vec<FlowDescriptor> {
    let arrivals = PoissonArrivals::for_load(cfg.load_factor, cfg.base_rate_bps, dist.mean_bytes());
    let times = arrivals.times(cfg.horizon_s, rng);
    times
        .into_iter()
        .map(|start| FlowDescriptor {
            sender_index: rng.next_below(cfg.n_pairs as u64) as usize,
            receiver_index: rng.next_below(cfg.n_pairs as u64) as usize,
            size_bytes: dist.sample(rng),
            start,
        })
        .collect()
}

/// Canned degradation modes a scenario can run under — the workload-level
/// hook into the [`faults`] plane. Each profile names one failure story
/// from the paper's operating regime (lost feedback, measurement noise,
/// PFC storms from a slow receiver, a routing detour) and compiles to a
/// seeded [`FaultSchedule`] via [`fault_schedule`]. Severities are fixed
/// per profile so a `(profile, seed)` pair is a complete, reproducible
/// description of the degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults: compiles to an empty schedule, which the engine treats
    /// as bit-identical to running with no schedule at all.
    Baseline,
    /// 2 % Bernoulli loss of data packets on the data link.
    DataLoss,
    /// 50 % Bernoulli loss of CNPs on the control (feedback) link — the
    /// congestion signal thins out while the queue keeps growing.
    CnpLoss,
    /// Exponential per-packet extra delay (mean 20 µs) on the data link —
    /// RTT measurement noise, the input delay-based schemes trust most.
    RttJitter,
    /// Periodic forced pauses (30 % duty at 1 ms period) on the data link,
    /// emulating PFC storms from a slow receiver.
    PauseStorm,
    /// Constant 150 µs extra one-way delay on the data link — a routing
    /// detour that shifts the RTT baseline without adding noise.
    DelaySpike,
}

impl FaultProfile {
    /// Every profile, baseline first — the row set of a degradation matrix.
    pub fn all() -> [FaultProfile; 6] {
        [
            FaultProfile::Baseline,
            FaultProfile::DataLoss,
            FaultProfile::CnpLoss,
            FaultProfile::RttJitter,
            FaultProfile::PauseStorm,
            FaultProfile::DelaySpike,
        ]
    }

    /// Stable label used in figure output and results JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultProfile::Baseline => "baseline",
            FaultProfile::DataLoss => "data-loss",
            FaultProfile::CnpLoss => "cnp-loss",
            FaultProfile::RttJitter => "rtt-jitter",
            FaultProfile::PauseStorm => "pause-storm",
            FaultProfile::DelaySpike => "delay-spike",
        }
    }
}

/// Compile a [`FaultProfile`] into a seeded [`FaultSchedule`] for a run of
/// `horizon_s` seconds. The fault window covers the middle 60 % of the
/// horizon (`[0.2·h, 0.8·h)`), leaving a clean ramp-up and a recovery tail
/// so before/during/after behaviour is all visible in one run.
///
/// `data_link` is the link carrying the flows' data packets (typically the
/// bottleneck); `ctrl_link` is the link carrying the feedback (CNP) path.
/// Only the [`FaultProfile::CnpLoss`] profile targets `ctrl_link`.
pub fn fault_schedule(
    profile: FaultProfile,
    seed: u64,
    data_link: usize,
    ctrl_link: usize,
    horizon_s: f64,
) -> FaultSchedule {
    let start = 0.2 * horizon_s;
    let dur = 0.6 * horizon_s;
    let s = FaultSchedule::new(seed);
    match profile {
        FaultProfile::Baseline => s,
        FaultProfile::DataLoss => s.packet_loss(start, data_link, 0.02, dur),
        FaultProfile::CnpLoss => s.cnp_loss(start, ctrl_link, 0.5, dur),
        FaultProfile::RttJitter => s.rtt_jitter(start, data_link, 20e-6, dur),
        FaultProfile::PauseStorm => s.pause_storm(start, data_link, 1e-3, 0.3, dur),
        FaultProfile::DelaySpike => s.delay_spike(start, data_link, 150e-6, dur),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The realized offered load (bits/s) of a flow list over the horizon.
    fn offered_load_bps(flows: &[FlowDescriptor], horizon_s: f64) -> f64 {
        let bytes: u64 = flows.iter().map(|f| f.size_bytes).sum();
        bytes as f64 * 8.0 / horizon_s
    }

    #[test]
    fn offered_load_close_to_target() {
        let cfg = ScenarioConfig {
            horizon_s: 20.0,
            load_factor: 0.8,
            ..Default::default()
        };
        let dist = FlowSizeDist::web_search();
        let mut rng = SimRng::new(5);
        let flows = generate_flows(&cfg, &dist, &mut rng);
        let load = offered_load_bps(&flows, cfg.horizon_s);
        let target = 0.8 * 8e9;
        assert!(
            (load - target).abs() / target < 0.15,
            "offered {load:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn endpoints_in_range_and_spread() {
        let cfg = ScenarioConfig {
            horizon_s: 5.0,
            ..Default::default()
        };
        let dist = FlowSizeDist::web_search();
        let mut rng = SimRng::new(6);
        let flows = generate_flows(&cfg, &dist, &mut rng);
        assert!(flows.len() > 100);
        let mut seen_senders = [false; 10];
        for f in &flows {
            assert!(f.sender_index < 10 && f.receiver_index < 10);
            seen_senders[f.sender_index] = true;
        }
        assert!(seen_senders.iter().all(|&s| s), "all senders used");
    }

    #[test]
    fn arrivals_sorted() {
        let cfg = ScenarioConfig::default();
        let dist = FlowSizeDist::web_search();
        let mut rng = SimRng::new(7);
        let flows = generate_flows(&cfg, &dist, &mut rng);
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ScenarioConfig::default();
        let dist = FlowSizeDist::web_search();
        let a = generate_flows(&cfg, &dist, &mut SimRng::new(42));
        let b = generate_flows(&cfg, &dist, &mut SimRng::new(42));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.size_bytes, y.size_bytes);
            assert_eq!(x.start, y.start);
            assert_eq!(x.sender_index, y.sender_index);
        }
    }

    #[test]
    fn fault_profiles_compile_to_valid_schedules() {
        for profile in FaultProfile::all() {
            let s = fault_schedule(profile, 7, 9, 8, 0.1);
            assert!(
                s.validate(10).is_ok(),
                "profile {} must validate",
                profile.label()
            );
            if profile == FaultProfile::Baseline {
                assert!(s.is_empty(), "baseline is the empty schedule");
            } else {
                assert_eq!(s.len(), 1, "{} is a single windowed event", profile.label());
                // Window sits strictly inside the horizon: clean ramp-up
                // before, recovery tail after.
                let ev = &s.events[0];
                assert!(ev.at_s > 0.0 && ev.at_s < 0.1);
            }
        }
    }

    #[test]
    fn fault_schedules_are_deterministic_and_distinct() {
        let a = fault_schedule(FaultProfile::RttJitter, 7, 9, 8, 0.1);
        let b = fault_schedule(FaultProfile::RttJitter, 7, 9, 8, 0.1);
        assert_eq!(
            a, b,
            "same (profile, seed, links, horizon) -> same schedule"
        );
        let profiles = FaultProfile::all();
        for (i, &p) in profiles.iter().enumerate() {
            for &q in &profiles[i + 1..] {
                assert_ne!(
                    fault_schedule(p, 7, 9, 8, 0.1),
                    fault_schedule(q, 7, 9, 8, 0.1),
                    "{} vs {} must differ",
                    p.label(),
                    q.label()
                );
            }
        }
    }

    #[test]
    fn cnp_loss_targets_the_control_link() {
        let s = fault_schedule(FaultProfile::CnpLoss, 1, 9, 8, 0.1);
        assert_eq!(s.events[0].kind.link(), Some(8));
        let s = fault_schedule(FaultProfile::DataLoss, 1, 9, 8, 0.1);
        assert_eq!(s.events[0].kind.link(), Some(9));
    }

    #[test]
    fn higher_load_more_flows() {
        let dist = FlowSizeDist::web_search();
        let lo = generate_flows(
            &ScenarioConfig {
                load_factor: 0.2,
                horizon_s: 10.0,
                ..Default::default()
            },
            &dist,
            &mut SimRng::new(1),
        );
        let hi = generate_flows(
            &ScenarioConfig {
                load_factor: 0.8,
                horizon_s: 10.0,
                ..Default::default()
            },
            &dist,
            &mut SimRng::new(1),
        );
        assert!(hi.len() > lo.len() * 3);
    }
}
