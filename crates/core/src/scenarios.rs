//! Packet-level scenario builders shared by the experiment runners.

use desim::{SimDuration, SimRng, SimTime};
use netsim::cc::CongestionControl;
use netsim::{Engine, EngineConfig, FlowSpec, LinkId, Pacing, Topology};
use protocols::{DcqcnCc, DcqcnCcParams, TimelyCc, TimelyCcParams};
use workload::{generate_flows, generate_incast, FlowSizeDist, IncastConfig, ScenarioConfig};

/// Which protocol drives the senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// DCQCN (ECN-based) with per-packet pacing.
    Dcqcn,
    /// TIMELY (delay-based) with per-chunk pacing.
    Timely,
    /// TIMELY with per-packet pacing (the paper's model-validation mode).
    TimelyPerPacket,
    /// Patched TIMELY (Algorithm 2), per-chunk pacing.
    PatchedTimely,
}

impl Protocol {
    /// Human-readable label for figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Dcqcn => "DCQCN",
            Protocol::Timely => "TIMELY",
            Protocol::TimelyPerPacket => "TIMELY(per-packet)",
            Protocol::PatchedTimely => "PatchedTIMELY",
        }
    }

    /// Instantiate the congestion control (with the paper's defaults) and
    /// the matching pacing mode.
    pub fn build_cc(&self, start_divisor: f64) -> (Box<dyn CongestionControl>, Pacing, u32) {
        match self {
            Protocol::Dcqcn => (
                Box::new(DcqcnCc::new(DcqcnCcParams::default())),
                Pacing::PerPacket,
                64_000, // RTT samples unused; ack sparsely
            ),
            Protocol::Timely => {
                let mut p = TimelyCcParams::default();
                p.start_divisor = start_divisor;
                let seg = p.seg_bytes;
                (
                    Box::new(TimelyCc::new(p)),
                    Pacing::PerChunk { seg_bytes: seg },
                    seg,
                )
            }
            Protocol::TimelyPerPacket => {
                let mut p = TimelyCcParams::default();
                p.start_divisor = start_divisor;
                let seg = p.seg_bytes;
                // Per-packet pacing: the RTT probe is a single packet, so
                // the self-serialization to subtract is one MTU, not a
                // whole segment.
                p.seg_bytes = 1000;
                (Box::new(TimelyCc::new(p)), Pacing::PerPacket, seg)
            }
            Protocol::PatchedTimely => {
                let mut p = TimelyCcParams::patched();
                p.start_divisor = start_divisor;
                let seg = p.seg_bytes;
                (
                    Box::new(TimelyCc::new(p)),
                    Pacing::PerChunk { seg_bytes: seg },
                    seg,
                )
            }
        }
    }
}

/// Build the §3.1/§4.1 validation scenario: `n` long-lived flows from
/// distinct senders to one receiver through one switch.
///
/// Returns the engine plus the bottleneck link id (switch → receiver).
pub fn single_switch_longlived(
    protocol: Protocol,
    n_flows: usize,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
) -> (Engine, LinkId) {
    let (topo, senders, receiver) = Topology::single_switch(n_flows, bandwidth_bps, prop_delay);
    // The switch→receiver link is the bottleneck; find it.
    let switch = netsim::NodeId(n_flows + 1);
    let bottleneck = topo
        .next_hop(switch, receiver)
        .expect("switch connects receiver");
    let mut eng = Engine::new(topo, cfg);
    for (i, &s) in senders.iter().enumerate() {
        let (cc, pacing, ack_chunk) = protocol.build_cc(n_flows as f64);
        let _ = i;
        eng.add_flow(FlowSpec {
            src: s,
            dst: receiver,
            size_bytes: None,
            start: SimTime::ZERO,
            pacing,
            cc,
            ack_chunk_bytes: ack_chunk,
        });
    }
    (eng, bottleneck)
}

/// Build the Figure 13 FCT scenario: a dumbbell with workload-generated
/// finite flows. Returns the engine and the bottleneck link id.
pub fn dumbbell_fct(
    protocol: Protocol,
    scenario: &ScenarioConfig,
    dist: &FlowSizeDist,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
) -> (Engine, LinkId) {
    let (topo, senders, receivers, bottleneck) =
        Topology::dumbbell(scenario.n_pairs, bandwidth_bps, prop_delay);
    let mut rng = SimRng::new(scenario.seed);
    let flows = generate_flows(scenario, dist, &mut rng);
    let mut eng = Engine::new(topo, cfg);
    for f in &flows {
        // TIMELY's start rate is C/(N+1) where N counts the *sender's own*
        // active flows ([21]); in this workload a sender rarely has another
        // concurrent flow, so new flows enter at line rate — the inrush
        // behaviour behind the paper's Figure 16 queue spikes. DCQCN always
        // starts at line rate by specification.
        let (cc, pacing, ack_chunk) = protocol.build_cc(1.0);
        eng.add_flow(FlowSpec {
            src: senders[f.sender_index],
            dst: receivers[f.receiver_index],
            size_bytes: Some(f.size_bytes),
            start: f.start,
            pacing,
            cc,
            ack_chunk_bytes: ack_chunk,
        });
    }
    (eng, bottleneck)
}

/// Build a fat-tree incast: a `k`-ary fat-tree with an incast burst mapped
/// onto its hosts. The oversubscribed link is the receiver's last hop
/// (edge switch → host); its id is returned as the bottleneck.
///
/// Flow ids follow the burst's deterministic start-time order, and ECMP
/// path hashes derive from `(cfg.seed, flow id, endpoints)`, so a given
/// `(k, incast, cfg)` triple reproduces the identical simulation bit for
/// bit regardless of `SIM_THREADS`.
pub fn fat_tree_incast(
    protocol: Protocol,
    k: usize,
    incast: &IncastConfig,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
) -> (Engine, LinkId) {
    let (topo, hosts) = Topology::fat_tree(k, bandwidth_bps, prop_delay);
    let burst = generate_incast(incast, hosts.len());
    let receiver = hosts[burst.receiver];
    // The receiver's edge switch sits one hop up; the bottleneck is the
    // downlink back to the host.
    let up = topo
        .next_hop(receiver, hosts[(burst.receiver + 1) % hosts.len()])
        .expect("fat-tree hosts are connected");
    let edge = topo.link(up).dst;
    let bottleneck = topo
        .next_hop(edge, receiver)
        .expect("edge switch connects its hosts");
    let mut eng = Engine::new(topo, cfg);
    for f in &burst.flows {
        // Incast senders typically source one response flow each, so flows
        // enter at line rate — the inrush the scenario is built to stress
        // (same reasoning as the dumbbell workload).
        let (cc, pacing, ack_chunk) = protocol.build_cc(1.0);
        eng.add_flow(FlowSpec {
            src: hosts[f.sender_index],
            dst: hosts[f.receiver_index],
            size_bytes: Some(f.size_bytes),
            start: f.start,
            pacing,
            cc,
            ack_chunk_bytes: ack_chunk,
        });
    }
    (eng, bottleneck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;

    #[test]
    fn dcqcn_two_flows_converge_to_fair_share() {
        // End-to-end packet-level fairness: the packet analogue of Fig 2.
        let (mut eng, bottleneck) = single_switch_longlived(
            Protocol::Dcqcn,
            2,
            10e9,
            SimDuration::from_micros(1),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_millis(100));
        // Delivered throughput over the tail should be close to 5 Gbps
        // per flow.
        for f in 0..2 {
            let tail: Vec<f64> = report.rate_traces[f]
                .iter()
                .filter(|&&(t, _)| t > 0.08)
                .map(|&(_, bps)| bps)
                .collect();
            assert!(!tail.is_empty());
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            assert!(
                (mean - 5e9).abs() / 5e9 < 0.12,
                "flow {f} tail rate {mean:.3e}"
            );
        }
        // The bottleneck queue must sit between the RED thresholds.
        let tr = &report.queue_traces[&bottleneck];
        let tail: Vec<f64> = tr
            .points()
            .iter()
            .filter(|&&(t, _)| t > 0.08)
            .map(|&(_, q)| q)
            .collect();
        let mean_q = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        assert!(
            mean_q > 1_000.0 && mean_q < 220_000.0,
            "queue mean {mean_q:.0} outside RED band"
        );
    }

    #[test]
    fn timely_keeps_link_busy() {
        let (mut eng, _b) = single_switch_longlived(
            Protocol::Timely,
            2,
            10e9,
            SimDuration::from_micros(1),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_millis(100));
        let total: u64 = report.delivered_bytes.iter().sum();
        let util = total as f64 * 8.0 / 0.1 / 10e9;
        assert!(util > 0.7, "utilization {util:.3}");
    }

    #[test]
    fn fat_tree_incast_completes_all_flows() {
        let incast = IncastConfig {
            n_senders: 16,
            bytes_per_sender: 32_000,
            ..Default::default()
        };
        let mut cfg = EngineConfig::default();
        cfg.rate_trace_window = None;
        let (mut eng, bottleneck) = fat_tree_incast(
            Protocol::Dcqcn,
            4,
            &incast,
            10e9,
            SimDuration::from_micros(1),
            cfg,
        );
        let report = eng.run(SimTime::from_millis(60));
        assert_eq!(report.fcts.len(), 16, "every incast flow must finish");
        assert!(report.queue_traces.contains_key(bottleneck));
        for r in &report.fcts {
            let ideal = r.size_bytes as f64 * 8.0 / 10e9;
            assert!(r.fct_s >= ideal * 0.99, "fct below serialization bound");
        }
        // 16:1 fan-in over a 10 Gbps last hop: total service time is at
        // least 16 × 32 KB / 10 Gbps ≈ 410 µs, so the slowest flow must
        // take several times a single flow's ideal FCT.
        let worst = report.fcts.iter().map(|r| r.fct_s).fold(0.0, f64::max);
        assert!(
            worst > 3.0 * (32_000.0 * 8.0 / 10e9),
            "no fan-in contention"
        );
    }

    #[test]
    fn dumbbell_fct_smoke() {
        let scenario = ScenarioConfig {
            n_pairs: 10,
            load_factor: 0.4,
            base_rate_bps: 8e9,
            horizon_s: 0.05,
            seed: 3,
        };
        let dist = FlowSizeDist::web_search();
        let (mut eng, bottleneck) = dumbbell_fct(
            Protocol::Dcqcn,
            &scenario,
            &dist,
            10e9,
            SimDuration::from_micros(1),
            EngineConfig::default(),
        );
        let report = eng.run(SimTime::from_millis(150));
        assert!(!report.fcts.is_empty(), "flows must complete");
        assert!(report.queue_traces.contains_key(bottleneck));
        // All FCTs positive and no impossible values.
        for r in &report.fcts {
            let ideal = r.size_bytes as f64 * 8.0 / 10e9;
            assert!(r.fct_s >= ideal * 0.99, "fct below serialization bound");
        }
    }
}

crate::impl_to_json_debug!(Protocol);
