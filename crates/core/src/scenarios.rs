//! Packet-level scenario builders: the one place an [`Engine`] is built and
//! a [`FlowSpec`] is written outside netsim. A figure picks a topology
//! builder and the senders on it; everything else is its own arithmetic.

use desim::{SimDuration, SimRng, SimTime};
use netsim::cc::CongestionControl;
use netsim::types::FlowId;
use netsim::{Engine, EngineConfig, FlowSpec, LinkId, NodeId, Pacing, Topology};
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

    /// The protocol's sender with the paper's defaults; TIMELY's start rate
    /// is `C / start_divisor`.
    pub fn build_cc(&self, start_divisor: f64) -> Sender {
        let timely = |mut p: TimelyCcParams| {
            p.start_divisor = start_divisor;
            p
        };
        match self {
            Protocol::Dcqcn => Sender::dcqcn(DcqcnCcParams::default()),
            Protocol::Timely => Sender::timely(timely(TimelyCcParams::default())),
            Protocol::TimelyPerPacket => {
                Sender::timely_per_packet(timely(TimelyCcParams::default()))
            }
            Protocol::PatchedTimely => Sender::timely(timely(TimelyCcParams::patched())),
        }
    }
}

/// What a flow needs beyond its endpoints, size and start: its congestion
/// control, its pacing and how often the receiver ACKs.
pub struct Sender {
    /// The congestion-control instance.
    pub cc: Box<dyn CongestionControl>,
    /// The pacing model.
    pub pacing: Pacing,
    /// The receiver ACKs every `ack_chunk_bytes` (see [`FlowSpec`]).
    pub ack_chunk_bytes: u32,
}

impl Sender {
    /// DCQCN, paced per packet. It reads no RTT samples, so ACKs are sparse.
    pub fn dcqcn(p: DcqcnCcParams) -> Sender {
        Sender {
            cc: Box::new(DcqcnCc::new(p)),
            pacing: Pacing::PerPacket,
            ack_chunk_bytes: 64_000,
        }
    }

    /// TIMELY or patched TIMELY, paced per chunk of `p.seg_bytes` with one
    /// ACK (one RTT sample) per chunk.
    pub fn timely(p: TimelyCcParams) -> Sender {
        let seg_bytes = p.seg_bytes;
        Sender {
            cc: Box::new(TimelyCc::new(p)),
            pacing: Pacing::PerChunk { seg_bytes },
            ack_chunk_bytes: seg_bytes,
        }
    }

    /// TIMELY paced per packet, still ACKed once per `p.seg_bytes`. The RTT
    /// probe is a single packet, so the self-serialization to subtract is
    /// one MTU, not a whole segment.
    pub fn timely_per_packet(mut p: TimelyCcParams) -> Sender {
        let ack_chunk_bytes = p.seg_bytes;
        p.seg_bytes = 1000;
        Sender {
            cc: Box::new(TimelyCc::new(p)),
            pacing: Pacing::PerPacket,
            ack_chunk_bytes,
        }
    }

    /// A flow of `size` bytes (`None`: long-lived) from `src` to `dst`.
    pub fn flow(self, src: NodeId, dst: NodeId, size: Option<u64>, start: SimTime) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            size_bytes: size,
            start,
            pacing: self.pacing,
            cc: self.cc,
            ack_chunk_bytes: self.ack_chunk_bytes,
        }
    }
}

/// The §3.1/§4.1 validation topology: `n_flows` long-lived flows from
/// distinct senders, each driven by a fresh `sender()`, through one switch
/// to one receiver.
///
/// Returns the engine plus the bottleneck link id (switch → receiver).
pub fn single_switch(
    n_flows: usize,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
    mut sender: impl FnMut() -> Sender,
) -> (Engine, LinkId) {
    let (topo, senders, receiver) = Topology::single_switch(n_flows, bandwidth_bps, prop_delay);
    // The switch→receiver link is the bottleneck; find it.
    let switch = NodeId(n_flows + 1);
    let bottleneck = topo
        .next_hop(switch, receiver)
        .expect("switch connects receiver");
    let mut eng = Engine::new(topo, cfg);
    for &s in &senders {
        eng.add_flow(sender().flow(s, receiver, None, SimTime::ZERO));
    }
    (eng, bottleneck)
}

/// [`single_switch`] with `protocol`'s sender at its defaults, TIMELY
/// starting at the fair share `C / n_flows`.
pub fn single_switch_longlived(
    protocol: Protocol,
    n_flows: usize,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
) -> (Engine, LinkId) {
    single_switch(n_flows, bandwidth_bps, prop_delay, cfg, || {
        protocol.build_cc(n_flows as f64)
    })
}

/// The parking lot: one long-lived flow across all `n_hops` bottlenecks and
/// one long-lived cross flow over each hop, every one driven by a fresh
/// `sender()`. Returns the engine, the long flow and the cross flows in hop
/// order.
pub fn parking_lot(
    n_hops: usize,
    bandwidth_bps: f64,
    prop_delay: SimDuration,
    cfg: EngineConfig,
    mut sender: impl FnMut() -> Sender,
) -> (Engine, FlowId, Vec<FlowId>) {
    let (topo, long_src, long_dst, cross_pairs) =
        Topology::parking_lot(n_hops, bandwidth_bps, prop_delay);
    let mut eng = Engine::new(topo, cfg);
    let mut long_lived = |src, dst| eng.add_flow(sender().flow(src, dst, None, SimTime::ZERO));
    let long = long_lived(long_src, long_dst);
    let cross = cross_pairs.iter().map(|&(s, d)| long_lived(s, d)).collect();
    (eng, long, cross)
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
        eng.add_flow(protocol.build_cc(1.0).flow(
            senders[f.sender_index],
            receivers[f.receiver_index],
            Some(f.size_bytes),
            f.start,
        ));
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
        eng.add_flow(protocol.build_cc(1.0).flow(
            hosts[f.sender_index],
            hosts[f.receiver_index],
            Some(f.size_bytes),
            f.start,
        ));
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
