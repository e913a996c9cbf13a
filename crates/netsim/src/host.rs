//! Hosts: the sender's pacer and NIC, and the receiver's responses.
//!
//! The sender side starts a flow, paces it out one packet or one chunk at a
//! time and reports the bytes released to its congestion control. What the
//! pacer releases is a [`Send`]: the flow, the payload with its ACK-request
//! and last-of-flow flags, and the release instant — every field of the data
//! packet but the instant its last hop began, which is the release until it
//! has one. The NIC queues the send and builds the [`Packet`] from it only
//! when it starts serializing it, so data waiting in a NIC — however long
//! PFC holds it there — takes 16 bytes, not a 24-byte arena slot. The
//! receiver side consumes what reaches its destination host —
//! delivered bytes and rate windows, a CNP for a marked packet coalesced to
//! the interval τ, an ACK where one was requested, the flow's completion —
//! and routes the control packets back; [`ReceiverFlows`] owns its state.

use super::{Engine, Ev, FctRecord, Touch};
use crate::cc::CcEvent;
use crate::flow::Pacing;
use crate::types::{FlowId, Packet, PacketKind, Send};
use desim::{SimDuration, SimTime};

/// Receiver-side state: one column per flow, indexed by [`FlowId`], and
/// what the receivers counted.
#[derive(Debug, Default)]
pub(super) struct ReceiverFlows {
    /// Last time a CNP was generated for the flow (τ coalescing).
    last_cnp: Vec<Option<SimTime>>,
    /// Payload bytes delivered (cumulative over runs).
    pub(super) delivered_bytes: Vec<u64>,
    /// The open rate window: payload bytes so far and when it opened.
    rate_window: Vec<(u64, SimTime)>,
    /// Closed rate windows as `(t_s, bps)`, taken by each run's report.
    pub(super) rate_traces: Vec<Vec<(f64, f64)>>,
    /// Data packets delivered.
    pub(super) data_packets: u64,
    /// CNPs generated.
    pub(super) cnps_sent: u64,
    /// Completions not yet taken by a report.
    pub(super) fcts: Vec<FctRecord>,
}

impl ReceiverFlows {
    /// Append the receiver-side state of a flow starting at `start`.
    pub(super) fn push(&mut self, start: SimTime) {
        self.last_cnp.push(None);
        self.delivered_bytes.push(0);
        self.rate_window.push((0, start));
        self.rate_traces.push(Vec::new());
    }
}

impl Engine {
    pub(super) fn flow_start(&mut self, f: FlowId) {
        let uplink = self.topo.out_links(self.senders.src[f.0])[0]; // hosts have exactly one
        let line = self.topo.link(uplink).bandwidth_bps;
        let now = self.now;
        let update = self.senders.cc[f.0].on_start(now, line);
        self.apply_update(f, update);
        if self.senders.rate_bps[f.0] <= 0.0 {
            self.senders.rate_bps[f.0] = line;
        }
        self.events.schedule(self.now, Ev::Pacer(f).pack());
    }

    /// Pacer: release the next packet (or chunk) of flow `f` into its NIC.
    pub(super) fn pacer_fire(&mut self, f: FlowId) {
        if self.senders.fully_sent(f) || self.senders.completed[f.0].is_some() {
            return;
        }
        self.catch_up(f, Touch::Own);
        let src = self.senders.src[f.0];
        let Some(uplink) =
            self.topo
                .next_hop_for(src, self.senders.dst[f.0], self.senders.path_hash[f.0])
        else {
            // add_flow validated both endpoints are connected hosts; if the
            // route vanished it is a bug, but stalling the flow beats aborting.
            debug_assert!(false, "no route for registered flow");
            return;
        };

        match self.senders.pacing[f.0] {
            Pacing::PerPacket => {
                let send = self.next_send(f, None);
                self.enqueue_send(uplink, send);
                let wire = send.packet().wire_bytes(&self.cfg);
                let gap =
                    SimDuration::serialization(wire as u64, self.senders.rate_bps[f.0].max(1e3));
                if !self.senders.fully_sent(f) {
                    self.events.schedule(self.now + gap, Ev::Pacer(f).pack());
                }
                self.notify_sent(f, send.payload() as u64);
            }
            Pacing::PerChunk { seg_bytes } => {
                // Release a whole chunk back-to-back (the NIC queue
                // serializes it at line rate), then idle until the average
                // rate matches the target.
                let mut chunk_payload = 0u64;
                let seg = seg_bytes.max(self.cfg.mtu_bytes) as u64;
                while chunk_payload < seg && !self.senders.fully_sent(f) {
                    let last_in_chunk = {
                        let remaining = self.senders.remaining(f);
                        let next_payload = remaining.min(self.cfg.mtu_bytes as u64);
                        chunk_payload + next_payload >= seg || remaining <= next_payload
                    };
                    let send = self.next_send(f, Some(last_in_chunk));
                    chunk_payload += send.payload() as u64;
                    self.enqueue_send(uplink, send);
                }
                self.notify_sent(f, chunk_payload);
                if !self.senders.fully_sent(f) {
                    let gap = SimDuration::serialization(
                        chunk_payload
                            + (chunk_payload / self.cfg.mtu_bytes as u64 + 1)
                                * self.cfg.header_bytes as u64,
                        self.senders.rate_bps[f.0].max(1e3),
                    );
                    self.events.schedule(self.now + gap, Ev::Pacer(f).pack());
                }
            }
        }
    }

    fn notify_sent(&mut self, f: FlowId, payload: u64) {
        let now = self.now;
        let update = self.senders.cc[f.0].on_event(now, CcEvent::SentBytes { bytes: payload });
        self.apply_update(f, update);
    }

    /// Release `f`'s next data packet as a send, advancing the flow's
    /// offset. Under per-packet pacing (`last_in_chunk` is `None`) it
    /// requests an ACK once per `ack_chunk_bytes`; in a per-chunk burst, iff
    /// it ends the chunk. Either way the ACK echoes the release instant:
    /// under per-packet pacing the RTT probe is the ack-requesting packet
    /// itself (hardware timestamps the probe's departure, so the sender's own
    /// pacing gaps do not pollute the sample), and a chunk is released in
    /// one instant.
    fn next_send(&mut self, f: FlowId, last_in_chunk: Option<bool>) -> Send {
        let s = &mut self.senders;
        let payload = s.remaining(f).min(self.cfg.mtu_bytes as u64) as u32;
        s.next_offset[f.0] += payload as u64;
        let last_of_flow = s.fully_sent(f);
        let ack_request = match last_in_chunk {
            Some(last_in_chunk) => last_in_chunk || last_of_flow,
            None => {
                s.since_ack_request[f.0] += payload;
                let ack = s.since_ack_request[f.0] >= s.ack_chunk_bytes[f.0] || last_of_flow;
                if ack {
                    s.since_ack_request[f.0] = 0;
                }
                ack
            }
        };
        Send::new(f, payload, ack_request, last_of_flow, self.now)
    }

    /// Consume a packet at its destination host.
    pub(super) fn consume(&mut self, pkt: Packet) {
        let f = pkt.flow();
        match pkt.kind() {
            PacketKind::Data {
                payload,
                ack_request,
                last_of_flow,
                chunk_sent_at,
            } => {
                let r = &mut self.receivers;
                r.data_packets += 1;
                r.delivered_bytes[f.0] += payload as u64;
                self.record_rate_sample(f, payload as u64);

                // DCQCN NP behaviour: CNP on marked packet, coalesced to τ.
                if pkt.ecn_marked() {
                    let due = match self.receivers.last_cnp[f.0] {
                        None => true,
                        Some(t) => self.now.saturating_since(t) >= self.cfg.cnp_interval,
                    };
                    if due {
                        self.receivers.last_cnp[f.0] = Some(self.now);
                        self.receivers.cnps_sent += 1;
                        if obs::trace::enabled() {
                            obs::trace::record(
                                self.now.as_secs_f64(),
                                obs::Event::CnpSent { flow: f.0 as u64 },
                            );
                        }
                        self.send_control(Packet::cnp(f, self.now));
                    }
                }
                if ack_request {
                    self.send_control(Packet::ack(f, chunk_sent_at, self.now));
                }
                if last_of_flow && self.senders.completed[f.0].is_none() {
                    self.catch_up(f, Touch::Hop(pkt.last_hop_at()));
                    let s = &mut self.senders;
                    s.completed[f.0] = Some(self.now);
                    let start = s.start[f.0];
                    let fct_s = self.now.saturating_since(start).as_secs_f64();
                    self.receivers.fcts.push(FctRecord {
                        flow: f.0,
                        size_bytes: s.size_bytes[f.0].unwrap_or(s.next_offset[f.0]),
                        start_s: start.as_secs_f64(),
                        fct_s,
                    });
                    // Streaming FCT percentiles: O(buckets) regardless of
                    // flow count.
                    obs::timeseries::observe("netsim.fct_ms", 0, fct_s * 1e3);
                }
            }
            kind @ (PacketKind::Ack { .. } | PacketKind::Cnp) => {
                if self.senders.completed[f.0].is_some() {
                    return;
                }
                self.catch_up(f, Touch::Hop(pkt.last_hop_at()));
                let event = match kind {
                    PacketKind::Ack { chunk_sent_at, .. } => CcEvent::RttSample {
                        rtt: self.now.saturating_since(chunk_sent_at),
                    },
                    _ => CcEvent::Cnp,
                };
                let now = self.now;
                let update = self.senders.cc[f.0].on_event(now, event);
                self.apply_update(f, update);
            }
        }
    }

    /// Answer a data packet with the control packet `pkt` of its flow,
    /// routed from the flow's destination host back to its source on the
    /// data's ECMP hash.
    fn send_control(&mut self, pkt: Packet) {
        let (f, s) = (pkt.flow(), &self.senders);
        let Some(l) = self
            .topo
            .next_hop_for(s.dst[f.0], s.src[f.0], s.path_hash[f.0])
        else {
            // Control packets reverse a validated data route; losing one is
            // recoverable (feedback is periodic), aborting is not.
            debug_assert!(false, "no control route");
            return;
        };
        let h = self.packets.alloc(pkt);
        self.enqueue(l, h);
    }

    fn record_rate_sample(&mut self, f: FlowId, bytes_in: u64) {
        let Some(window) = self.cfg.rate_trace_window else {
            return;
        };
        let (bytes, start) = &mut self.receivers.rate_window[f.0];
        *bytes += bytes_in;
        let elapsed = self.now.saturating_since(*start);
        if elapsed >= window {
            let bps = *bytes as f64 * 8.0 / elapsed.as_secs_f64();
            self.receivers.rate_traces[f.0].push((self.now.as_secs_f64(), bps));
            (*bytes, *start) = (0, self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::port::DataQueue;
    use super::super::tests::{flow, us};
    use super::*;
    use crate::cc::CcUpdate;
    use crate::config::EngineConfig;
    use crate::flow::FlowSpec;
    use crate::topology::Topology;
    use desim::SimTime;

    /// The packets the NIC of flow 0's sender would put on the wire, built
    /// from the sends its pacer released while the NIC was paused.
    fn queued_packets(eng: &Engine) -> Vec<Packet> {
        let uplink = eng.topo.out_links(eng.senders.src[0])[0];
        match &eng.ports.data_q[uplink.0] {
            DataQueue::Nic(q) => q.iter().map(|&s| s.packet()).collect(),
            DataQueue::Switch(_) => panic!("a host's uplink is a NIC"),
        }
    }

    /// Fire flow 0's pacer at each of `at_us`, its NIC paused, and return
    /// the packets of the sends it released, each with its release instant.
    fn release(pacing: Pacing, at_us: &[u64]) -> (Engine, Vec<(Packet, SimTime)>) {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        let mut spec = flow(senders[0], receiver, 5_500, 1e9);
        spec.pacing = pacing;
        spec.ack_chunk_bytes = 2_000;
        eng.add_flow(spec);
        let uplink = eng.topo.out_links(senders[0])[0];
        eng.ports.paused[uplink.0] = true;
        let mut released = Vec::new();
        for &t in at_us {
            eng.now = SimTime::from_micros(t);
            let before = queued_packets(&eng).len();
            eng.pacer_fire(FlowId(0));
            let after = queued_packets(&eng);
            released.extend(after[before..].iter().map(|&p| (p, eng.now)));
        }
        (eng, released)
    }

    /// Each packet's `(payload, ack_request, last_of_flow)`, checking the
    /// fields every data packet shares on the way.
    fn shape(eng: &Engine, released: &[(Packet, SimTime)]) -> Vec<(u32, bool, bool)> {
        released
            .iter()
            .map(|&(p, at)| {
                let PacketKind::Data {
                    payload,
                    ack_request,
                    last_of_flow,
                    chunk_sent_at,
                } = p.kind()
                else {
                    panic!("a send is data");
                };
                assert_eq!(p.flow(), FlowId(0));
                assert_eq!(p.wire_bytes(&eng.cfg), payload + eng.cfg.header_bytes);
                assert!(!p.ecn_marked());
                assert_eq!((chunk_sent_at, p.last_hop_at()), (at, at));
                (payload, ack_request, last_of_flow)
            })
            .collect()
    }

    #[test]
    fn per_packet_sends_build_the_released_packets() {
        // 5 500 bytes, one packet per firing, an ACK per 2 000 bytes and on
        // the last packet.
        let (eng, released) = release(Pacing::PerPacket, &[0, 3, 5, 8, 13, 21]);
        assert_eq!(
            shape(&eng, &released),
            [
                (1_000, false, false),
                (1_000, true, false),
                (1_000, false, false),
                (1_000, true, false),
                (1_000, false, false),
                (500, true, true),
            ]
        );
        assert_eq!(eng.senders.next_offset[0], 5_500);
    }

    #[test]
    fn per_chunk_sends_build_the_released_packets() {
        // 2 000-byte chunks: the last packet of each asks for the ACK, and
        // every packet of a chunk carries the chunk's release instant.
        let seg = Pacing::PerChunk { seg_bytes: 2_000 };
        let (eng, released) = release(seg, &[0, 7, 40]);
        assert_eq!(
            shape(&eng, &released),
            [
                (1_000, false, false),
                (1_000, true, false),
                (1_000, false, false),
                (1_000, true, false),
                (1_000, false, false),
                (500, true, true),
            ]
        );
        let starts: Vec<u64> = released.iter().map(|&(_, t)| t.as_nanos()).collect();
        assert_eq!(starts, [0, 0, 7_000, 7_000, 40_000, 40_000]);
    }

    #[test]
    fn single_flow_delivers_all_bytes() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(flow(senders[0], receiver, 100_000, 5e9));
        let report = eng.run(SimTime::from_millis(10));
        assert_eq!(report.delivered_bytes[0], 100_000);
        assert_eq!(report.fcts.len(), 1);
        assert_eq!(report.fcts[0].size_bytes, 100_000);
    }

    #[test]
    fn sub_mtu_flow_completes() {
        // A 1-byte flow: one packet, one completion, exact byte accounting.
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(flow(senders[0], receiver, 1, 1e9));
        let report = eng.run(SimTime::from_millis(1));
        assert_eq!(report.delivered_bytes[0], 1);
        assert_eq!(report.fcts.len(), 1);
        assert_eq!(report.data_packets, 1);
    }

    #[test]
    fn exact_mtu_multiple_flow_completes() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(flow(senders[0], receiver, 3_000, 1e9)); // 3 packets
        let report = eng.run(SimTime::from_millis(1));
        assert_eq!(report.delivered_bytes[0], 3_000);
        assert_eq!(report.data_packets, 3);
    }

    #[test]
    fn delayed_start_flow() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        let mut spec = flow(senders[0], receiver, 10_000, 5e9);
        spec.start = SimTime::from_millis(5);
        eng.add_flow(spec);
        let report = eng.run(SimTime::from_millis(10));
        assert_eq!(report.fcts.len(), 1);
        assert!(
            report.fcts[0].start_s >= 0.005,
            "start respected: {}",
            report.fcts[0].start_s
        );
    }

    #[test]
    fn fct_close_to_ideal_for_uncongested_flow() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        // 1 MB at 10 Gbps ≈ 800 µs + small store-and-forward and prop.
        eng.add_flow(flow(senders[0], receiver, 1_000_000, 10e9));
        let report = eng.run(SimTime::from_millis(50));
        let fct = report.fcts[0].fct_s;
        let ideal = 1_000_000.0 * 8.0 / 10e9;
        assert!(fct >= ideal, "fct {fct} can't beat serialization {ideal}");
        assert!(fct < ideal * 1.2 + 20e-6, "fct {fct} too slow vs {ideal}");
    }

    #[test]
    fn chunk_pacing_produces_completion_acks_and_rtt() {
        // Per-chunk pacing with a CC that counts RTT samples.
        #[derive(Debug)]
        struct RttCounter {
            samples: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl crate::cc::CongestionControl for RttCounter {
            fn on_start(&mut self, _now: SimTime, line: f64) -> CcUpdate {
                CcUpdate::rate(line / 2.0)
            }
            fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcUpdate {
                if matches!(ev, CcEvent::RttSample { .. }) {
                    self.samples.set(self.samples.get() + 1);
                }
                CcUpdate::none()
            }
            fn current_rate_bps(&self) -> f64 {
                5e9
            }
        }
        let samples = std::rc::Rc::new(std::cell::Cell::new(0));
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(FlowSpec {
            src: senders[0],
            dst: receiver,
            size_bytes: Some(160_000),
            start: SimTime::ZERO,
            pacing: Pacing::PerChunk { seg_bytes: 16_000 },
            cc: Box::new(RttCounter {
                samples: samples.clone(),
            }),
            ack_chunk_bytes: 16_000,
        });
        let report = eng.run(SimTime::from_millis(10));
        assert_eq!(report.delivered_bytes[0], 160_000);
        // 160 KB / 16 KB chunks = 10 completion events; the final chunk's
        // ACK races flow completion (the engine drops samples for completed
        // flows), so 9 are guaranteed to reach the CC.
        assert!(
            samples.get() >= 9,
            "one RTT sample per chunk, got {}",
            samples.get()
        );
    }

    #[test]
    fn control_packets_prioritized() {
        // With a deep data backlog, a CNP still crosses quickly: flood the
        // switch→receiver port and check CNP round trip stays near the
        // propagation+serialization floor. Indirect check: CNPs are sent
        // and flows react before the queue drains.
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let cfg = EngineConfig::default();
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 3_000_000, 9e9));
        eng.add_flow(flow(senders[1], receiver, 3_000_000, 9e9));
        let report = eng.run(SimTime::from_millis(30));
        assert!(report.cnps_sent > 5);
    }
}
