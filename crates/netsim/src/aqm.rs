//! Switch marking: the ECN decision and the PI controller that can drive it.
//!
//! The marking probability is the RED curve at the queue a packet sees
//! (Eq 3) or, under a [`PiAqmConfig`](crate::config::PiAqmConfig), the
//! port's PI controller state (Eq 32), updated every `update_interval`. The
//! port asks for the decision at egress or at ingress, as
//! [`MarkingMode`](crate::config::MarkingMode) says; [`Marker`] owns what the
//! decision draws from and what it counts.

use super::{Engine, Ev};
use crate::topology::LinkId;
use crate::types::PacketHandle;
use desim::{SimRng, SimTime};

/// The marking state: the marking RNG, each port's PI controller and the
/// marks made.
#[derive(Debug)]
pub(super) struct Marker {
    /// Seeded from the engine seed; drives the marking draws only.
    rng: SimRng,
    /// PI controller state per link: the marking probability and the queue
    /// at the previous tick.
    pi_p: Vec<f64>,
    pi_q_old: Vec<u64>,
    /// The PI tick is on the event queue; it re-arms itself, so a later run
    /// on the engine finds it pending.
    armed: bool,
    /// Packets marked.
    pub(super) marked: u64,
    /// When the first mark was made.
    pub(super) first_mark_time: Option<SimTime>,
}

impl Marker {
    pub(super) fn new(seed: u64, links: usize) -> Self {
        Marker {
            rng: SimRng::new(seed),
            pi_p: vec![0.0; links],
            pi_q_old: vec![0; links],
            armed: false,
            marked: 0,
            first_mark_time: None,
        }
    }
}

impl Engine {
    /// The marking decision for data packet `h` on switch port `link`
    /// holding `queue_bytes`: one draw from the marking RNG whenever the RED
    /// curve (or the PI controller) gives a positive probability.
    pub(super) fn mark_ecn(&mut self, link: LinkId, h: PacketHandle, queue_bytes: u64) {
        let m = &mut self.marker;
        let p = if self.cfg.pi_aqm.is_some() {
            m.pi_p[link.0]
        } else {
            self.cfg.red.probability(queue_bytes)
        };
        if p > 0.0 && m.rng.next_f64() < p {
            let pkt = self.packets.get_mut(h);
            pkt.mark_ecn();
            let flow = pkt.flow();
            m.marked += 1;
            m.first_mark_time.get_or_insert(self.now);
            if obs::timeseries::enabled() {
                // One 1.0-sample per mark: a window's count IS the
                // mark count, so count/window_s is the mark rate.
                obs::timeseries::sample(
                    "netsim.ecn_mark",
                    link.0 as u64,
                    self.cfg.queue_trace_resolution_s,
                    self.now.as_secs_f64(),
                    1.0,
                );
            }
            if obs::trace::enabled() {
                obs::trace::record(
                    self.now.as_secs_f64(),
                    obs::Event::EcnMark {
                        flow: flow.0 as u64,
                        link: link.0 as u64,
                        queue_bytes,
                    },
                );
            }
        }
    }

    /// Put the PI controller's first tick on the event queue, once per
    /// engine.
    pub(super) fn arm_aqm(&mut self) {
        if let Some(pi) = self.cfg.pi_aqm.as_ref().filter(|_| !self.marker.armed) {
            self.marker.armed = true;
            let at = self.now + pi.update_interval;
            self.events.schedule(at, Ev::AqmTick.pack());
        }
    }

    /// Discrete PI-AQM update (Hollot-style): for every switch egress queue,
    /// `p += a·(q − q_ref) − b·(q_old − q_ref)`, clamped to [0, 1].
    pub(super) fn aqm_tick(&mut self) {
        let Some(pi) = &self.cfg.pi_aqm else {
            return;
        };
        let m = &mut self.marker;
        for (l, memo) in self.link_memo.iter().enumerate() {
            if !memo.is_switch {
                continue;
            }
            let q_now = self.ports.data_bytes[l];
            let e_now = q_now as f64 - pi.q_ref_bytes as f64;
            let e_old = m.pi_q_old[l] as f64 - pi.q_ref_bytes as f64;
            m.pi_p[l] = (m.pi_p[l] + pi.a_per_byte * e_now - pi.b_per_byte * e_old).clamp(0.0, 1.0);
            m.pi_q_old[l] = q_now;
        }
        let at = self.now + pi.update_interval;
        self.events.schedule(at, Ev::AqmTick.pack());
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{flow, us};
    use super::*;
    use crate::config::{EngineConfig, MarkingMode};
    use crate::topology::Topology;
    use desim::SimTime;

    #[test]
    fn ingress_vs_egress_marking_differ() {
        let run = |mode: MarkingMode| {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.marking = mode;
            cfg.seed = 42;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 1_000_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 1_000_000, 8e9));
            let r = eng.run(SimTime::from_millis(20));
            (r.marked_packets, r.first_mark_time_s)
        };
        let (egress, egress_first) = run(MarkingMode::Egress);
        let (ingress, ingress_first) = run(MarkingMode::Ingress);
        assert!(egress > 0 && ingress > 0);
        // Same seed, different decision points: ingress decides when the
        // packet joins the queue, egress when it departs — the first mark
        // cannot land at the same instant.
        assert_ne!(egress_first, ingress_first);
    }

    #[test]
    fn pi_aqm_pins_queue_with_fixed_overload() {
        // Two fixed flows overloading the port: RED would let the queue sit
        // wherever the rates put it; PI marks harder until the queue is at
        // q_ref. Fixed-rate senders ignore marks, so here we only check the
        // controller state itself rises to full marking.
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.pi_aqm = Some(crate::config::PiAqmConfig::default_for(100_000));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
        eng.add_flow(flow(senders[1], receiver, 2_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(20));
        // Persistent overload beyond q_ref → controller saturates → marks.
        assert!(report.marked_packets > 100, "PI must mark under overload");
    }
}
