//! Egress ports: per-link queue state and the transmit path.
//!
//! A second `impl Engine` block, split out of `engine.rs`: the columnar
//! [`Ports`] state, the per-link [`LinkMemo`], and everything between a
//! packet joining a port's queue and its `TxDone` / `Deliver` events being
//! armed — enqueue, ECN marking, serialization, PFC.

use super::{Engine, Ev};
use crate::config::MarkingMode;
use crate::topology::LinkId;
use crate::types::{FlowId, PacketHandle};
use desim::{SimDuration, SimTime};

/// Per-link egress-port state, one column per field. The transmit hot path
/// (`enqueue`/`try_transmit`/`tx_done`) touches `data_q`/`data_bytes`/`busy`
/// for almost every packet but the PFC and PI-AQM columns only on their
/// (much rarer) respective events, so the columnar split keeps the per-packet
/// working set to three dense arrays. Queues hold [`PacketHandle`]s; packet
/// bodies live in the engine's [`PacketArena`].
#[derive(Debug, Default)]
pub(super) struct Ports {
    pub(super) data_q: Vec<std::collections::VecDeque<PacketHandle>>,
    pub(super) data_bytes: Vec<u64>,
    pub(super) ctrl_q: Vec<std::collections::VecDeque<PacketHandle>>,
    pub(super) busy: Vec<bool>,
    pub(super) paused: Vec<bool>,
    /// PI-AQM controller state (marking probability, previous queue).
    pub(super) pi_p: Vec<f64>,
    pub(super) pi_q_old: Vec<u64>,
    /// Cumulative time each port spent PAUSEd (PFC statistics).
    pub(super) paused_since: Vec<Option<SimTime>>,
    pub(super) paused_total: Vec<SimDuration>,
    pub(super) pauses: Vec<u64>,
}

impl Ports {
    pub(super) fn new(n: usize) -> Self {
        Ports {
            data_q: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            data_bytes: vec![0; n],
            ctrl_q: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            busy: vec![false; n],
            paused: vec![false; n],
            pi_p: vec![0.0; n],
            pi_q_old: vec![0; n],
            paused_since: vec![None; n],
            paused_total: vec![SimDuration::ZERO; n],
            pauses: vec![0; n],
        }
    }
}

/// Per-link facts the per-packet handlers need on every enqueue and
/// transmit, resolved once in [`Engine::new`] instead of re-derived from the
/// topology, the trace map and the link rate per packet.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkMemo {
    /// The transmitting node is a switch (its egress queue marks and is
    /// traced).
    pub(super) is_switch: bool,
    /// Slot of this link's trace in [`Engine::queue_traces`], if traced.
    pub(super) trace_slot: Option<u32>,
    /// The last serialization time computed per class (`[data, control]`)
    /// and the wire size it is for. A class carries one size almost always
    /// (full-MTU data, fixed-size control), so [`Engine::serialization`]
    /// answers from here and calls [`SimDuration::serialization`] only when
    /// the size changes.
    pub(super) ser_bytes: [u32; 2],
    pub(super) ser: [SimDuration; 2],
}

impl Engine {
    /// Enqueue a packet (by handle) on a link's egress queue; start
    /// transmission if the port is idle. Ingress marking happens here.
    pub(super) fn enqueue(&mut self, link: LinkId, h: PacketHandle) {
        let is_switch = self.link_memo[link.0].is_switch;
        let (is_control, size_bytes, flow) = {
            let pkt = self.packets.get(h);
            (pkt.is_control(), pkt.size_bytes, pkt.flow)
        };
        if is_control {
            self.ports.ctrl_q[link.0].push_back(h);
        } else {
            self.ports.data_bytes[link.0] += size_bytes as u64;
            let data_bytes = self.ports.data_bytes[link.0];
            if is_switch && self.cfg.marking == MarkingMode::Ingress {
                self.mark_ecn(link, h, flow, data_bytes);
            }
            self.ports.data_q[link.0].push_back(h);
            if is_switch {
                let bytes = data_bytes as f64;
                desim::invariants::bounded_queue("switch egress queue", bytes, f64::INFINITY);
                self.record_queue(link, bytes);
                if obs::timeseries::enabled() {
                    let t_s = self.now.as_secs_f64();
                    let w = self.cfg.queue_trace_resolution_s;
                    obs::timeseries::sample("netsim.queue_bytes", link.0 as u64, w, t_s, bytes);
                    obs::timeseries::sample(
                        "netsim.arrival_bytes",
                        link.0 as u64,
                        w,
                        t_s,
                        size_bytes as f64,
                    );
                }
            }
        }
        self.try_transmit(link);
    }

    /// The marking decision for data packet `h` of `flow` on switch port
    /// `link` holding `queue_bytes`: one draw from the marking RNG whenever
    /// the RED curve (or the PI controller) gives a positive probability.
    fn mark_ecn(&mut self, link: LinkId, h: PacketHandle, flow: FlowId, queue_bytes: u64) {
        let p = if self.cfg.pi_aqm.is_some() {
            self.ports.pi_p[link.0]
        } else {
            self.cfg.red.probability(queue_bytes)
        };
        if p > 0.0 && self.rng.next_f64() < p {
            self.packets.get_mut(h).ecn_marked = true;
            self.marked_packets += 1;
            self.first_mark_time.get_or_insert(self.now);
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

    /// Record a switch port's backlog in its queue trace, if it has one.
    #[inline]
    pub(super) fn record_queue(&mut self, link: LinkId, bytes: f64) {
        let slot = self.link_memo[link.0].trace_slot;
        if let Some(tr) = slot.and_then(|s| self.queue_traces.slot_mut(s as usize)) {
            tr.record(self.now, bytes);
        }
    }

    /// [`SimDuration::serialization`] of `size_bytes` at `link`'s rate,
    /// memoised per link and class (see [`LinkMemo`]).
    #[inline]
    fn serialization(&mut self, link: LinkId, is_control: bool, size_bytes: u32) -> SimDuration {
        let m = &mut self.link_memo[link.0];
        let class = is_control as usize;
        if m.ser_bytes[class] != size_bytes {
            m.ser_bytes[class] = size_bytes;
            m.ser[class] =
                SimDuration::serialization(size_bytes as u64, self.topo.link(link).bandwidth_bps);
        }
        m.ser[class]
    }

    /// If the port is idle (and unpaused), start serializing the next packet.
    pub(super) fn try_transmit(&mut self, link: LinkId) {
        // Fault plane: a downed link transmits nothing; a pause-storm forced
        // pause blocks the data class only (like PFC, control rides a
        // separate priority).
        let (link_up, storm_paused) = if self.faults_active {
            let fs = &self.link_faults[link.0];
            (fs.up, fs.storm_paused)
        } else {
            (true, false)
        };
        if !link_up {
            return;
        }
        if self.ports.busy[link.0] {
            return;
        }
        // Strict priority: control queue first; PAUSE affects data only
        // (PFC pauses the lossless data class; control rides a separate
        // priority, as both protocols prioritize feedback).
        let h = if let Some(h) = self.ports.ctrl_q[link.0].pop_front() {
            h
        } else if !self.ports.paused[link.0] && !storm_paused {
            match self.ports.data_q[link.0].pop_front() {
                Some(h) => h,
                None => return,
            }
        } else {
            return;
        };

        let is_switch = self.link_memo[link.0].is_switch;
        let (is_control, size_bytes, flow) = {
            let pkt = self.packets.get(h);
            (pkt.is_control(), pkt.size_bytes, pkt.flow)
        };
        if !is_control {
            // Egress marking: the mark reflects the queue at departure time.
            if is_switch && self.cfg.marking == MarkingMode::Egress {
                self.mark_ecn(link, h, flow, self.ports.data_bytes[link.0]);
            }
            self.ports.data_bytes[link.0] -= size_bytes as u64;
            if is_switch {
                let bytes = self.ports.data_bytes[link.0] as f64;
                self.record_queue(link, bytes);
                if obs::timeseries::enabled() {
                    let t_s = self.now.as_secs_f64();
                    let w = self.cfg.queue_trace_resolution_s;
                    obs::timeseries::sample("netsim.queue_bytes", link.0 as u64, w, t_s, bytes);
                    obs::timeseries::sample(
                        "netsim.departure_bytes",
                        link.0 as u64,
                        w,
                        t_s,
                        size_bytes as f64,
                    );
                }
            }
        }
        self.ports.busy[link.0] = true;
        let ser = self.serialization(link, is_control, size_bytes);
        self.events.schedule(self.now + ser, Ev::TxDone(link));
        let mut deliver_at = self.now + ser + self.topo.link(link).prop_delay;
        if self.faults_active {
            let extra_s = self.fault_extra_delay_s(link);
            if extra_s > 0.0 {
                deliver_at += SimDuration::from_secs_f64(extra_s);
                obs::metrics::counter_inc("netsim.fault_delays");
                if obs::trace::enabled() {
                    obs::trace::record(
                        self.now.as_secs_f64(),
                        obs::Event::FaultDelay {
                            link: link.0 as u64,
                            extra_s,
                        },
                    );
                }
            }
        }
        self.events.schedule(deliver_at, Ev::Deliver(link, h));
        self.update_pfc(link);
    }

    pub(super) fn tx_done(&mut self, link: LinkId) {
        self.ports.busy[link.0] = false;
        self.try_transmit(link);
    }

    /// PFC emulation: when this port's data backlog exceeds the pause
    /// threshold, pause every link feeding this node; resume below the
    /// resume threshold. (Simplified node-granularity PFC; the paper's
    /// analysis assumes ECN acts first and ignores PFC entirely.)
    fn update_pfc(&mut self, link: LinkId) {
        let Some(pfc) = &self.cfg.pfc else {
            return;
        };
        let node = self.topo.link(link).src;
        let backlog = self.ports.data_bytes[link.0];
        let pause = backlog > pfc.pause_threshold_bytes;
        let resume = backlog < pfc.resume_threshold_bytes;
        if !pause && !resume {
            return;
        }
        // By index: a resumed link transmits, which re-enters this function.
        for i in 0..self.topo.in_links(node).len() {
            let l = self.topo.in_links(node)[i].0;
            if pause && !self.ports.paused[l] {
                self.ports.paused[l] = true;
                self.ports.paused_since[l] = Some(self.now);
                self.ports.pauses[l] += 1;
                obs::metrics::counter_inc("netsim.pfc_pauses");
                if obs::timeseries::enabled() {
                    obs::timeseries::sample(
                        "netsim.pfc_paused",
                        l as u64,
                        self.cfg.queue_trace_resolution_s,
                        self.now.as_secs_f64(),
                        1.0,
                    );
                }
                if obs::trace::enabled() {
                    obs::trace::record(
                        self.now.as_secs_f64(),
                        obs::Event::PfcPause { link: l as u64 },
                    );
                }
            } else if resume && self.ports.paused[l] {
                self.ports.paused[l] = false;
                if let Some(since) = self.ports.paused_since[l].take() {
                    let d = self.now.saturating_since(since);
                    self.ports.paused_total[l] += d;
                }
                obs::metrics::counter_inc("netsim.pfc_resumes");
                if obs::timeseries::enabled() {
                    obs::timeseries::sample(
                        "netsim.pfc_paused",
                        l as u64,
                        self.cfg.queue_trace_resolution_s,
                        self.now.as_secs_f64(),
                        0.0,
                    );
                }
                if obs::trace::enabled() {
                    obs::trace::record(
                        self.now.as_secs_f64(),
                        obs::Event::PfcResume { link: l as u64 },
                    );
                }
                self.try_transmit(LinkId(l));
            }
        }
    }
}
