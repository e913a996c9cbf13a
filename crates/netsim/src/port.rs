//! Egress ports: per-link queue state and the transmit path.
//!
//! A second `impl Engine` block, split out of `engine.rs`: the columnar
//! [`Ports`] state, the per-link [`LinkMemo`], and everything between a send
//! or a packet joining a port's queue and its `TxDone` / `Deliver` events
//! being armed — enqueue, serialization, PFC, and where the marking decision
//! and the fault plane's hooks are consulted — including where a `TxDone` is
//! kept off the wheel (the engine's module doc has the ticket contract that
//! makes that invisible).

use super::{Engine, Ev};
use crate::config::MarkingMode;
use crate::topology::LinkId;
use crate::types::{PacketHandle, Send};
use desim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sends per [`SendQueue`] block: 1 KB.
const SEND_BLOCK: usize = 64;

/// A NIC's FIFO of sends, in blocks of [`SEND_BLOCK`]. A block is freed as
/// soon as the queue has read past it, and the last one is kept for reuse,
/// so the queue holds its backlog plus at most one block.
///
/// A `VecDeque<Send>` keeps the buffer of its largest backlog and grows by
/// reallocation. An incast's NICs back up one after another, so their kept
/// buffers add up (+ 0.8 MB on `packet_churn`'s live peak). `ext_pfc`'s
/// paused NICs grow 2 MB buffers, and the smaller ones they outgrow can
/// stay resident in glibc's heap: `figset_paper`'s peak read 20.8–27.0 MB
/// with them, 18.7–21.5 MB with blocks.
#[derive(Debug, Default)]
pub(super) struct SendQueue {
    blocks: VecDeque<Vec<Send>>,
    /// Sends already read from the front block.
    head: usize,
}

impl SendQueue {
    fn push_back(&mut self, send: Send) {
        match self.blocks.back_mut() {
            Some(b) if b.len() < SEND_BLOCK => b.push(send),
            _ => {
                let mut b = Vec::with_capacity(SEND_BLOCK);
                b.push(send);
                self.blocks.push_back(b);
            }
        }
    }

    fn pop_front(&mut self) -> Option<Send> {
        let last = self.blocks.len() == 1;
        let front = self.blocks.front_mut()?;
        let send = *front.get(self.head)?;
        self.head += 1;
        if self.head == front.len() {
            self.head = 0;
            if last {
                front.clear();
            } else {
                self.blocks.pop_front();
            }
        }
        Some(send)
    }

    fn is_empty(&self) -> bool {
        self.blocks.front().is_none_or(|b| self.head == b.len())
    }

    /// The queued sends, oldest first.
    #[cfg(test)]
    pub(super) fn iter(&self) -> impl Iterator<Item = &Send> {
        self.blocks.iter().flatten().skip(self.head)
    }
}

/// A port's data queue. A host NIC queues [`Send`]s and builds each packet
/// when it starts serializing it; a switch port queues the [`PacketHandle`]s
/// of packets that arrived on a wire, whose bodies live in the engine's
/// [`PacketArena`](crate::types::PacketArena). [`LinkMemo::is_switch`]
/// picks the kind once, in [`Engine::new`](super::Engine::new).
#[derive(Debug)]
pub(super) enum DataQueue {
    Nic(SendQueue),
    Switch(VecDeque<PacketHandle>),
}

impl DataQueue {
    fn is_empty(&self) -> bool {
        match self {
            DataQueue::Nic(q) => q.is_empty(),
            DataQueue::Switch(q) => q.is_empty(),
        }
    }

    /// Sends or packets queued.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        match self {
            DataQueue::Nic(q) => q.iter().count(),
            DataQueue::Switch(q) => q.len(),
        }
    }
}

/// Per-link egress-port state, one column per field. The transmit hot path
/// (`enqueue`/`try_transmit`/`tx_done`) touches `data_q`/`data_bytes`/`busy`
/// for almost every packet, `held` only while the port is busy, and the PFC
/// columns only on their (much rarer) events, so the columnar split keeps
/// the per-packet working set to a few dense arrays. The data queue is a
/// NIC's sends or a switch's packet handles ([`DataQueue`]); the control
/// queue holds the handles of ACKs and CNPs on either kind of port, since a
/// receiver builds those whole.
#[derive(Debug, Default)]
pub(super) struct Ports {
    pub(super) data_q: Vec<DataQueue>,
    /// Wire bytes of the data queued, sends included.
    pub(super) data_bytes: Vec<u64>,
    pub(super) ctrl_q: Vec<VecDeque<PacketHandle>>,
    pub(super) busy: Vec<bool>,
    /// The `(idle_at, ticket)` of a busy port's `TxDone` while it is *held*:
    /// ticket taken, but not on the wheel. Held ⇒ busy with both queues
    /// empty — exactly when dispatching the `TxDone` would do nothing but
    /// clear `busy`, which whoever looks at the port next can do instead
    /// (see [`Engine::try_transmit`]).
    pub(super) held: Vec<Option<(SimTime, u64)>>,
    pub(super) paused: Vec<bool>,
    /// Cumulative time each port spent PAUSEd (PFC statistics).
    pub(super) paused_since: Vec<Option<SimTime>>,
    pub(super) paused_total: Vec<SimDuration>,
    pub(super) pauses: Vec<u64>,
}

impl Ports {
    /// One port per link: a switch's queues packets, a host's sends.
    pub(super) fn new(link_memo: &[LinkMemo]) -> Self {
        let n = link_memo.len();
        Ports {
            data_q: link_memo
                .iter()
                .map(|m| {
                    if m.is_switch {
                        DataQueue::Switch(VecDeque::new())
                    } else {
                        DataQueue::Nic(SendQueue::default())
                    }
                })
                .collect(),
            data_bytes: vec![0; n],
            ctrl_q: (0..n).map(|_| VecDeque::new()).collect(),
            busy: vec![false; n],
            held: vec![None; n],
            paused: vec![false; n],
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
    /// The receiving node is a host: this is a packet's last hop.
    pub(super) to_host: bool,
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
    /// Enqueue a packet (by handle) on a link's egress queue: a control
    /// packet on any port, a data packet on a switch's. Ingress marking
    /// happens here.
    pub(super) fn enqueue(&mut self, link: LinkId, h: PacketHandle) {
        let (is_control, size_bytes) = {
            let pkt = self.packets.get(h);
            (pkt.is_control(), pkt.wire_bytes(&self.cfg))
        };
        if is_control {
            self.ports.ctrl_q[link.0].push_back(h);
        } else {
            // A host's NIC queues sends, and `try_add_flow` rejects a data
            // route through another host: data packets queue at switches.
            let DataQueue::Switch(q) = &mut self.ports.data_q[link.0] else {
                debug_assert!(false, "a host forwards no data");
                self.packets.free(h);
                return;
            };
            q.push_back(h);
            self.ports.data_bytes[link.0] += size_bytes as u64;
            let data_bytes = self.ports.data_bytes[link.0];
            if self.cfg.marking == MarkingMode::Ingress {
                self.mark_ecn(link, h, data_bytes);
            }
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
        self.queued(link);
    }

    /// Queue a data send on its host's NIC port. A host neither marks nor
    /// traces, so the send needs nothing but its bytes counted.
    pub(super) fn enqueue_send(&mut self, link: LinkId, send: Send) {
        let DataQueue::Nic(q) = &mut self.ports.data_q[link.0] else {
            debug_assert!(false, "a flow's uplink is a NIC");
            return;
        };
        q.push_back(send);
        self.ports.data_bytes[link.0] += send.packet().wire_bytes(&self.cfg) as u64;
        self.queued(link);
    }

    /// Something is now queued on `link`: a `TxDone` still to come has work
    /// to do, so it goes on the wheel under the ticket it took at transmit
    /// start (one already due is settled by `try_transmit`); then the port
    /// transmits if it can.
    fn queued(&mut self, link: LinkId) {
        if self.ports.busy[link.0] {
            if let Some((idle_at, ticket)) = self.ports.held[link.0] {
                if !self.already_dispatched(idle_at, ticket) {
                    self.ports.held[link.0] = None;
                    self.held_then_filed += 1;
                    self.events
                        .schedule_reserved(idle_at, ticket, Ev::TxDone(link));
                }
            }
        }
        self.try_transmit(link);
    }

    /// Whether an event at `(at, ticket)` sorts before the one being
    /// handled — i.e. the always-schedule engine would have dispatched it by
    /// now.
    #[inline]
    fn already_dispatched(&self, at: SimTime, ticket: u64) -> bool {
        (at, Some(ticket)) < (self.now, self.events.last_popped_seq())
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
    ///
    /// The port's `TxDone` takes its ticket here, but goes on the wheel only
    /// if something is queued behind the transmission; otherwise it is held
    /// in the port. A held `TxDone` that has fallen due — it sorts before
    /// the event being handled — is dispatched right here, by whichever
    /// caller looks at the port first: the port is freed and the event
    /// counted, which is all its handler would have done.
    pub(super) fn try_transmit(&mut self, link: LinkId) {
        if self.ports.busy[link.0] {
            match self.ports.held[link.0] {
                Some((idle_at, ticket)) if self.already_dispatched(idle_at, ticket) => {
                    self.dispatch_held(link);
                }
                _ => return,
            }
        }
        let (down, storm_paused) = self
            .faults
            .as_ref()
            .map_or((false, false), |p| p.holds(link));
        if down {
            return;
        }
        // Strict priority: control queue first; PAUSE affects data only
        // (PFC pauses the lossless data class; control rides a separate
        // priority, as both protocols prioritize feedback).
        let h = if let Some(h) = self.ports.ctrl_q[link.0].pop_front() {
            h
        } else if !self.ports.paused[link.0] && !storm_paused {
            match self.pop_data(link) {
                Some(h) => h,
                None => return,
            }
        } else {
            return;
        };

        let memo = self.link_memo[link.0];
        let (is_control, size_bytes) = {
            let pkt = self.packets.get_mut(h);
            if memo.to_host {
                pkt.set_last_hop_at(self.now);
            }
            (pkt.is_control(), pkt.wire_bytes(&self.cfg))
        };
        if !is_control {
            // Egress marking: the mark reflects the queue at departure time.
            if memo.is_switch && self.cfg.marking == MarkingMode::Egress {
                self.mark_ecn(link, h, self.ports.data_bytes[link.0]);
            }
            self.ports.data_bytes[link.0] -= size_bytes as u64;
            if memo.is_switch {
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
        let idle_at = self.now + ser;
        let ticket = self.events.reserve_seq();
        if self.ports.ctrl_q[link.0].is_empty() && self.ports.data_q[link.0].is_empty() {
            self.ports.held[link.0] = Some((idle_at, ticket));
        } else {
            self.events
                .schedule_reserved(idle_at, ticket, Ev::TxDone(link));
        }
        let mut deliver_at = idle_at + self.topo.link(link).prop_delay;
        if let Some(plane) = &mut self.faults {
            deliver_at += plane.extra_delay(link, self.now);
        }
        self.events.schedule(deliver_at, Ev::Deliver(link, h));
        self.update_pfc(link);
    }

    /// The next data packet off `link`'s queue. A NIC's next send becomes a
    /// packet here, as it starts on the wire.
    fn pop_data(&mut self, link: LinkId) -> Option<PacketHandle> {
        match &mut self.ports.data_q[link.0] {
            DataQueue::Switch(q) => q.pop_front(),
            DataQueue::Nic(q) => {
                let send = q.pop_front()?;
                Some(self.packets.alloc(send.packet()))
            }
        }
    }

    pub(super) fn tx_done(&mut self, link: LinkId) {
        self.ports.busy[link.0] = false;
        self.try_transmit(link);
    }

    /// Dispatch a held `TxDone` that has fallen due: with nothing queued
    /// behind it, freeing the port is all [`Self::tx_done`] would have done.
    fn dispatch_held(&mut self, link: LinkId) {
        self.ports.held[link.0] = None;
        self.ports.busy[link.0] = false;
        self.events_processed += 1;
        self.held_tx_dones += 1;
    }

    /// End of a run: every held `TxDone` due by `end` has been dispatched in
    /// the `(time, ticket)` order, whether or not anything looked at its
    /// port since.
    pub(super) fn dispatch_held_until(&mut self, end: SimTime) {
        for l in 0..self.ports.held.len() {
            if self.ports.held[l].is_some_and(|(idle_at, _)| idle_at <= end) {
                self.dispatch_held(LinkId(l));
            }
        }
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

#[cfg(test)]
mod tests {
    use super::super::tests::{flow, us};
    use super::*;
    use crate::cc::{CcEvent, CcUpdate, CongestionControl};
    use crate::config::{EngineConfig, PfcConfig};
    use crate::flow::{FlowSpec, Pacing};
    use crate::topology::{NodeId, Topology};
    use crate::types::FlowId;

    /// DCQCN's shape as far as the engine can tell: the α and rate-increase
    /// timers armed together every 55 µs, each re-arming itself when it
    /// fires, and a CNP that halves the rate and re-arms the pair.
    #[derive(Debug)]
    struct DcqcnShaped {
        rate_bps: f64,
        line_bps: f64,
    }

    const T: SimDuration = SimDuration::from_micros(55);

    impl CongestionControl for DcqcnShaped {
        fn on_start(&mut self, now: SimTime, line_rate_bps: f64) -> CcUpdate {
            (self.rate_bps, self.line_bps) = (line_rate_bps, line_rate_bps);
            CcUpdate::rate(self.rate_bps)
                .with_timer(0, now + T)
                .with_timer(1, now + T)
        }

        fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
            match event {
                CcEvent::Cnp => {
                    self.rate_bps /= 2.0;
                    CcUpdate::rate(self.rate_bps)
                        .with_timer(0, now + T)
                        .with_timer(1, now + T)
                }
                CcEvent::Timer { kind: 0 } => CcUpdate::none().with_timer(0, now + T),
                CcEvent::Timer { .. } => {
                    self.rate_bps = (self.rate_bps + 40e6).min(self.line_bps);
                    CcUpdate::rate(self.rate_bps).with_timer(1, now + T)
                }
                CcEvent::RttSample { .. } | CcEvent::SentBytes { .. } => CcUpdate::none(),
            }
        }

        fn current_rate_bps(&self) -> f64 {
            self.rate_bps
        }
    }

    fn add_flows(eng: &mut Engine, senders: &[NodeId], receiver: NodeId, bytes: u64) {
        for (i, &src) in senders.iter().enumerate() {
            eng.add_flow(FlowSpec {
                src,
                dst: receiver,
                size_bytes: Some(bytes + 1_001 * i as u64),
                start: SimTime::from_micros(2 * i as u64),
                pacing: Pacing::PerPacket,
                cc: Box::new(DcqcnShaped {
                    rate_bps: 0.0,
                    line_bps: 0.0,
                }),
                ack_chunk_bytes: 16_000,
            });
        }
    }

    /// Every dispatched event either popped off the wheel, or was a held
    /// `TxDone`, or a CC clock firing — and a run dispatches plenty of each.
    fn check_accounting(mut eng: Engine, flows: usize) {
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.fcts.len(), flows, "every flow completes");
        assert!(report.cnps_sent > 0, "the senders must be cut");
        assert!(eng.held_tx_dones > 1_000, "held: {}", eng.held_tx_dones);
        assert!(eng.held_then_filed > 0, "filed: {}", eng.held_then_filed);
        assert!(eng.clock_firings > 100, "firings: {}", eng.clock_firings);
        assert_eq!(
            report.events_processed,
            eng.events.popped() + eng.held_tx_dones + eng.clock_firings
        );
        assert!(eng.ports.held.iter().flatten().all(|&(at, _)| at > eng.now));
        // Every clock of a completed flow has fired its closing no-op.
        assert!(eng.clocks.iter().flatten().all(|c| c.at == SimTime::MAX));
        assert_eq!(eng.conventions, 0);
    }

    #[test]
    fn events_processed_counts_entries_held_tx_dones_and_firings_single_switch() {
        let (topo, senders, receiver) =
            Topology::single_switch(4, 10e9, SimDuration::from_micros(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        add_flows(&mut eng, &senders, receiver, 1_500_000);
        check_accounting(eng, 4);
    }

    #[test]
    fn events_processed_counts_entries_held_tx_dones_and_firings_incast() {
        let (topo, hosts) = Topology::fat_tree(4, 10e9, SimDuration::from_micros(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        add_flows(&mut eng, &hosts[1..], hosts[0], 64_000);
        check_accounting(eng, 15);
    }

    #[test]
    fn paused_nics_queue_sends_not_packets() {
        // PFC only: four line-rate senders into one 10 Gbps port, marking
        // off. PFC holds the NICs paused while their pacers keep releasing,
        // so the backlog piles up in the NICs — as 16-byte sends; the arena
        // holds only what is on a wire or in the switch.
        let (topo, senders, receiver) = Topology::single_switch(4, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.red = crate::config::RedConfig {
            kmin_bytes: u64::MAX / 4,
            kmax_bytes: u64::MAX / 2,
            p_max: 0.0,
        };
        cfg.pfc = Some(PfcConfig {
            pause_threshold_bytes: 400_000,
            resume_threshold_bytes: 300_000,
        });
        let mut eng = Engine::new(topo, cfg);
        add_flows(&mut eng, &senders, receiver, u64::MAX / 2);
        let report = eng.run(SimTime::from_millis(20));
        assert!(report.pfc_pauses > 0 && report.marked_packets == 0);
        let queued_sends: usize = senders
            .iter()
            .map(|&s| eng.ports.data_q[eng.topo.out_links(s)[0].0].len())
            .sum();
        assert!(queued_sends >= 10_000, "queued sends: {queued_sends}");
        let high_water = eng.packets.high_water();
        assert!(high_water <= 1_024, "arena high-water: {high_water}");
    }

    #[test]
    fn a_send_queue_is_a_fifo_that_frees_the_blocks_it_read() {
        let send = |i: u64| Send::new(FlowId(0), 1_000, false, false, SimTime::from_nanos(i));
        let mut q = SendQueue::default();
        assert!(q.is_empty() && q.pop_front().is_none());
        for i in 0..200 {
            q.push_back(send(i));
        }
        let read: Vec<u64> = (0..150)
            .filter_map(|_| q.pop_front())
            .map(|s| s.released_at.as_nanos())
            .collect();
        assert_eq!(read, (0..150).collect::<Vec<_>>());
        // Sends 128..199 are left, in blocks 2 and 3; blocks 0 and 1 are gone.
        assert_eq!(q.blocks.len(), 2);
        assert_eq!(q.iter().count(), 50);
        // Interleaved: pushes land behind what is queued.
        q.push_back(send(200));
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_front())
            .map(|s| s.released_at.as_nanos())
            .collect();
        assert_eq!(rest, (150..=200).collect::<Vec<_>>());
        // Drained, the queue keeps one empty block for the next push.
        assert!(q.is_empty());
        assert_eq!(q.blocks.len(), 1);
        assert_eq!(q.blocks[0].capacity(), SEND_BLOCK);
    }

    #[test]
    fn pfc_statistics_recorded() {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.pfc = Some(PfcConfig {
            pause_threshold_bytes: 30_000,
            resume_threshold_bytes: 20_000,
        });
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000_000, 9e9));
        eng.add_flow(flow(senders[1], receiver, 1_000_000, 9e9));
        let report = eng.run(SimTime::from_millis(20));
        assert!(report.pfc_pauses > 0, "overload must trigger PAUSE");
        assert!(report.pfc_paused_s > 0.0);
        assert!(report.pfc_paused_s < 0.02 * 6.0, "bounded by port-seconds");
    }

    #[test]
    fn no_pfc_no_pause_stats() {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(flow(senders[0], receiver, 500_000, 9e9));
        eng.add_flow(flow(senders[1], receiver, 500_000, 9e9));
        let report = eng.run(SimTime::from_millis(10));
        assert_eq!(report.pfc_pauses, 0);
        assert_eq!(report.pfc_paused_s, 0.0);
    }

    #[test]
    fn pfc_pauses_upstream() {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.pfc = Some(PfcConfig {
            pause_threshold_bytes: 30_000,
            resume_threshold_bytes: 20_000,
        });
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000_000, 9e9));
        eng.add_flow(flow(senders[1], receiver, 1_000_000, 9e9));
        let report = eng.run(SimTime::from_millis(20));
        // Lossless even with PFC bounds; everything still delivered.
        assert_eq!(report.delivered_bytes[0], 1_000_000);
        assert_eq!(report.delivered_bytes[1], 1_000_000);
        // The bottleneck queue stays near the pause threshold.
        let max_q = report
            .queue_traces
            .values()
            .flat_map(|tr| tr.points().iter().map(|&(_, v)| v))
            .fold(0.0f64, f64::max);
        assert!(max_q < 120_000.0, "PFC should bound the queue, saw {max_q}");
    }
}
