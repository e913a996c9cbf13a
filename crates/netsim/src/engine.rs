//! The deterministic event loop: hosts, switches, links, marking, tracing.
//!
//! The engine is a single struct owning all state (no shared-pointer
//! gymnastics), driven off one [`desim::EventQueue`]. Its handlers are
//! `impl Engine` blocks in one file per decision: `port.rs` (egress queues,
//! transmit, PFC), `aqm.rs` (where and how a switch marks), `host.rs`
//! (what a host sends and how it answers a packet) and `fault_plane.rs` (the
//! fault schedule); this file keeps the loop, the ticket contract and the CC
//! clocks. The event vocabulary is deliberately tiny:
//!
//! | event | what it does | on the wheel when |
//! |---|---|---|
//! | `FlowStart` | a flow becomes active; its congestion control is started and its pacer armed | always |
//! | `Pacer` | a flow's rate limiter releases the next packet (or, under per-chunk pacing, the next burst) into the host NIC queue, as a send the NIC builds into a packet when it starts transmitting it | always |
//! | `TxDone` | a port finished serializing a packet; it picks the next one (control queue first, strict priority) | only if something is, or becomes, queued behind the transmission — otherwise held in the port |
//! | `Deliver` | a packet arrives at the far end of a link after serialization + propagation; switches forward it, hosts consume it | always |
//! | `AqmTick`, `Fault`, `FaultStormRelease` | the PI controller's period and the fault plane's operations | always |
//!
//! **The ticket contract.** Events are dispatched in `(time, ticket)` order
//! and in no other; every event takes its ticket (the queue's tie-break
//! counter) at the point where it is armed, whether or not it gets a wheel
//! entry then. A `TxDone` with nothing queued behind it would only clear
//! the port's busy flag, so it is *held* — `(idle_at, ticket)` in the port
//! — and put on the wheel under that ticket by the first send or packet
//! that joins the queue before it is due; once it is due, whoever looks at
//! the port next (or the end of the run) frees the port and counts the
//! event.
//!
//! A CC timer (DCQCN's α and increase timers) is no event at all: each flow
//! keeps one clock per kind — next firing, arming ticket — and fires what is
//! due just before anything reads or writes the flow's CC state: its pacer,
//! a CNP or ACK at its sender, its completing last byte, a fault `Perturb`,
//! the end of the run (horizon inclusive). Everything due before now goes
//! to the flow's CC in one call per catch-up,
//! [`CongestionControl::fire_timers`](crate::cc::CongestionControl::fire_timers),
//! which makes one `on_event(Timer)` call per firing, at the firing's own
//! time, in `(time, ticket)` order; the engine counts each firing as an
//! event, sets the last rate and gives the re-armed clocks fresh tickets in
//! firing order. So a flow's CC calls keep their order. A firing due at the
//! very instant of the event being dispatched is made on its own, and goes
//! first iff its ticket is the lower — except that a re-arm takes its
//! ticket only when its firing runs. That is exact for a pacer, scheduled
//! by the previous one, which ran every firing due before it; a switch
//! scheduling the flow's host-bound packet ran none, so there the re-arming
//! firing's time against the hop's start decides, and at a tie (a hop
//! latency equal to the period) the firing goes first by convention,
//! counted as `netsim.clock_tie_convention`. Either way the run dispatches
//! — and [`SimReport::events_processed`] counts — the same events in the
//! same order, as every flow sees it, as if each had a wheel entry of its
//! own.

use crate::cc::{self, CcUpdate, TimerClock, TimerRun};
use crate::config::EngineConfig;
use crate::flow::{FlowSpec, SenderFlows};
use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use crate::trace::LinkTraceMap;
use crate::types::{FlowId, PacketArena, PacketHandle};
use desim::stats::TimeSeries;
use desim::{EventQueue, SimDuration, SimRng, SimTime};
use faults::SimError;

#[path = "aqm.rs"]
mod aqm;
#[path = "fault_plane.rs"]
mod fault_plane;
#[path = "host.rs"]
mod host;
#[path = "port.rs"]
mod port;
use aqm::Marker;
use fault_plane::FaultPlane;
use host::ReceiverFlows;
use port::{LinkMemo, Ports};

#[derive(Debug)]
enum Ev {
    FlowStart(FlowId),
    Pacer(FlowId),
    TxDone(LinkId),
    /// A packet (by arena handle) arrives at the far end of a link. Events
    /// carry 4-byte handles, not 24-byte [`Packet`](crate::types::Packet)
    /// values: the event queue's payload arena stays dense and packets are
    /// never memcpy'd between hops.
    Deliver(LinkId, PacketHandle),
    /// Periodic PI-AQM controller update across all switch ports.
    AqmTick,
    /// A compiled fault-plane operation (an index into the plane's ops).
    Fault(usize),
    /// End of one pause-storm forced-pause interval on a link.
    FaultStormRelease(LinkId),
}

/// One completed flow.
#[derive(Debug, Clone)]
pub struct FctRecord {
    /// Flow index.
    pub flow: usize,
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Start time (seconds).
    pub start_s: f64,
    /// Completion time minus start time (seconds).
    pub fct_s: f64,
}

/// Results of a run.
#[derive(Debug)]
pub struct SimReport {
    /// Completed-flow records.
    pub fcts: Vec<FctRecord>,
    /// Queue-occupancy traces (bytes) per traced link, in ascending link
    /// order (deterministic iteration).
    pub queue_traces: LinkTraceMap,
    /// Per-flow delivered-throughput traces (bps), if enabled.
    pub rate_traces: Vec<Vec<(f64, f64)>>,
    /// Total payload bytes delivered per flow.
    pub delivered_bytes: Vec<u64>,
    /// Packets that were ECN-marked.
    pub marked_packets: u64,
    /// Total data packets delivered end-to-end.
    pub data_packets: u64,
    /// CNPs generated.
    pub cnps_sent: u64,
    /// When the first ECN mark was applied, if any (seconds) — distinguishes
    /// ingress from egress marking timing.
    pub first_mark_time_s: Option<f64>,
    /// Number of PFC PAUSE transitions observed across all ports.
    pub pfc_pauses: u64,
    /// Total port-seconds spent paused by PFC.
    pub pfc_paused_s: f64,
    /// Packets dropped by fault-plane loss windows.
    pub fault_drops: u64,
    /// Forced-pause intervals injected by fault-plane pause storms.
    pub fault_pauses: u64,
    /// Total link-seconds spent paused by fault-plane pause storms.
    pub fault_paused_s: f64,
    /// Fault-plane operations executed (flap edges, window starts/ends,
    /// storm ticks, perturbations). Zero on a fault-free run.
    pub faults_injected: u64,
    /// Events dispatched, whether or not each had a wheel entry of its own
    /// (a `TxDone` with nothing queued behind it and every CC timer firing
    /// are dispatched without one) — the numerator of the `events/sec`
    /// throughput metric the scaling benchmarks report.
    pub events_processed: u64,
    /// Simulated time at the end of the run (seconds).
    pub end_time_s: f64,
}

/// The packet-level simulator.
pub struct Engine {
    topo: Topology,
    cfg: EngineConfig,
    events: EventQueue<Ev>,
    now: SimTime,
    marker: Marker,
    ports: Ports,
    senders: SenderFlows,
    receivers: ReceiverFlows,
    /// Storage of the packets on a wire or in a switch or control queue;
    /// those queues and `Deliver` events reference them by [`PacketHandle`].
    packets: PacketArena,
    /// Each flow's CC clocks, one per timer kind, fired by
    /// [`Engine::catch_up`]; a clock's `order` is the ticket its arming took.
    clocks: Vec<[TimerClock; CcUpdate::MAX_TIMERS]>,
    link_memo: Vec<LinkMemo>,
    queue_traces: LinkTraceMap,
    rate_updates: u64,
    /// The installed fault schedule; `None` on a fault-free run, so every
    /// fault hook on the hot path is one well-predicted branch.
    faults: Option<FaultPlane>,
    /// Events dispatched: wheel entries popped, plus the two kinds of event
    /// that are dispatched without an entry of their own, counted below.
    events_processed: u64,
    /// Held `TxDone`s dispatched off the wheel (see [`Ports::held`]).
    held_tx_dones: u64,
    /// Held `TxDone`s that a later `enqueue` filed on the wheel after all.
    held_then_filed: u64,
    /// CC clock firings (see [`Engine::catch_up`]).
    clock_firings: u64,
    /// Same-instant firings put first by convention (see [`Engine::fires_first`]).
    conventions: u64,
}

/// The orders a firing call hands re-armed clocks, counting up from here:
/// above every ticket (tickets count reservations and never get near
/// 2^62), so re-arms sort after every clock armed before the call. The
/// engine swaps them for fresh tickets when the call returns.
const REARMED: u64 = 1 << 62;

/// What a catch-up fires the due clocks before.
#[derive(Debug, Clone, Copy)]
enum Touch {
    /// An event scheduled after its flow was caught up (the pacer) or
    /// before any clock was armed (a fault `Perturb`).
    Own,
    /// A host-bound packet whose last hop a switch scheduled at this time.
    Hop(SimTime),
    /// The end of a run.
    End,
}

impl Engine {
    /// Build an engine over a topology.
    pub fn new(topo: Topology, cfg: EngineConfig) -> Self {
        let mut queue_traces = LinkTraceMap::new();
        for l in 0..topo.link_count() {
            let link = topo.link(LinkId(l));
            if matches!(topo.kind(link.src), NodeKind::Switch) {
                queue_traces.insert(LinkId(l), TimeSeries::new(cfg.queue_trace_resolution_s));
            }
        }
        let ser_bytes = [cfg.mtu_bytes + cfg.header_bytes, cfg.control_packet_bytes];
        let link_memo = (0..topo.link_count())
            .map(|l| {
                let link = topo.link(LinkId(l));
                LinkMemo {
                    is_switch: matches!(topo.kind(link.src), NodeKind::Switch),
                    to_host: matches!(topo.kind(link.dst), NodeKind::Host),
                    trace_slot: queue_traces.slot_of(LinkId(l)).map(|s| s as u32),
                    ser_bytes,
                    ser: ser_bytes
                        .map(|b| SimDuration::serialization(b as u64, link.bandwidth_bps)),
                }
            })
            .collect::<Vec<_>>();
        let ports = Ports::new(&link_memo);
        let marker = Marker::new(cfg.seed, topo.link_count());
        Engine {
            topo,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            marker,
            ports,
            senders: SenderFlows::default(),
            receivers: ReceiverFlows::default(),
            packets: PacketArena::default(),
            clocks: Vec::new(),
            link_memo,
            queue_traces,
            rate_updates: 0,
            faults: None,
            events_processed: 0,
            held_tx_dones: 0,
            held_then_filed: 0,
            clock_firings: 0,
            conventions: 0,
            cfg,
        }
    }

    /// Register a flow; it will start at `spec.start`. Panics on an invalid
    /// spec; [`Engine::try_add_flow`] is the non-panicking equivalent.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.try_add_flow(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register a flow, returning a descriptive [`SimError`] if the
    /// endpoints are not distinct, routable hosts.
    pub fn try_add_flow(&mut self, spec: FlowSpec) -> Result<FlowId, SimError> {
        let is_host = |n: NodeId| matches!(self.topo.kind(n), NodeKind::Host);
        if !is_host(spec.src) || !is_host(spec.dst) {
            return Err(SimError::flow(
                "Engine::add_flow",
                format!(
                    "flows connect hosts, got node {} -> node {}",
                    spec.src.0, spec.dst.0
                ),
            ));
        }
        if spec.src == spec.dst {
            return Err(SimError::flow(
                "Engine::add_flow",
                "flow endpoints must differ",
            ));
        }
        // Both directions must be routable (data forward, ACK/CNP reverse);
        // Topology construction guarantees this for host pairs, so these
        // only fire for a topology built by hand around the validation.
        if self.topo.next_hop(spec.src, spec.dst).is_none()
            || self.topo.next_hop(spec.dst, spec.src).is_none()
        {
            return Err(SimError::flow(
                "Engine::add_flow",
                format!("no route between hosts {} and {}", spec.src.0, spec.dst.0),
            ));
        }
        // A host forwards nothing: its NIC queues its own flows' sends.
        if let Some(h) = self.host_on_route(spec.src, spec.dst) {
            return Err(SimError::flow(
                "Engine::add_flow",
                format!(
                    "the route from host {} to host {} passes through host {} (hosts do not \
                     forward)",
                    spec.src.0, spec.dst.0, h.0
                ),
            ));
        }
        // A NIC send names its flow in 32 bits.
        if self.senders.len() > u32::MAX as usize {
            return Err(SimError::flow(
                "Engine::add_flow",
                format!("flow index {} exceeds 2^32 - 1", self.senders.len()),
            ));
        }
        let start = spec.start;
        // Deterministic per-flow ECMP hash: a one-shot xoshiro draw keyed on
        // the engine seed, the flow index, and the endpoints. Multipath
        // topologies hash this into their equal-cost next-hop sets; the
        // choice is fixed at registration, so routing never consumes runtime
        // randomness (the marking RNG stream is untouched).
        let path_hash = SimRng::new(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.senders.len() as u64)
                ^ ((spec.src.0 as u64) << 32 | spec.dst.0 as u64),
        )
        .next_u64();
        let id = self.senders.push(spec, path_hash);
        self.receivers.push(start);
        self.clocks.push([TimerClock::IDLE; CcUpdate::MAX_TIMERS]);
        self.events.schedule(start, Ev::FlowStart(id));
        Ok(id)
    }

    /// A host other than `dst` on some equal-cost route from `src` to `dst`.
    fn host_on_route(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let mut reached = vec![src];
        while let Some(n) = reached.pop() {
            for &l in self.topo.ecmp_next_hops(n, dst) {
                let next = self.topo.link(l).dst;
                if next == dst {
                    continue;
                }
                if matches!(self.topo.kind(next), NodeKind::Host) {
                    return Some(next);
                }
                reached.push(next);
            }
        }
        None
    }

    /// Run until `end`; returns the report. Panics on an invalid config or
    /// fault schedule; [`Engine::try_run`] is the non-panicking equivalent.
    /// (Unlike `try_run`, an empty flow set is tolerated here for
    /// backwards compatibility and yields an empty report.)
    ///
    /// May be called again with a later `end`: the engine dispatches the
    /// same events in the same order as one run to the last horizon. Each
    /// report's counters and `delivered_bytes` are cumulative; its FCT
    /// records and traces cover what that call dispatched.
    pub fn run(&mut self, end: SimTime) -> SimReport {
        self.cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        self.install_faults().unwrap_or_else(|e| panic!("{e}"));
        self.run_inner(end)
    }

    /// Run until `end`, validating the configuration, the fault schedule
    /// and the flow set first; a rejected input is a descriptive
    /// [`SimError`] instead of a downstream panic.
    pub fn try_run(&mut self, end: SimTime) -> Result<SimReport, SimError> {
        self.cfg.validate()?;
        if self.senders.len() == 0 {
            return Err(SimError::config(
                "Engine::try_run",
                "empty flow set: register at least one flow before running",
            ));
        }
        self.install_faults()?;
        Ok(self.run_inner(end))
    }

    fn run_inner(&mut self, end: SimTime) -> SimReport {
        // Each run starts a fresh causal chain: the first dispatches must
        // not back-point into a previous run on the same thread.
        obs::flight::set_cause(None);
        self.arm_aqm();
        let before = self.counters();
        while let Some((t, ev)) = self.events.pop_due(end) {
            self.now = t;
            self.events_processed += 1;
            self.handle(ev);
        }
        self.now = end;
        for f in 0..self.clocks.len() {
            self.catch_up(FlowId(f), Touch::End);
        }
        self.dispatch_held_until(end);
        // The per-packet paths only bump the engine's own fields; the obs
        // registry (a lock per call) gets what this run added, once.
        for ((name, total), (_, was)) in self.counters().into_iter().zip(before) {
            if total > was {
                obs::metrics::counter_add(name, total - was);
            }
        }
        let faults = self.faults.as_ref();
        SimReport {
            fcts: std::mem::take(&mut self.receivers.fcts),
            queue_traces: self.queue_traces.take_traces(),
            rate_traces: self
                .receivers
                .rate_traces
                .iter_mut()
                .map(std::mem::take)
                .collect(),
            delivered_bytes: self.receivers.delivered_bytes.clone(),
            marked_packets: self.marker.marked,
            data_packets: self.receivers.data_packets,
            cnps_sent: self.receivers.cnps_sent,
            first_mark_time_s: self.marker.first_mark_time.map(SimTime::as_secs_f64),
            pfc_pauses: self.ports.pauses.iter().sum(),
            pfc_paused_s: self
                .ports
                .paused_total
                .iter()
                .zip(&self.ports.paused_since)
                .map(|(&total, &since)| paused_s(total, since, end))
                .sum(),
            fault_drops: faults.map_or(0, FaultPlane::drops),
            fault_pauses: faults.map_or(0, FaultPlane::pauses),
            fault_paused_s: faults.into_iter().flat_map(|p| p.paused_s(end)).sum(),
            faults_injected: faults.map_or(0, FaultPlane::injected),
            events_processed: self.events_processed,
            end_time_s: end.as_secs_f64(),
        }
    }

    /// The counters the obs registry gets, cumulative, by name.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![
            ("netsim.ecn_marks", self.marker.marked),
            ("netsim.cnps_sent", self.receivers.cnps_sent),
            ("netsim.rate_updates", self.rate_updates),
            ("netsim.clock_firings", self.clock_firings),
            ("netsim.clock_tie_convention", self.conventions),
            ("netsim.held_tx_dones", self.held_tx_dones),
            ("netsim.held_then_filed", self.held_then_filed),
        ];
        counters.extend(self.faults.iter().flat_map(FaultPlane::counters));
        counters
    }

    fn handle(&mut self, ev: Ev) {
        let _span = obs::span::enter(obs::Phase::EventDispatch);
        match ev {
            Ev::FlowStart(f) => self.flow_start(f),
            Ev::Pacer(f) => self.pacer_fire(f),
            Ev::TxDone(l) => self.tx_done(l),
            Ev::Deliver(l, p) => self.deliver(l, p),
            Ev::AqmTick => self.aqm_tick(),
            Ev::Fault(idx) => self.fault_fire(idx),
            Ev::FaultStormRelease(l) => self.fault_storm_release(l),
        }
    }

    /// Apply `f`'s CC response to the event being dispatched.
    fn apply_update(&mut self, f: FlowId, update: CcUpdate) {
        if let Some(r) = update.new_rate_bps {
            desim::invariants::finite_rate("cc update rate", r);
            let rate_bps = r.max(1e3);
            self.senders.rate_bps[f.0] = rate_bps;
            self.rate_updates += 1;
            record_rate(f, self.cfg.queue_trace_resolution_s, self.now, rate_bps);
        }
        for &(kind, at) in update.timers() {
            self.clocks[f.0][kind as usize] = TimerClock {
                at: at.max(self.now),
                order: self.events.reserve_seq(),
                rearmed_at: None,
            };
        }
    }

    /// Fire flow `f`'s clocks that are due before `touch`, in order: those
    /// due before now in one call, then, one at a time, those due now that
    /// go before the event being dispatched.
    fn catch_up(&mut self, f: FlowId, touch: Touch) {
        let before = match touch {
            Touch::End => SimTime::from_nanos(self.now.as_nanos().saturating_add(1)),
            Touch::Own | Touch::Hop(_) => self.now,
        };
        if self.clocks[f.0].iter().any(|c| c.at < before) {
            self.fire(f, before, None);
        }
        loop {
            let clocks = &self.clocks[f.0];
            let kind = TimerClock::first(clocks);
            let c = clocks[kind];
            if c.at != self.now || !self.fires_first(c, touch) {
                return;
            }
            self.fire(f, before, Some(kind));
        }
    }

    /// Fire flow `f`'s clocks due strictly before `before` — or, given
    /// `tie`, only that one — and apply what the firings did: each counts one
    /// event, the last rate set is the flow's rate, and the re-armed clocks
    /// take fresh tickets in the order they were re-armed. The first firing
    /// after completion is a no-op; it ends the clock.
    fn fire(&mut self, f: FlowId, before: SimTime, tie: Option<usize>) {
        let clocks = &mut self.clocks[f.0];
        let run = if self.senders.completed[f.0].is_some() {
            let mut fired = 0;
            for (kind, c) in clocks.iter_mut().enumerate() {
                if tie.map_or(c.at < before, |k| k == kind) {
                    c.at = SimTime::MAX;
                    fired += 1;
                }
            }
            TimerRun {
                fired,
                ..TimerRun::default()
            }
        } else {
            let resolution_s = self.cfg.queue_trace_resolution_s;
            let mut record = |at: SimTime, r: f64| record_rate(f, resolution_s, at, r.max(1e3));
            let on_rate = (obs::timeseries::enabled() || obs::trace::enabled())
                .then_some(&mut record as &mut dyn FnMut(SimTime, f64));
            let cc = &mut *self.senders.cc[f.0];
            let mut next_order = REARMED;
            match tie {
                None => cc.fire_timers(clocks, before, &mut next_order, on_rate),
                Some(kind) => {
                    let mut run = TimerRun::default();
                    cc::fire_timer(cc, clocks, kind, &mut next_order, &mut run, on_rate);
                    run
                }
            }
        };
        while let Some(c) = clocks
            .iter_mut()
            .filter(|c| c.order >= REARMED)
            .min_by_key(|c| c.order)
        {
            c.order = self.events.reserve_seq();
        }
        self.events_processed += run.fired;
        self.clock_firings += run.fired;
        self.rate_updates += run.rates;
        if let Some(r) = run.last_rate_bps {
            self.senders.rate_bps[f.0] = r.max(1e3);
        }
    }

    /// Whether clock `c`, due now, fires before `touch`: iff it was armed
    /// before the event being dispatched was scheduled.
    fn fires_first(&mut self, c: TimerClock, touch: Touch) -> bool {
        if matches!(touch, Touch::End) || Some(c.order) < self.events.last_popped_seq() {
            return true;
        }
        // A later ticket. A re-arm, though, took its ticket when its firing
        // ran, which a switch scheduling a host-bound packet did not wait
        // for: the firing's due time against the hop's start decides, and a
        // tie goes to the firing by convention.
        match (touch, c.rearmed_at) {
            (Touch::Hop(hop_at), Some(fired)) => {
                self.conventions += u64::from(fired == hop_at);
                fired <= hop_at
            }
            _ => false,
        }
    }

    fn deliver(&mut self, link: LinkId, h: PacketHandle) {
        let pkt = *self.packets.get(h);
        let lost = self
            .faults
            .as_mut()
            .is_some_and(|p| p.loses(link, &pkt, self.now));
        if lost {
            self.packets.free(h);
            return;
        }
        let node = self.topo.link(link).dst;
        // A data packet heads for its flow's destination, a control packet
        // back to its source; both on the flow's ECMP hash.
        let f = pkt.flow().0;
        let dst = if pkt.is_control() {
            self.senders.src[f]
        } else {
            self.senders.dst[f]
        };
        if matches!(self.topo.kind(node), NodeKind::Switch) || node != dst {
            // Forward toward the destination: the handle moves to the next
            // port queue, the packet body never moves.
            let Some(next) = self.topo.next_hop_for(node, dst, self.senders.path_hash[f]) else {
                // Topology is connected by construction; a stray packet is a
                // bug, but dropping it degrades gracefully in release builds.
                debug_assert!(false, "unroutable packet destination");
                self.packets.free(h);
                return;
            };
            self.enqueue(next, h);
            return;
        }
        // Host consumption: the packet leaves the network, so its arena slot
        // is recycled before any ACK/CNP response allocates (LIFO reuse keeps
        // the response on the same hot cache line).
        self.packets.free(h);
        self.consume(pkt);
    }
}

/// Seconds paused by `end`: `total`, plus the pause under way `since`.
fn paused_s(total: SimDuration, since: Option<SimTime>, end: SimTime) -> f64 {
    let mut d = total;
    if let Some(since) = since {
        d += end.saturating_since(since);
    }
    d.as_secs_f64()
}

/// Record flow `f`'s rate, set at `at`, in the time series and the trace,
/// where those are on.
fn record_rate(f: FlowId, resolution_s: f64, at: SimTime, rate_bps: f64) {
    if obs::timeseries::enabled() {
        obs::timeseries::sample(
            "netsim.rate_bps",
            f.0 as u64,
            resolution_s,
            at.as_secs_f64(),
            rate_bps,
        );
    }
    if obs::trace::enabled() {
        obs::trace::record(
            at.as_secs_f64(),
            obs::Event::RateUpdate {
                flow: f.0 as u64,
                rate_bps,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcEvent, FixedRate};
    use crate::flow::Pacing;

    pub(super) fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    pub(super) fn flow(src: NodeId, dst: NodeId, size: u64, rate: f64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            size_bytes: Some(size),
            start: SimTime::ZERO,
            pacing: Pacing::PerPacket,
            cc: Box::new(FixedRate { rate_bps: rate }),
            ack_chunk_bytes: 16_000,
        }
    }

    #[test]
    fn two_flows_share_bottleneck_queue_grows() {
        // Two fixed 8 Gbps flows into a 10 Gbps bottleneck must build queue
        // and eventually mark packets.
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
        eng.add_flow(flow(senders[1], receiver, 2_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.delivered_bytes[0], 2_000_000);
        assert_eq!(report.delivered_bytes[1], 2_000_000);
        assert!(report.marked_packets > 0, "overload must trigger ECN marks");
        assert!(report.cnps_sent > 0, "marked packets must produce CNPs");
        // Queue trace for the switch→receiver link must show growth.
        let (trace_max, _) = report
            .queue_traces
            .values()
            .map(|tr| {
                let max = tr.points().iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                (max, tr.len())
            })
            .fold((0.0f64, 0usize), |acc, x| (acc.0.max(x.0), acc.1 + x.1));
        assert!(trace_max > 10_000.0, "bottleneck queue should exceed 10 KB");
    }

    #[test]
    fn conservation_no_loss() {
        // Without PFC or caps the simulator is lossless: every payload byte
        // sent is delivered.
        let (topo, senders, receiver) = Topology::single_switch(4, 10e9, us(2));
        let mut eng = Engine::new(topo, EngineConfig::default());
        for &s in senders.iter().take(4) {
            eng.add_flow(flow(s, receiver, 500_000, 9e9));
        }
        let report = eng.run(SimTime::from_millis(50));
        for i in 0..4 {
            assert_eq!(report.delivered_bytes[i], 500_000, "flow {i} lost bytes");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (topo, senders, receiver) = Topology::single_switch(3, 10e9, us(1));
            let mut eng = Engine::new(topo, EngineConfig::default());
            for &s in senders.iter().take(3) {
                eng.add_flow(flow(s, receiver, 300_000, 7e9));
            }
            let r = eng.run(SimTime::from_millis(20));
            (
                r.marked_packets,
                r.cnps_sent,
                r.fcts.iter().map(|f| f.fct_s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_rearm_at_the_last_hops_instant_is_settled_by_convention() {
        // Timers every 1 800 ns on a one-packet flow that completes at
        // 3 600 ns: the firings there were re-armed at 1 800 ns, the very
        // instant the switch scheduled the last hop. The engine cannot tell
        // which came first; both firings go first and are counted (as the
        // always-schedule engine ordered them here: 16 events, the no-ops
        // at 5 400 ns).
        #[derive(Debug)]
        struct Ticking;
        impl crate::cc::CongestionControl for Ticking {
            fn on_start(&mut self, now: SimTime, line: f64) -> CcUpdate {
                let next = now + SimDuration::from_nanos(1_800);
                CcUpdate::rate(line).with_timer(0, next).with_timer(1, next)
            }
            fn on_event(&mut self, now: SimTime, ev: CcEvent) -> CcUpdate {
                match ev {
                    CcEvent::Timer { kind } => {
                        CcUpdate::none().with_timer(kind, now + SimDuration::from_nanos(1_800))
                    }
                    _ => CcUpdate::none(),
                }
            }
            fn current_rate_bps(&self) -> f64 {
                10e9
            }
        }
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        let mut spec = flow(senders[0], receiver, 952, 10e9);
        spec.cc = Box::new(Ticking);
        eng.add_flow(spec);
        let report = eng.run(SimTime::from_millis(1));
        assert_eq!(
            report.fcts[0].fct_s,
            SimTime::from_nanos(3_600).as_secs_f64()
        );
        assert_eq!((eng.conventions, report.events_processed), (2, 16));
    }

    #[test]
    fn try_add_flow_rejects_bad_endpoints() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let switch = NodeId(2);
        let mut eng = Engine::new(topo, EngineConfig::default());
        let err = eng
            .try_add_flow(flow(senders[0], switch, 1_000, 1e9))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidFlow { .. }), "{err}");
        let err = eng
            .try_add_flow(flow(receiver, receiver, 1_000, 1e9))
            .unwrap_err();
        assert!(err.to_string().contains("must differ"), "{err}");
    }

    #[test]
    fn try_add_flow_rejects_a_route_through_a_host() {
        use crate::topology::Link;
        // H0 — H1 — H2: the only route from H0 to H2 crosses H1.
        let link = |a: usize, b: usize| Link {
            src: NodeId(a),
            dst: NodeId(b),
            bandwidth_bps: 10e9,
            prop_delay: us(1),
        };
        let links = vec![link(0, 1), link(1, 0), link(1, 2), link(2, 1)];
        let topo = Topology::new(vec![NodeKind::Host; 3], links);
        let mut eng = Engine::new(topo, EngineConfig::default());
        let err = eng
            .try_add_flow(flow(NodeId(0), NodeId(2), 1_000, 1e9))
            .unwrap_err();
        assert!(err.to_string().contains("passes through host 1"), "{err}");
        assert!(eng
            .try_add_flow(flow(NodeId(0), NodeId(1), 1_000, 1e9))
            .is_ok());
    }

    #[test]
    fn try_run_rejects_empty_flow_set() {
        let (topo, _senders, _receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        let err = eng.try_run(SimTime::from_millis(1)).unwrap_err();
        assert!(err.to_string().contains("empty flow set"), "{err}");
    }
}
