//! The deterministic event loop: hosts, switches, links, marking, tracing.
//!
//! The engine is a single struct owning all state (no shared-pointer
//! gymnastics), driven off one [`desim::EventQueue`]; the egress ports and
//! the transmit path are a second `impl Engine` block in `port.rs`. The
//! event vocabulary is deliberately tiny:
//!
//! | event | what it does | on the wheel when |
//! |---|---|---|
//! | `FlowStart` | a flow becomes active; its congestion control is started and its pacer armed | always |
//! | `Pacer` | a flow's rate limiter releases the next packet (or, under per-chunk pacing, the next burst) into the host NIC queue | always |
//! | `TxDone` | a port finished serializing a packet; it picks the next one (control queue first, strict priority) | only if something is, or becomes, queued behind the transmission — otherwise held in the port |
//! | `Deliver` | a packet arrives at the far end of a link after serialization + propagation; switches forward it, hosts consume it | always |
//! | `AqmTick`, `Fault`, `FaultStormRelease` | the PI controller's period and the fault plane's operations | always |
//!
//! **The ticket contract.** Events are dispatched in `(time, ticket)` order
//! and in no other; every event takes its ticket (the queue's tie-break
//! counter) at the point where it is armed, whether or not it gets a wheel
//! entry then. A `TxDone` with nothing queued behind it would only clear
//! the port's busy flag, so it is *held* — `(idle_at, ticket)` in the port
//! — and put on the wheel under that ticket by the first packet that joins
//! the queue before it is due; once it is due, whoever looks at the port
//! next (or the end of the run) frees the port and counts the event.
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
//!
//! ECN marking happens either when a data packet **starts transmission**
//! (egress mode — the queue state at departure, §5.2) or when it is
//! **enqueued** (ingress mode, Figure 17). CNP generation implements the
//! NP's τ coalescing timer. Completion ACKs echo the chunk send timestamp
//! so the sender-side protocol computes RTT samples without global state.

use crate::cc::{self, CcEvent, CcUpdate, TimerClock, TimerRun};
use crate::config::{MarkingMode, PfcConfig, RedConfig};
use crate::flow::{FlowSpec, Pacing, ReceiverFlows, SenderFlows};
use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use crate::trace::LinkTraceMap;
use crate::types::{FlowId, Packet, PacketArena, PacketHandle, PacketKind};
use desim::stats::TimeSeries;
use desim::{EventQueue, SimDuration, SimRng, SimTime};
use faults::{FaultKind, FaultSchedule, ParamTarget, SimError};

#[path = "port.rs"]
mod port;
use port::{LinkMemo, Ports};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Payload bytes per full data packet.
    pub mtu_bytes: u32,
    /// Per-packet header overhead added to the wire size.
    pub header_bytes: u32,
    /// Wire size of control packets (ACK/CNP).
    pub control_packet_bytes: u32,
    /// RED/ECN profile applied at switch egress queues.
    pub red: RedConfig,
    /// Marking point (egress vs ingress).
    pub marking: MarkingMode,
    /// NP CNP coalescing interval τ (50 µs in the paper).
    pub cnp_interval: SimDuration,
    /// Optional PFC emulation (off by default; the paper ignores PFC).
    pub pfc: Option<PfcConfig>,
    /// Optional PI-controller AQM; when set, it replaces the RED curve as
    /// the source of the marking probability (queue pinned at `q_ref`).
    pub pi_aqm: Option<crate::config::PiAqmConfig>,
    /// RNG seed (drives probabilistic marking only).
    pub seed: u64,
    /// Queue-trace decimation (seconds); traces recorded for every switch
    /// egress queue.
    pub queue_trace_resolution_s: f64,
    /// Per-flow throughput trace window; `None` disables rate traces.
    pub rate_trace_window: Option<SimDuration>,
    /// Optional fault-injection schedule, compiled onto the event queue at
    /// the start of the run. `None` (and an empty schedule) leave the run
    /// bit-identical to a fault-free engine — the fault plane draws from
    /// its own per-link RNG sub-streams, never from the marking RNG.
    pub faults: Option<FaultSchedule>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mtu_bytes: 1000,
            header_bytes: 48,
            control_packet_bytes: 64,
            red: RedConfig::dcqcn_default(),
            marking: MarkingMode::Egress,
            cnp_interval: SimDuration::from_micros(50),
            pfc: None,
            pi_aqm: None,
            seed: 1,
            queue_trace_resolution_s: 20e-6,
            rate_trace_window: Some(SimDuration::from_micros(100)),
            faults: None,
        }
    }
}

impl EngineConfig {
    /// Validate field ranges, returning a descriptive [`SimError`] naming
    /// the offending field. [`Engine::try_run`] calls this before the event
    /// loop starts, so a bad config is a structured error instead of a
    /// downstream panic or silent NaN. The fault schedule is validated
    /// separately against the topology's link count at install time.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| Err(SimError::config("EngineConfig", detail));
        if self.mtu_bytes == 0 {
            return bad("mtu_bytes must be positive".to_string());
        }
        if self.control_packet_bytes == 0 {
            return bad("control_packet_bytes must be positive".to_string());
        }
        if self.red.kmin_bytes > self.red.kmax_bytes {
            return bad(format!(
                "red.kmin_bytes {} exceeds red.kmax_bytes {}",
                self.red.kmin_bytes, self.red.kmax_bytes
            ));
        }
        if !(self.red.p_max.is_finite() && (0.0..=1.0).contains(&self.red.p_max)) {
            return bad(format!("red.p_max {} outside [0, 1]", self.red.p_max));
        }
        if !(self.queue_trace_resolution_s.is_finite() && self.queue_trace_resolution_s > 0.0) {
            return bad(format!(
                "queue_trace_resolution_s {} must be positive and finite (a zero or negative \
                 trace interval is meaningless)",
                self.queue_trace_resolution_s
            ));
        }
        if let Some(pfc) = &self.pfc {
            if pfc.resume_threshold_bytes > pfc.pause_threshold_bytes {
                return bad(format!(
                    "pfc.resume_threshold_bytes {} exceeds pfc.pause_threshold_bytes {} \
                     (the port would pause and resume simultaneously)",
                    pfc.resume_threshold_bytes, pfc.pause_threshold_bytes
                ));
            }
        }
        if let Some(pi) = &self.pi_aqm {
            if !(pi.a_per_byte.is_finite() && pi.b_per_byte.is_finite()) {
                return bad(format!(
                    "pi_aqm coefficients must be finite (a {}, b {})",
                    pi.a_per_byte, pi.b_per_byte
                ));
            }
            if pi.update_interval == SimDuration::ZERO {
                return bad("pi_aqm.update_interval must be positive".to_string());
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
enum Ev {
    FlowStart(FlowId),
    Pacer(FlowId),
    TxDone(LinkId),
    /// A packet (by arena handle) arrives at the far end of a link. Events
    /// carry 4-byte handles, not ~72-byte [`Packet`] values: the event
    /// queue's payload arena stays dense and packets are never memcpy'd
    /// between hops.
    Deliver(LinkId, PacketHandle),
    /// Periodic PI-AQM controller update across all switch ports.
    AqmTick,
    /// A compiled fault-plane operation (index into `Engine::fault_ops`).
    Fault(usize),
    /// End of one pause-storm forced-pause interval on a link.
    FaultStormRelease(LinkId),
}

/// A windowed fault effect active on a link. Loss probabilities across
/// overlapping windows combine as `1 − Π(1 − pᵢ)`; delays add.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WindowEffect {
    /// Bernoulli drop probability for data packets.
    DataLoss(f64),
    /// Bernoulli drop probability for CNPs.
    CnpLoss(f64),
    /// Mean of an exponential per-packet extra delivery delay (seconds).
    Jitter(f64),
    /// Constant extra delivery delay (seconds).
    ExtraDelay(f64),
}

impl WindowEffect {
    fn label(&self) -> &'static str {
        match self {
            WindowEffect::DataLoss(_) => "data_loss",
            WindowEffect::CnpLoss(_) => "cnp_loss",
            WindowEffect::Jitter(_) => "jitter",
            WindowEffect::ExtraDelay(_) => "delay_spike",
        }
    }
}

/// A fault-schedule entry compiled into an engine-executable operation.
#[derive(Debug, Clone, Copy)]
enum FaultOp {
    LinkDown {
        link: usize,
    },
    LinkUp {
        link: usize,
    },
    WindowStart {
        link: usize,
        window: u32,
        effect: WindowEffect,
    },
    WindowEnd {
        link: usize,
        window: u32,
    },
    /// One storm tick: force a pause of `pause`, then re-schedule itself
    /// every `period` until `until`.
    StormTick {
        link: usize,
        period: SimDuration,
        pause: SimDuration,
        until: SimTime,
    },
    Perturb {
        target: ParamTarget,
        scale: f64,
    },
}

/// Per-link fault state (allocated only when a non-empty schedule is
/// installed; the fault-free hot path checks a single `faults_active` bool).
#[derive(Debug)]
struct LinkFaultState {
    /// False while a link-flap outage is in effect.
    up: bool,
    /// True while a pause storm holds the link's data class paused.
    storm_paused: bool,
    storm_since: Option<SimTime>,
    storm_total: SimDuration,
    /// The `(schedule seed, link id)`-keyed RNG sub-stream: loss coin flips
    /// and jitter samples never touch the engine's marking RNG.
    rng: SimRng,
    /// Active windowed effects as `(window id, effect)`.
    windows: Vec<(u32, WindowEffect)>,
}

impl LinkFaultState {
    fn new(rng: SimRng) -> Self {
        LinkFaultState {
            up: true,
            storm_paused: false,
            storm_since: None,
            storm_total: SimDuration::ZERO,
            rng,
            windows: Vec::new(),
        }
    }
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
    rng: SimRng,
    ports: Ports,
    senders: SenderFlows,
    receivers: ReceiverFlows,
    /// In-flight packet storage; port queues and `Deliver` events reference
    /// packets by [`PacketHandle`].
    packets: PacketArena,
    /// Each flow's CC clocks, one per timer kind, fired by
    /// [`Engine::catch_up`]; a clock's `order` is the ticket its arming took.
    clocks: Vec<[TimerClock; CcUpdate::MAX_TIMERS]>,
    link_memo: Vec<LinkMemo>,
    queue_traces: LinkTraceMap,
    rate_window_bytes: Vec<u64>,
    rate_window_start: Vec<SimTime>,
    rate_traces: Vec<Vec<(f64, f64)>>,
    delivered_bytes: Vec<u64>,
    marked_packets: u64,
    data_packets: u64,
    cnps_sent: u64,
    rate_updates: u64,
    next_packet_id: u64,
    first_mark_time: Option<SimTime>,
    fcts: Vec<FctRecord>,
    /// True once a non-empty fault schedule is installed; every fault check
    /// on the hot path is gated behind this single well-predicted branch,
    /// so the fault-free run pays (approximately) nothing.
    faults_active: bool,
    faults_installed: bool,
    aqm_armed: bool,
    link_faults: Vec<LinkFaultState>,
    fault_ops: Vec<FaultOp>,
    fault_drops: u64,
    fault_pauses: u64,
    faults_injected: u64,
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
        let ports = Ports::new(topo.link_count());
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
            .collect();
        let rng = SimRng::new(cfg.seed);
        Engine {
            topo,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            ports,
            senders: SenderFlows::default(),
            receivers: ReceiverFlows::default(),
            packets: PacketArena::new(),
            clocks: Vec::new(),
            link_memo,
            queue_traces,
            rate_window_bytes: Vec::new(),
            rate_window_start: Vec::new(),
            rate_traces: Vec::new(),
            delivered_bytes: Vec::new(),
            marked_packets: 0,
            data_packets: 0,
            cnps_sent: 0,
            rate_updates: 0,
            next_packet_id: 0,
            first_mark_time: None,
            fcts: Vec::new(),
            faults_active: false,
            faults_installed: false,
            aqm_armed: false,
            link_faults: Vec::new(),
            fault_ops: Vec::new(),
            fault_drops: 0,
            fault_pauses: 0,
            faults_injected: 0,
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
        self.receivers.push();
        self.clocks.push([TimerClock::IDLE; CcUpdate::MAX_TIMERS]);
        self.rate_window_bytes.push(0);
        self.rate_window_start.push(start);
        self.rate_traces.push(Vec::new());
        self.delivered_bytes.push(0);
        self.events.schedule(start, Ev::FlowStart(id));
        Ok(id)
    }

    /// The line rate of a host's uplink.
    fn line_rate(&self, host: NodeId) -> f64 {
        let l = self.topo.out_links(host)[0]; // hosts have exactly one uplink
        self.topo.link(l).bandwidth_bps
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
        if self.senders.is_empty() {
            return Err(SimError::config(
                "Engine::try_run",
                "empty flow set: register at least one flow before running",
            ));
        }
        self.install_faults()?;
        Ok(self.run_inner(end))
    }

    /// Compile the fault schedule (if any) onto the event queue. Idempotent:
    /// only the first call on an engine installs.
    fn install_faults(&mut self) -> Result<(), SimError> {
        if self.faults_installed {
            return Ok(());
        }
        self.faults_installed = true;
        let Some(schedule) = self.cfg.faults.clone() else {
            return Ok(());
        };
        schedule.validate(self.topo.link_count())?;
        if schedule.is_empty() {
            return Ok(());
        }
        self.faults_active = true;
        self.link_faults = (0..self.topo.link_count())
            .map(|l| LinkFaultState::new(faults::link_stream(schedule.seed, l)))
            .collect();
        let mut window = 0u32;
        for ev in &schedule.events {
            let at = SimTime::from_secs_f64(ev.at_s);
            match ev.kind {
                FaultKind::LinkFlap { link, down_s } => {
                    self.push_fault_op(at, FaultOp::LinkDown { link });
                    let up_at = at + SimDuration::from_secs_f64(down_s);
                    self.push_fault_op(up_at, FaultOp::LinkUp { link });
                }
                FaultKind::PacketLoss {
                    link,
                    probability,
                    duration_s,
                } => {
                    self.push_fault_window(
                        at,
                        duration_s,
                        link,
                        &mut window,
                        WindowEffect::DataLoss(probability),
                    );
                }
                FaultKind::CnpLoss {
                    link,
                    probability,
                    duration_s,
                } => {
                    self.push_fault_window(
                        at,
                        duration_s,
                        link,
                        &mut window,
                        WindowEffect::CnpLoss(probability),
                    );
                }
                FaultKind::RttJitter {
                    link,
                    sigma_s,
                    duration_s,
                } => {
                    self.push_fault_window(
                        at,
                        duration_s,
                        link,
                        &mut window,
                        WindowEffect::Jitter(sigma_s),
                    );
                }
                FaultKind::DelaySpike {
                    link,
                    extra_s,
                    duration_s,
                } => {
                    self.push_fault_window(
                        at,
                        duration_s,
                        link,
                        &mut window,
                        WindowEffect::ExtraDelay(extra_s),
                    );
                }
                FaultKind::PauseStorm {
                    link,
                    period_s,
                    pause_frac,
                    duration_s,
                } => {
                    let op = FaultOp::StormTick {
                        link,
                        period: SimDuration::from_secs_f64(period_s),
                        pause: SimDuration::from_secs_f64(period_s * pause_frac),
                        until: at + SimDuration::from_secs_f64(duration_s),
                    };
                    self.push_fault_op(at, op);
                }
                FaultKind::Perturb { target, scale } => {
                    self.push_fault_op(at, FaultOp::Perturb { target, scale });
                }
            }
        }
        Ok(())
    }

    fn push_fault_op(&mut self, at: SimTime, op: FaultOp) {
        let idx = self.fault_ops.len();
        self.fault_ops.push(op);
        self.events.schedule(at, Ev::Fault(idx));
    }

    fn push_fault_window(
        &mut self,
        at: SimTime,
        duration_s: f64,
        link: usize,
        window: &mut u32,
        effect: WindowEffect,
    ) {
        let id = *window;
        *window += 1;
        self.push_fault_op(
            at,
            FaultOp::WindowStart {
                link,
                window: id,
                effect,
            },
        );
        let end_at = at + SimDuration::from_secs_f64(duration_s);
        self.push_fault_op(end_at, FaultOp::WindowEnd { link, window: id });
    }

    fn run_inner(&mut self, end: SimTime) -> SimReport {
        // Each run starts a fresh causal chain: the first dispatches must
        // not back-point into a previous run on the same thread.
        obs::flight::set_cause(None);
        // The tick re-arms itself: a later run on this engine finds it pending.
        if let Some(pi) = self.cfg.pi_aqm.as_ref().filter(|_| !self.aqm_armed) {
            self.aqm_armed = true;
            let at = self.now + pi.update_interval;
            self.events.schedule(at, Ev::AqmTick);
        }
        let before = (self.marked_packets, self.cnps_sent, self.rate_updates);
        let fired = (self.clock_firings, self.conventions);
        let held = (self.held_tx_dones, self.held_then_filed);
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
        for (name, added) in [
            ("netsim.ecn_marks", self.marked_packets - before.0),
            ("netsim.cnps_sent", self.cnps_sent - before.1),
            ("netsim.rate_updates", self.rate_updates - before.2),
            ("netsim.clock_firings", self.clock_firings - fired.0),
            ("netsim.clock_tie_convention", self.conventions - fired.1),
            ("netsim.held_tx_dones", self.held_tx_dones - held.0),
            ("netsim.held_then_filed", self.held_then_filed - held.1),
        ] {
            if added > 0 {
                obs::metrics::counter_add(name, added);
            }
        }
        SimReport {
            fcts: std::mem::take(&mut self.fcts),
            queue_traces: self.queue_traces.take_traces(),
            rate_traces: self.rate_traces.iter_mut().map(std::mem::take).collect(),
            delivered_bytes: self.delivered_bytes.clone(),
            marked_packets: self.marked_packets,
            data_packets: self.data_packets,
            cnps_sent: self.cnps_sent,
            first_mark_time_s: self.first_mark_time.map(SimTime::as_secs_f64),
            pfc_pauses: self.ports.pauses.iter().sum(),
            pfc_paused_s: self
                .ports
                .paused_total
                .iter()
                .zip(&self.ports.paused_since)
                .map(|(&total, &since)| {
                    let mut d = total;
                    if let Some(since) = since {
                        d += end.saturating_since(since);
                    }
                    d.as_secs_f64()
                })
                .sum(),
            fault_drops: self.fault_drops,
            fault_pauses: self.fault_pauses,
            fault_paused_s: self
                .link_faults
                .iter()
                .map(|fs| {
                    let mut d = fs.storm_total;
                    if let Some(since) = fs.storm_since {
                        d += end.saturating_since(since);
                    }
                    d.as_secs_f64()
                })
                .sum(),
            faults_injected: self.faults_injected,
            events_processed: self.events_processed,
            end_time_s: end.as_secs_f64(),
        }
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

    /// Execute one compiled fault-plane operation. Every injected fault is
    /// counted and emitted as an obs trace event.
    fn fault_fire(&mut self, idx: usize) {
        let op = self.fault_ops[idx];
        self.faults_injected += 1;
        let t_s = self.now.as_secs_f64();
        match op {
            FaultOp::LinkDown { link } => {
                self.link_faults[link].up = false;
                obs::metrics::counter_inc("netsim.fault_link_flaps");
                if obs::trace::enabled() {
                    obs::trace::record(t_s, obs::Event::LinkDown { link: link as u64 });
                }
            }
            FaultOp::LinkUp { link } => {
                self.link_faults[link].up = true;
                if obs::trace::enabled() {
                    obs::trace::record(t_s, obs::Event::LinkUp { link: link as u64 });
                }
                // Drain whatever queued while the link was down.
                self.try_transmit(LinkId(link));
            }
            FaultOp::WindowStart {
                link,
                window,
                effect,
            } => {
                self.link_faults[link].windows.push((window, effect));
                obs::metrics::counter_inc("netsim.fault_windows");
                if obs::trace::enabled() {
                    obs::trace::record(
                        t_s,
                        obs::Event::FaultWindow {
                            link: link as u64,
                            effect: effect.label(),
                            starting: true,
                        },
                    );
                }
            }
            FaultOp::WindowEnd { link, window } => {
                let fs = &mut self.link_faults[link];
                if let Some(pos) = fs.windows.iter().position(|(w, _)| *w == window) {
                    let (_, effect) = fs.windows.remove(pos);
                    if obs::trace::enabled() {
                        obs::trace::record(
                            t_s,
                            obs::Event::FaultWindow {
                                link: link as u64,
                                effect: effect.label(),
                                starting: false,
                            },
                        );
                    }
                }
            }
            FaultOp::StormTick {
                link,
                period,
                pause,
                until,
            } => {
                if self.now > until {
                    return;
                }
                let fs = &mut self.link_faults[link];
                if !fs.storm_paused {
                    fs.storm_paused = true;
                    fs.storm_since = Some(self.now);
                    self.fault_pauses += 1;
                    obs::metrics::counter_inc("netsim.fault_pauses");
                    if obs::trace::enabled() {
                        obs::trace::record(t_s, obs::Event::FaultPause { link: link as u64 });
                    }
                }
                self.events
                    .schedule(self.now + pause, Ev::FaultStormRelease(LinkId(link)));
                let next = self.now + period;
                if next <= until {
                    self.events.schedule(next, Ev::Fault(idx));
                }
            }
            FaultOp::Perturb { target, scale } => {
                match target {
                    ParamTarget::RedKmax => {
                        let scaled = (self.cfg.red.kmax_bytes as f64 * scale).max(1.0) as u64;
                        // Preserve kmin <= kmax so the RED curve stays valid.
                        self.cfg.red.kmax_bytes = scaled.max(self.cfg.red.kmin_bytes);
                    }
                    ParamTarget::CcRateIncrease => {
                        for f in 0..self.senders.len() {
                            self.catch_up(FlowId(f), Touch::Own);
                            self.senders.cc[f].perturb(target, scale);
                        }
                    }
                }
                obs::metrics::counter_inc("netsim.fault_perturbations");
                if obs::trace::enabled() {
                    obs::trace::record(
                        t_s,
                        obs::Event::ParamPerturbed {
                            param: target.label(),
                            scale,
                        },
                    );
                }
            }
        }
    }

    /// End of a pause-storm forced-pause interval.
    fn fault_storm_release(&mut self, link: LinkId) {
        let fs = &mut self.link_faults[link.0];
        if fs.storm_paused {
            fs.storm_paused = false;
            if let Some(since) = fs.storm_since.take() {
                fs.storm_total += self.now.saturating_since(since);
            }
            self.try_transmit(link);
        }
    }

    /// Sum of active constant extra delays plus one exponential sample per
    /// active jitter window, drawn from the link's fault sub-stream.
    fn fault_extra_delay_s(&mut self, link: LinkId) -> f64 {
        let fs = &mut self.link_faults[link.0];
        if fs.windows.is_empty() {
            return 0.0;
        }
        let mut extra = 0.0;
        for i in 0..fs.windows.len() {
            match fs.windows[i].1 {
                WindowEffect::ExtraDelay(d) => extra += d,
                WindowEffect::Jitter(sigma) if sigma > 0.0 => extra += fs.rng.exponential(sigma),
                _ => {}
            }
        }
        extra
    }

    /// Fault-plane loss check at delivery. Data packets see the combined
    /// data-loss windows; CNPs see the CNP-loss windows; ACKs are never
    /// targeted. Draws from the link's fault RNG sub-stream only when a
    /// loss window is active, so inactive links consume no randomness.
    fn fault_drop(&mut self, link: LinkId, pkt: &Packet) -> bool {
        let is_cnp = matches!(pkt.kind, PacketKind::Cnp);
        if pkt.is_control() && !is_cnp {
            return false;
        }
        let p_drop = {
            let fs = &self.link_faults[link.0];
            if fs.windows.is_empty() {
                return false;
            }
            let mut keep = 1.0;
            for (_, e) in &fs.windows {
                match *e {
                    WindowEffect::DataLoss(p) if !is_cnp => keep *= 1.0 - p,
                    WindowEffect::CnpLoss(p) if is_cnp => keep *= 1.0 - p,
                    _ => {}
                }
            }
            1.0 - keep
        };
        if p_drop <= 0.0 || self.link_faults[link.0].rng.next_f64() >= p_drop {
            return false;
        }
        self.fault_drops += 1;
        obs::metrics::counter_inc("netsim.fault_drops");
        if obs::trace::enabled() {
            obs::trace::record(
                self.now.as_secs_f64(),
                obs::Event::FaultDrop {
                    flow: pkt.flow.0 as u64,
                    link: link.0 as u64,
                    control: is_cnp,
                },
            );
        }
        true
    }

    /// Discrete PI-AQM update (Hollot-style): for every switch egress queue,
    /// `p += a·(q − q_ref) − b·(q_old − q_ref)`, clamped to [0, 1].
    fn aqm_tick(&mut self) {
        let Some(pi) = &self.cfg.pi_aqm else {
            return;
        };
        for (l, memo) in self.link_memo.iter().enumerate() {
            if !memo.is_switch {
                continue;
            }
            let q_now = self.ports.data_bytes[l];
            let e_now = q_now as f64 - pi.q_ref_bytes as f64;
            let e_old = self.ports.pi_q_old[l] as f64 - pi.q_ref_bytes as f64;
            self.ports.pi_p[l] = (self.ports.pi_p[l] + pi.a_per_byte * e_now
                - pi.b_per_byte * e_old)
                .clamp(0.0, 1.0);
            self.ports.pi_q_old[l] = q_now;
        }
        let at = self.now + pi.update_interval;
        self.events.schedule(at, Ev::AqmTick);
    }

    fn flow_start(&mut self, f: FlowId) {
        let line = self.line_rate(self.senders.src[f.0]);
        let now = self.now;
        let update = self.senders.cc[f.0].on_start(now, line);
        self.apply_update(f, update);
        if self.senders.rate_bps[f.0] <= 0.0 {
            self.senders.rate_bps[f.0] = line;
        }
        self.events.schedule(self.now, Ev::Pacer(f));
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

    fn next_packet_id(&mut self) -> u64 {
        self.next_packet_id += 1;
        self.next_packet_id
    }

    /// Pacer: release the next packet (or chunk) of flow `f`.
    fn pacer_fire(&mut self, f: FlowId) {
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
                let pkt = self.make_data_packet(f);
                let wire = pkt.size_bytes;
                let h = self.packets.alloc(pkt);
                self.enqueue(uplink, h);
                let gap =
                    SimDuration::serialization(wire as u64, self.senders.rate_bps[f.0].max(1e3));
                if !self.senders.fully_sent(f) {
                    self.events.schedule(self.now + gap, Ev::Pacer(f));
                }
                let payload = wire.saturating_sub(self.cfg.header_bytes) as u64;
                self.notify_sent(f, payload);
            }
            Pacing::PerChunk { seg_bytes } => {
                // Release a whole chunk back-to-back (the NIC queue
                // serializes it at line rate), then idle until the average
                // rate matches the target.
                let mut chunk_payload = 0u64;
                self.senders.chunk_started[f.0] = self.now;
                let seg = seg_bytes.max(self.cfg.mtu_bytes) as u64;
                while chunk_payload < seg && !self.senders.fully_sent(f) {
                    let last_in_chunk = {
                        let remaining = self.senders.remaining(f);
                        let next_payload = remaining.min(self.cfg.mtu_bytes as u64);
                        chunk_payload + next_payload >= seg || remaining <= next_payload
                    };
                    let pkt = self.make_chunk_packet(f, last_in_chunk);
                    chunk_payload += pkt.payload_bytes();
                    let h = self.packets.alloc(pkt);
                    self.enqueue(uplink, h);
                }
                self.notify_sent(f, chunk_payload);
                if !self.senders.fully_sent(f) {
                    let gap = SimDuration::serialization(
                        chunk_payload
                            + (chunk_payload / self.cfg.mtu_bytes as u64 + 1)
                                * self.cfg.header_bytes as u64,
                        self.senders.rate_bps[f.0].max(1e3),
                    );
                    self.events.schedule(self.now + gap, Ev::Pacer(f));
                }
            }
        }
    }

    fn notify_sent(&mut self, f: FlowId, payload: u64) {
        self.senders.sent_payload[f.0] += payload;
        let now = self.now;
        let update = self.senders.cc[f.0].on_event(now, CcEvent::SentBytes { bytes: payload });
        self.apply_update(f, update);
    }

    /// Build the next per-packet-pacing data packet for `f`, maintaining the
    /// ACK-request chunking state.
    fn make_data_packet(&mut self, f: FlowId) -> Packet {
        let id = self.next_packet_id();
        let s = &mut self.senders;
        let payload = s.remaining(f).min(self.cfg.mtu_bytes as u64) as u32;
        let offset = s.next_offset[f.0];
        s.next_offset[f.0] += payload as u64;
        let last_of_flow = s.fully_sent(f);
        if s.since_ack_request[f.0] == 0 {
            s.chunk_started[f.0] = self.now;
        }
        s.since_ack_request[f.0] += payload;
        let ack_request = s.since_ack_request[f.0] >= s.ack_chunk_bytes[f.0] || last_of_flow;
        if ack_request {
            s.since_ack_request[f.0] = 0;
        }
        Packet {
            id,
            flow: f,
            src: s.src[f.0],
            dst: s.dst[f.0],
            size_bytes: payload + self.cfg.header_bytes,
            kind: PacketKind::Data {
                offset,
                payload,
                ack_request,
                last_of_flow,
                // Under per-packet pacing the RTT probe is the ack-requesting
                // packet itself: hardware timestamps the probe's departure, so
                // the sender's own pacing gaps do not pollute the sample.
                chunk_sent_at: self.now,
            },
            ecn_marked: false,
            last_hop_at: self.now,
        }
    }

    /// Build the next packet of a per-chunk burst.
    fn make_chunk_packet(&mut self, f: FlowId, last_in_chunk: bool) -> Packet {
        let id = self.next_packet_id();
        let s = &mut self.senders;
        let payload = s.remaining(f).min(self.cfg.mtu_bytes as u64) as u32;
        let offset = s.next_offset[f.0];
        s.next_offset[f.0] += payload as u64;
        let last_of_flow = s.fully_sent(f);
        Packet {
            id,
            flow: f,
            src: s.src[f.0],
            dst: s.dst[f.0],
            size_bytes: payload + self.cfg.header_bytes,
            kind: PacketKind::Data {
                offset,
                payload,
                ack_request: last_in_chunk || last_of_flow,
                last_of_flow,
                chunk_sent_at: s.chunk_started[f.0],
            },
            ecn_marked: false,
            last_hop_at: self.now,
        }
    }

    fn deliver(&mut self, link: LinkId, h: PacketHandle) {
        let pkt = *self.packets.get(h);
        if self.faults_active && self.fault_drop(link, &pkt) {
            self.packets.free(h);
            return;
        }
        let node = self.topo.link(link).dst;
        if matches!(self.topo.kind(node), NodeKind::Switch) || node != pkt.dst {
            // Forward toward the destination: the handle moves to the next
            // port queue, the packet body never moves.
            let Some(next) =
                self.topo
                    .next_hop_for(node, pkt.dst, self.senders.path_hash[pkt.flow.0])
            else {
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
        match pkt.kind {
            PacketKind::Data {
                payload,
                ack_request,
                last_of_flow,
                chunk_sent_at,
                ..
            } => {
                self.data_packets += 1;
                let f = pkt.flow;
                self.delivered_bytes[f.0] += payload as u64;
                self.record_rate_sample(f, payload as u64);
                self.receivers.received[f.0] += payload as u64;
                self.receivers.last_byte_at[f.0] = Some(self.now);

                // DCQCN NP behaviour: CNP on marked packet, coalesced to τ.
                if pkt.ecn_marked {
                    let due = match self.receivers.last_cnp[f.0] {
                        None => true,
                        Some(t) => self.now.saturating_since(t) >= self.cfg.cnp_interval,
                    };
                    if due {
                        self.receivers.last_cnp[f.0] = Some(self.now);
                        self.cnps_sent += 1;
                        if obs::trace::enabled() {
                            obs::trace::record(
                                self.now.as_secs_f64(),
                                obs::Event::CnpSent { flow: f.0 as u64 },
                            );
                        }
                        let cnp = Packet {
                            id: 0,
                            flow: f,
                            src: pkt.dst,
                            dst: pkt.src,
                            size_bytes: self.cfg.control_packet_bytes,
                            kind: PacketKind::Cnp,
                            ecn_marked: false,
                            last_hop_at: self.now,
                        };
                        self.send_control(cnp);
                    }
                }
                if ack_request {
                    let ack = Packet {
                        id: 0,
                        flow: f,
                        src: pkt.dst,
                        dst: pkt.src,
                        size_bytes: self.cfg.control_packet_bytes,
                        kind: PacketKind::Ack {
                            chunk_sent_at,
                            chunk_bytes: self.senders.ack_chunk_bytes[f.0],
                        },
                        ecn_marked: false,
                        last_hop_at: self.now,
                    };
                    self.send_control(ack);
                }
                if last_of_flow && self.senders.completed[f.0].is_none() {
                    self.catch_up(f, Touch::Hop(pkt.last_hop_at));
                    let s = &mut self.senders;
                    s.completed[f.0] = Some(self.now);
                    let start = s.start[f.0];
                    let fct_s = self.now.saturating_since(start).as_secs_f64();
                    self.fcts.push(FctRecord {
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
            PacketKind::Ack { .. } | PacketKind::Cnp => {
                let f = pkt.flow;
                if self.senders.completed[f.0].is_some() {
                    return;
                }
                self.catch_up(f, Touch::Hop(pkt.last_hop_at));
                let event = match pkt.kind {
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

    /// Route a control packet from its source host toward its destination.
    fn send_control(&mut self, pkt: Packet) {
        let Some(l) = self
            .topo
            .next_hop_for(pkt.src, pkt.dst, self.senders.path_hash[pkt.flow.0])
        else {
            // Control packets reverse a validated data route; losing one is
            // recoverable (feedback is periodic), aborting is not.
            debug_assert!(false, "no control route");
            return;
        };
        let h = self.packets.alloc(pkt);
        self.enqueue(l, h);
    }

    fn record_rate_sample(&mut self, f: FlowId, bytes: u64) {
        let Some(window) = self.cfg.rate_trace_window else {
            return;
        };
        self.rate_window_bytes[f.0] += bytes;
        let start = self.rate_window_start[f.0];
        let elapsed = self.now.saturating_since(start);
        if elapsed >= window {
            let bps = self.rate_window_bytes[f.0] as f64 * 8.0 / elapsed.as_secs_f64();
            self.rate_traces[f.0].push((self.now.as_secs_f64(), bps));
            self.rate_window_bytes[f.0] = 0;
            self.rate_window_start[f.0] = self.now;
        }
    }

    /// Current simulated time (for tests).
    pub fn now(&self) -> SimTime {
        self.now
    }
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

impl Engine {
    /// Queue trace for a specific link (test helper).
    pub fn queue_trace(&self, link: LinkId) -> Option<&TimeSeries> {
        self.queue_traces.get(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedRate;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn flow(src: NodeId, dst: NodeId, size: u64, rate: f64) -> FlowSpec {
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

    /// `single_switch` link layout: host `h` gets links `2h` (host→switch)
    /// and `2h+1` (switch→host); the receiver is host `n_senders`, so its
    /// downlink — the bottleneck — is `2 * n_senders + 1`.
    fn bottleneck_link(n_senders: usize) -> usize {
        2 * n_senders + 1
    }

    #[test]
    fn fault_loss_window_drops_data() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults =
            Some(faults::FaultSchedule::new(7).packet_loss(0.0, bottleneck_link(1), 0.5, 0.005));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 500_000, 5e9));
        let report = eng.run(SimTime::from_millis(10));
        assert!(report.fault_drops > 0, "50% loss must drop packets");
        assert!(
            report.delivered_bytes[0] < 500_000,
            "fixed-rate senders do not retransmit, so losses show up"
        );
        assert!(report.faults_injected >= 2, "window start + end");
    }

    #[test]
    fn fault_link_flap_delays_but_delivers() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        // Down the sender uplink for 1 ms mid-transfer: packets queue at the
        // host port and drain on recovery — nothing is lost.
        cfg.faults = Some(faults::FaultSchedule::new(7).link_flap(0.001, 0, 0.001));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 5e9));
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.delivered_bytes[0], 2_000_000);
        assert_eq!(report.fcts.len(), 1);
        assert!(report.faults_injected >= 2, "down + up events");
        assert!(
            report.fcts[0].fct_s > 2_000_000.0 * 8.0 / 5e9,
            "the outage must slow the flow"
        );
    }

    #[test]
    fn fault_cnp_loss_spares_data() {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        // Drop every CNP on the receiver's uplink; data is untouched.
        cfg.faults = Some(faults::FaultSchedule::new(3).cnp_loss(0.0, 2 * 2, 1.0, 1.0));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000_000, 8e9));
        eng.add_flow(flow(senders[1], receiver, 1_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.delivered_bytes[0], 1_000_000);
        assert_eq!(report.delivered_bytes[1], 1_000_000);
        assert!(report.cnps_sent > 0, "overload still generates CNPs");
        assert!(report.fault_drops > 0, "all CNPs on the uplink are dropped");
    }

    #[test]
    fn fault_pause_storm_stalls_then_recovers() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(faults::FaultSchedule::new(11).pause_storm(
            0.001,
            bottleneck_link(1),
            200e-6,
            0.5,
            0.004,
        ));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(30));
        assert!(report.fault_pauses > 0, "storm must pause the port");
        assert!(report.fault_paused_s > 0.0);
        assert_eq!(report.delivered_bytes[0], 2_000_000, "pauses are lossless");
    }

    #[test]
    fn fault_kmax_perturbation_increases_marking() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 2_000_000, 8e9));
            eng.run(SimTime::from_millis(20)).marked_packets
        };
        let base = run(None);
        let perturbed = run(Some(faults::FaultSchedule::new(5).perturb(
            0.0,
            faults::ParamTarget::RedKmax,
            0.2,
        )));
        assert!(
            perturbed > base,
            "shrinking K_max must mark more: {perturbed} vs {base}"
        );
    }

    #[test]
    fn fault_jitter_slows_completion() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 200_000, 5e9));
            eng.run(SimTime::from_millis(20)).fcts[0].fct_s
        };
        let base = run(None);
        let spiked = run(Some(faults::FaultSchedule::new(1).delay_spike(
            0.0,
            bottleneck_link(1),
            100e-6,
            1.0,
        )));
        assert!(
            spiked > base + 90e-6,
            "a 100 µs delay spike must show in the FCT: {spiked} vs {base}"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = Some(
                faults::FaultSchedule::new(21)
                    .packet_loss(0.001, bottleneck_link(2), 0.2, 0.01)
                    .rtt_jitter(0.002, 1, 20e-6, 0.01)
                    .pause_storm(0.004, bottleneck_link(2), 100e-6, 0.4, 0.003),
            );
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 1_000_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 1_000_000, 8e9));
            let r = eng.run(SimTime::from_millis(30));
            (
                r.fault_drops,
                r.fault_pauses,
                r.faults_injected,
                r.marked_packets,
                r.delivered_bytes.clone(),
                r.fcts.iter().map(|f| f.fct_s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_none() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 800_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 800_000, 8e9));
            let r = eng.run(SimTime::from_millis(20));
            (
                r.marked_packets,
                r.cnps_sent,
                r.delivered_bytes.clone(),
                r.fcts.iter().map(|f| f.fct_s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            run(None),
            run(Some(faults::FaultSchedule::new(99))),
            "an installed-but-empty fault plane must not perturb the run"
        );
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
    fn try_run_rejects_empty_flow_set() {
        let (topo, _senders, _receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        let err = eng.try_run(SimTime::from_millis(1)).unwrap_err();
        assert!(err.to_string().contains("empty flow set"), "{err}");
    }

    #[test]
    fn engine_config_validate_rejects_bad_fields() {
        let check = |mutate: &dyn Fn(&mut EngineConfig), needle: &str| {
            let mut cfg = EngineConfig::default();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected {needle:?} in {err}"
            );
        };
        check(&|c| c.mtu_bytes = 0, "mtu_bytes");
        check(&|c| c.control_packet_bytes = 0, "control_packet_bytes");
        check(
            &|c| {
                c.red.kmin_bytes = 100;
                c.red.kmax_bytes = 50;
            },
            "kmin_bytes",
        );
        check(&|c| c.red.p_max = f64::NAN, "p_max");
        check(&|c| c.red.p_max = 1.5, "p_max");
        check(
            &|c| c.queue_trace_resolution_s = f64::INFINITY,
            "resolution",
        );
        check(
            &|c| {
                c.pfc = Some(PfcConfig {
                    pause_threshold_bytes: 10,
                    resume_threshold_bytes: 20,
                })
            },
            "resume",
        );
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn run_rejects_schedule_with_out_of_range_link() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(faults::FaultSchedule::new(1).link_flap(0.0, 999, 0.001));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000, 1e9));
        let err = eng.try_run(SimTime::from_millis(1)).unwrap_err();
        assert!(err.to_string().contains("link"), "{err}");
    }
}
