//! Events that are dispatched without a wheel entry of their own, pinned.
//!
//! The engine keeps a `TxDone` off the timing wheel while nothing is queued
//! behind the transmission, and fires a flow's CC timers from per-flow
//! clocks when the flow is next touched; both must leave every decision
//! where the always-schedule engine made it. Each run below is folded —
//! FCTs, every counter (`events_processed` among them), PFC and fault
//! statistics, and the full queue and rate traces — into one digest, and the
//! digests were recorded by running this file (with `common/mod.rs`) on
//! 9be9caf, the commit before the held `TxDone`s: it uses the public API
//! only, so it builds there unchanged. (`clock_ties.rs` holds the
//! same-instant corners of the clocks.)
//!
//! The scenarios aim at the corners: PFC pause and resume, link flaps and
//! pause-storm releases landing on a port whose `TxDone` is held; arrivals
//! at exactly the instant a held `TxDone` falls due, with tickets on either
//! side of it; and congestion controls that re-arm one timer kind of a pair
//! armed for one instant, from outside and from the other kind's firing.

mod common;

use common::{digest, fixed, fnv1a, full_trace_config, ns, us};
use desim::{SimDuration, SimTime};
use faults::FaultSchedule;
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};
use netsim::topology::{Link, NodeKind};
use netsim::{Engine, FlowSpec, LinkId, NodeId, Pacing, PfcConfig, RedConfig, SimReport, Topology};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn pfc_pause_and_resume_land_on_idle_ports() {
    // Senders paced below line rate: every packet leaves its host port
    // empty, so the uplinks' `TxDone`s are held throughout while the
    // switch's PFC pauses and resumes those very links (and the receiver's
    // uplink, which only carries ACKs and CNPs) at arbitrary phases.
    let (topo, senders, receiver) = Topology::single_switch(3, 10e9, us(1));
    let mut cfg = full_trace_config();
    cfg.pfc = Some(PfcConfig {
        pause_threshold_bytes: 30_000,
        resume_threshold_bytes: 20_000,
    });
    let mut eng = Engine::new(topo, cfg);
    eng.add_flow(fixed(senders[0], receiver, 400_000, 9e9, ns(0)));
    eng.add_flow(fixed(senders[1], receiver, 300_000, 7.3e9, ns(1_234)));
    eng.add_flow(fixed(senders[2], receiver, 150_001, 2.1e9, ns(40_000)));
    let report = eng.run(SimTime::from_millis(5));
    assert!(
        report.pfc_pauses > 10,
        "PFC must cycle: {}",
        report.pfc_pauses
    );
    assert_eq!(report.fcts.len(), 3);
    assert_eq!(
        (
            digest(&report).as_str(),
            report.pfc_pauses,
            report.events_processed
        ),
        ("f78f8f175c8a702a", 174, 4478)
    );
}

#[test]
fn link_flaps_and_storm_releases_land_on_idle_ports() {
    // Two flows share host 0's uplink (link 0) at incommensurate rates, so
    // packets join it both while it is idle and while it is serializing;
    // host 1 sends alone at half rate (its port is idle between packets).
    // The pacers do not care about the link state, so link 0's arrivals are
    // known: a packet arrives at 100 620 ns and is serialized until
    // 101 459 with a held `TxDone`, the next arrives at 100 722; likewise
    // 125 262 / 126 101 / 125 775; and the port is idle (its last `TxDone`
    // held, due at 163 750, never looked at since) until 164 117. The first
    // three flaps take the link down (1) before the arrival that finds the
    // `TxDone` held and not yet due, and up after it fired; (2) down and up
    // again inside one serialization, nothing arriving between; (3) down
    // over the idle port, an arrival finding the `TxDone` held and overdue.
    // The fourth spans several packets; a flap and pause storms hit host 1's
    // uplink (link 2) and the bottleneck (link 5) at other phases.
    let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
    let mut cfg = full_trace_config();
    cfg.faults = Some(
        FaultSchedule::new(5)
            .link_flap(100.650e-6, 0, 2.0e-6)
            .link_flap(125.300e-6, 0, 0.2e-6)
            .link_flap(163.900e-6, 0, 3.0e-6)
            .link_flap(201.9e-6, 0, 7.3e-6)
            .link_flap(260.4e-6, 2, 3.1e-6)
            .link_flap(300.0e-6, 5, 4.0e-6)
            .pause_storm(350.0e-6, 0, 9.7e-6, 0.37, 120e-6)
            .pause_storm(380.0e-6, 2, 5.3e-6, 0.5, 60e-6)
            .pause_storm(500.0e-6, 5, 11.1e-6, 0.4, 80e-6),
    );
    let mut eng = Engine::new(topo, cfg);
    eng.add_flow(fixed(senders[0], receiver, 300_000, 3e9, ns(0)));
    eng.add_flow(fixed(senders[0], receiver, 300_000, 4.1e9, ns(517)));
    eng.add_flow(fixed(senders[1], receiver, 400_000, 5e9, ns(90)));
    let report = eng.run(SimTime::from_millis(5));
    assert_eq!(report.fcts.len(), 3, "flaps and storms are lossless");
    assert!(report.fault_pauses > 10 && report.faults_injected > 20);
    assert_eq!(
        (digest(&report).as_str(), report.events_processed),
        ("2dd451b9aaff2bf5", 5369)
    );
}

/// Hosts 0..5 (senders A, B, D, C, E), host 5 the receiver, node 6 the
/// switch. Uplinks run at 10 Gbps; B's and D's are 8 µs long, the others
/// 1 µs; the switch-to-receiver port `P` runs at 1 Gbps, so a 1000-byte
/// packet holds it for exactly 8 µs. Every flow is one such packet
/// (952 bytes of payload + 48 of header: 800 ns on an uplink).
///
/// A's packet reaches the switch at 1.8 µs and `P` serializes it until
/// 9.8 µs — a held `TxDone` whose ticket was taken at 1.8 µs. A packet of B
/// or D sent at 1.0 µs arrives at exactly 9.8 µs with a `Deliver` ticket
/// taken at 1.0 µs (older than the `TxDone`'s: it is dispatched first); one
/// of C or E sent at 8.0 µs arrives at 9.8 µs too, with a younger ticket.
///
/// RED is a step at 1000 bytes: a packet is marked iff it departs `P` with
/// another packet queued behind it, which makes the dispatch order at
/// 9.8 µs visible in `marked_packets`.
fn same_instant_arrivals(starts_ns: [Option<u64>; 5]) -> SimReport {
    let mut nodes = vec![NodeKind::Host; 6];
    nodes.push(NodeKind::Switch);
    let switch = NodeId(6);
    let receiver = NodeId(5);
    let mut links = Vec::new();
    for h in 0..6 {
        let long = h == 1 || h == 2;
        let prop = SimDuration::from_nanos(if long { 8_000 } else { 1_000 });
        links.push(Link {
            src: NodeId(h),
            dst: switch,
            bandwidth_bps: 10e9,
            prop_delay: prop,
        });
        links.push(Link {
            src: switch,
            dst: NodeId(h),
            bandwidth_bps: if h == 5 { 1e9 } else { 10e9 },
            prop_delay: prop,
        });
    }
    let mut cfg = full_trace_config();
    cfg.red = RedConfig {
        kmin_bytes: 1_000,
        kmax_bytes: 1_000,
        p_max: 1.0,
    };
    let mut eng = Engine::new(Topology::new(nodes, links), cfg);
    for (h, start) in starts_ns.iter().enumerate() {
        if let Some(start) = *start {
            eng.add_flow(fixed(NodeId(h), receiver, 952, 10e9, ns(start)));
        }
    }
    let report = eng.run(SimTime::from_millis(1));
    assert_eq!(report.fcts.len(), starts_ns.iter().flatten().count());
    let port = report.queue_traces.get(LinkId(11)).expect("P is traced");
    assert!(
        port.points()
            .iter()
            .any(|&(t, _)| t == ns(9_800).as_secs_f64()),
        "something must reach P at the instant its TxDone falls due"
    );
    report
}

#[test]
fn arrival_at_the_idle_instant_with_an_older_ticket() {
    // B and D are both dispatched before the TxDone: B departs with D
    // behind it (marked), D alone.
    let report = same_instant_arrivals([Some(0), Some(1_000), Some(1_000), None, None]);
    assert_eq!(report.marked_packets, 1);
    assert_eq!(
        (digest(&report).as_str(), report.events_processed),
        ("6049903a62586e4f", 34)
    );
}

#[test]
fn arrival_at_the_idle_instant_with_a_younger_ticket() {
    // The TxDone is dispatched first: C finds the port idle and departs
    // alone, E waits out C's serialization and departs alone.
    let report = same_instant_arrivals([Some(0), None, None, Some(8_000), Some(8_000)]);
    assert_eq!(report.marked_packets, 0);
    assert_eq!(
        (digest(&report).as_str(), report.events_processed),
        ("e3a5ba2a994454be", 30)
    );
}

#[test]
fn arrivals_at_the_idle_instant_on_both_sides_of_the_ticket() {
    // B, D, TxDone, C, E: B departs with D behind it, D with C and E, C
    // with E, E alone.
    let report =
        same_instant_arrivals([Some(0), Some(1_000), Some(1_000), Some(8_000), Some(8_000)]);
    assert_eq!(report.marked_packets, 3);
    assert_eq!(
        (digest(&report).as_str(), report.events_processed),
        ("58e1190b516ea60a", 62)
    );
}

/// What a [`PairedTimers`] does besides re-arming the kind that fired.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Quirk {
    /// Nothing: the pair stays a pair.
    None,
    /// Every fourth packet sent re-arms `kind` alone, `delay` from now,
    /// splitting the pair if it is armed for one instant; `kind` does not re-arm
    /// itself when it fires, the other kind's firing re-arms the pair.
    RearmOnSend { kind: u8, delay: SimDuration },
    /// Kind 0's firing also re-arms kind 1, `delay` from now (zero: for
    /// this very instant), dropping kind 1's pending firing.
    Kind0RearmsKind1 { delay: SimDuration },
    /// Kind 0's firing re-arms the pair, one period from now: kind 1's
    /// pending firing is dropped every time and it never fires.
    Kind0RearmsPair,
    /// Kind 0's first firing re-arms kind 0 for the same instant again.
    Kind0RefiresNow,
}

/// A congestion control with DCQCN's timer shape — two kinds armed together
/// for one instant, each re-arming itself one period after it fires — plus
/// one [`Quirk`]. Every firing is logged and nudges the rate, so a firing
/// that moved, went missing or fired twice changes the packets on the wire.
#[derive(Debug)]
struct PairedTimers {
    period: SimDuration,
    quirk: Quirk,
    rate_bps: f64,
    sends: u64,
    refired: bool,
    log: Rc<RefCell<Vec<(u64, u8)>>>,
}

impl CongestionControl for PairedTimers {
    fn on_start(&mut self, now: SimTime, line_rate_bps: f64) -> CcUpdate {
        self.rate_bps = line_rate_bps * 0.3;
        CcUpdate::rate(self.rate_bps)
            .with_timer(0, now + self.period)
            .with_timer(1, now + self.period)
    }

    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
        match event {
            CcEvent::Timer { kind } => {
                self.log.borrow_mut().push((now.as_nanos(), kind));
                // Kind 0 slows the flow a little, kind 1 speeds it up more.
                self.rate_bps *= if kind == 0 { 0.97 } else { 1.05 };
                self.rate_bps = self.rate_bps.clamp(1e9, 9e9);
                let update = CcUpdate::rate(self.rate_bps);
                match (kind, self.quirk) {
                    (0, Quirk::Kind0RearmsKind1 { delay }) => update
                        .with_timer(0, now + self.period)
                        .with_timer(1, now + delay),
                    (0, Quirk::Kind0RearmsPair) => update
                        .with_timer(0, now + self.period)
                        .with_timer(1, now + self.period),
                    (0, Quirk::Kind0RefiresNow) if !self.refired => {
                        self.refired = true;
                        update.with_timer(0, now)
                    }
                    (_, Quirk::RearmOnSend { kind: moved, .. }) if kind == moved => update,
                    (_, Quirk::RearmOnSend { .. }) => update
                        .with_timer(0, now + self.period)
                        .with_timer(1, now + self.period),
                    _ => update.with_timer(kind, now + self.period),
                }
            }
            CcEvent::SentBytes { .. } => {
                self.sends += 1;
                match self.quirk {
                    Quirk::RearmOnSend { kind, delay } if self.sends.is_multiple_of(4) => {
                        CcUpdate::none().with_timer(kind, now + delay)
                    }
                    _ => CcUpdate::none(),
                }
            }
            CcEvent::Cnp | CcEvent::RttSample { .. } => CcUpdate::none(),
        }
    }

    fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }
}

/// Two [`PairedTimers`] flows (periods 13 µs and 7 µs, never firing at one
/// instant) and a fixed-rate one into one bottleneck; returns the report and
/// the firing log in time order. The log is shared, but the engine promises
/// each flow its own order only — not when one flow's firings run relative
/// to another's — so the log is stably sorted by time, which keeps every
/// flow's order.
fn paired_timer_run(quirk: Quirk) -> (SimReport, Vec<(u64, u8)>) {
    let (topo, senders, receiver) = Topology::single_switch(3, 10e9, us(1));
    let mut eng = Engine::new(topo, full_trace_config());
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, period_us) in [13u64, 7].into_iter().enumerate() {
        eng.add_flow(FlowSpec {
            src: senders[i],
            dst: receiver,
            size_bytes: Some(250_000 + 1_001 * i as u64),
            start: ns(100 * i as u64),
            pacing: Pacing::PerPacket,
            cc: Box::new(PairedTimers {
                period: us(period_us),
                quirk,
                rate_bps: 0.0,
                sends: 0,
                refired: false,
                log: log.clone(),
            }),
            ack_chunk_bytes: 16_000,
        });
    }
    eng.add_flow(fixed(senders[2], receiver, 200_000, 4e9, ns(50)));
    let report = eng.run(SimTime::from_millis(5));
    assert_eq!(report.fcts.len(), 3);
    let mut log = log.borrow().clone();
    log.sort_by_key(|&(t, _)| t);
    (report, log)
}

fn log_digest(log: &[(u64, u8)]) -> String {
    fnv1a(log.iter().flat_map(|&(t, kind)| [t, kind as u64]))
}

/// Firings of both kinds at one instant, kind 0 first: how often the pair
/// fired back to back.
fn paired_firings(log: &[(u64, u8)]) -> usize {
    log.windows(2)
        .filter(|w| w[0].0 == w[1].0 && (w[0].1, w[1].1) == (0, 1))
        .count()
}

/// What the pair does when left alone: report digest, log digest, events.
const UNDISTURBED: (&str, &str, u64) = ("8f90469bb0a39cd3", "29ba530369c6f8ec", 3947);

fn check_paired(quirk: Quirk, pinned: (&str, &str, u64)) -> Vec<(u64, u8)> {
    let (report, log) = paired_timer_run(quirk);
    assert_eq!(
        (
            digest(&report).as_str(),
            log_digest(&log).as_str(),
            report.events_processed
        ),
        pinned,
        "{} firings",
        log.len()
    );
    log
}

#[test]
fn undisturbed_pair_fires_back_to_back() {
    let log = check_paired(Quirk::None, UNDISTURBED);
    assert!(paired_firings(&log) > 20);
    assert_eq!(paired_firings(&log) * 2, log.len(), "always as a pair");
}

#[test]
fn rearming_the_first_kind_alone_leaves_the_second_in_place() {
    let log = check_paired(
        Quirk::RearmOnSend {
            kind: 0,
            delay: us(5),
        },
        ("3a8b2eac891ba8d6", "4994037978f8bfd8", 3897),
    );
    assert!(paired_firings(&log) * 4 < log.len(), "the pair must split");
}

#[test]
fn rearming_the_second_kind_alone_leaves_the_first_in_place() {
    let log = check_paired(
        Quirk::RearmOnSend {
            kind: 1,
            delay: us(5),
        },
        ("5a2ed15dfdda4fd8", "f702f97e7e1e1a46", 4050),
    );
    assert!(paired_firings(&log) * 4 < log.len(), "the pair must split");
}

#[test]
fn first_kinds_firing_rearms_the_second() {
    // Kind 1 is re-armed half a period out each time kind 0 fires, so the
    // firing it had pending for that same instant never happens...
    let log = check_paired(
        Quirk::Kind0RearmsKind1 { delay: us(3) },
        ("38edf571c3eeb1de", "ac30e8099c99798b", 3947),
    );
    assert!(log.iter().any(|&(_, kind)| kind == 1));
    // ...and with a zero delay it is re-armed for that very instant: it
    // still fires once there, not twice — the undisturbed run exactly.
    let log = check_paired(
        Quirk::Kind0RearmsKind1 {
            delay: SimDuration::ZERO,
        },
        UNDISTURBED,
    );
    assert_eq!(paired_firings(&log) * 2, log.len());
    // Re-armed as a pair, it is dropped at every period and never fires.
    let log = check_paired(
        Quirk::Kind0RearmsPair,
        ("63b0f8fa9268ec65", "c5f625e186ec7630", 4095),
    );
    assert!(log.len() > 20 && log.iter().all(|&(_, kind)| kind == 0));
}

#[test]
fn first_kind_refiring_at_the_same_instant_keeps_the_order() {
    // 0, 1, 0 at the first period: kind 0, re-armed at the instant it
    // fires, was armed after kind 1 and must fire after it.
    let log = check_paired(
        Quirk::Kind0RefiresNow,
        ("ddaafecd0b5d6335", "f3f3139ffea51503", 3949),
    );
    let first = log[0].0;
    let at_first: Vec<u8> = log
        .iter()
        .filter(|&&(t, _)| t == first)
        .map(|&(_, kind)| kind)
        .collect();
    assert_eq!(at_first[..3], [0, 1, 0]);
}
