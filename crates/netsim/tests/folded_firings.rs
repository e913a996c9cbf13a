//! A flow's due CC timer firings, made in one call per catch-up, pinned.
//!
//! The engine hands a flow all of its timer firings due before the flow is
//! next touched in one call (`CongestionControl::fire_timers`), which makes
//! one `on_event(Timer)` call per firing, in `(at, order)` order. That must
//! leave every call where one engine event per firing put it. Here a logging
//! CC with two timer kinds at unequal periods (5 µs and 4 µs, so the kinds
//! interleave and, every 20 µs, fall due at one instant) paces slow flows that
//! fire several timers between packets; the increase timer raises the rate
//! until the bottleneck marks, and each CNP halves it and re-arms both kinds.
//! Each flow's call log, the report digest and `events_processed` are pinned;
//! the pins were recorded by running this file (with `common/mod.rs`)
//! unchanged on 08f268a, which made one call per firing from the engine. It
//! uses the public API only.

mod common;

use common::{digest, fnv1a, full_trace_config, ns, us};
use desim::{SimDuration, SimTime};
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};
use netsim::{Engine, FlowSpec, Pacing, SimReport, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// What the CC saw: `(time_ns, what)`, where `what` is the timer kind (0 or
/// 1), [`SENT`], [`CNP`] or [`RTT`].
type Log = Rc<RefCell<Vec<(u64, u8)>>>;

const SENT: u8 = 2;
const CNP: u8 = 3;
const RTT: u8 = 4;

/// Kind 0 only re-arms itself (DCQCN's α timer); kind 1 adds `step_bps` up
/// to `line_bps` and re-arms itself (the increase timer); a CNP halves the
/// rate and re-arms both, dropping their pending firings.
#[derive(Debug)]
struct TwoPeriods {
    periods: [SimDuration; 2],
    rate_bps: f64,
    step_bps: f64,
    line_bps: f64,
    log: Log,
}

impl CongestionControl for TwoPeriods {
    fn on_start(&mut self, now: SimTime, line_rate_bps: f64) -> CcUpdate {
        self.line_bps = line_rate_bps;
        CcUpdate::rate(self.rate_bps)
            .with_timer(0, now + self.periods[0])
            .with_timer(1, now + self.periods[1])
    }

    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
        let what = match event {
            CcEvent::Timer { kind } => kind,
            CcEvent::SentBytes { .. } => SENT,
            CcEvent::Cnp => CNP,
            CcEvent::RttSample { .. } => RTT,
        };
        self.log.borrow_mut().push((now.as_nanos(), what));
        match what {
            0 => CcUpdate::none().with_timer(0, now + self.periods[0]),
            1 => {
                self.rate_bps = (self.rate_bps + self.step_bps).min(self.line_bps);
                CcUpdate::rate(self.rate_bps).with_timer(1, now + self.periods[1])
            }
            CNP => {
                self.rate_bps /= 2.0;
                CcUpdate::rate(self.rate_bps)
                    .with_timer(0, now + self.periods[0])
                    .with_timer(1, now + self.periods[1])
            }
            _ => CcUpdate::none(),
        }
    }

    fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }
}

/// Eight flows of 150 kB into one 10 Gbps port, starting 0.3 Gbps apart
/// at 0.2–2.3 Gbps and 1 µs apart in time, run to `end`. Returns the report
/// and each flow's log.
fn incast(end: SimTime) -> (SimReport, Vec<Log>) {
    let (topo, senders, receiver) = Topology::single_switch(8, 10e9, us(1));
    let mut eng = Engine::new(topo, full_trace_config());
    let logs: Vec<Log> = (0..8).map(|_| Log::default()).collect();
    for (i, log) in logs.iter().enumerate() {
        eng.add_flow(FlowSpec {
            src: senders[i],
            dst: receiver,
            size_bytes: Some(150_000),
            start: ns(1_000 * i as u64),
            pacing: Pacing::PerPacket,
            cc: Box::new(TwoPeriods {
                periods: [us(5), us(4)],
                rate_bps: 0.2e9 + 0.3e9 * i as f64,
                step_bps: 40e6,
                line_bps: 0.0,
                log: log.clone(),
            }),
            ack_chunk_bytes: 16_000,
        });
    }
    (eng.run(end), logs)
}

/// The logs of all flows, flow by flow, as one digest.
fn log_digest(logs: &[Log]) -> String {
    fnv1a(
        logs.iter()
            .flat_map(|log| log.borrow().clone())
            .flat_map(|(t, what)| [t, what as u64]),
    )
}

fn timer_calls(logs: &[Log]) -> usize {
    logs.iter()
        .map(|log| log.borrow().iter().filter(|&&(_, w)| w < SENT).count())
        .sum()
}

#[test]
fn slow_flows_fire_many_timers_per_packet() {
    let (report, logs) = incast(SimTime::from_millis(3));
    assert_eq!(report.fcts.len(), 8);
    assert!(report.cnps_sent > 0, "the flows must be cut");
    // Flow 0 starts at 0.2 Gbps, one 1048-byte packet per 41.92 µs: 18
    // firings lie between its first two packets, the pair at 20 µs in
    // arming order (kind 0 was re-armed at 15 µs, kind 1 at 16 µs).
    let first: Vec<(u64, u8)> = logs[0].borrow()[..20].to_vec();
    let kinds: Vec<u8> = first[1..11].iter().map(|&(_, w)| w).collect();
    assert_eq!(first[0], (0, SENT));
    assert_eq!(kinds, [1, 0, 1, 0, 1, 0, 1, 0, 1, 1]);
    assert_eq!((first[8], first[9]), ((20_000, 0), (20_000, 1)));
    assert_eq!(first[19], (41_920, SENT));
    assert_eq!(
        (
            digest(&report).as_str(),
            log_digest(&logs).as_str(),
            report.events_processed,
            timer_calls(&logs)
        ),
        ("bc76e3c904221004", "f0207bc000ec0538", 9864, 3276)
    );
}

#[test]
fn a_horizon_between_packets_fires_what_is_due() {
    // The run ends while the flows are mid-transfer: the end of the run
    // fires every clock due by the horizon, inclusive.
    let (report, logs) = incast(ns(400_000));
    assert!(report.fcts.len() < 8);
    assert_eq!(
        (
            digest(&report).as_str(),
            log_digest(&logs).as_str(),
            report.events_processed,
            timer_calls(&logs)
        ),
        ("d111f69cff414914", "5c39b6a5ce324e49", 4672, 1392)
    );
}
