//! A CC timer firing and an event of its own flow at one nanosecond, pinned.
//!
//! The engine fires a flow's CC timers when the flow is next touched, so a
//! firing and a same-instant event that the wheel ordered by ticket are
//! now ordered by the engine, from the tickets and, where a firing re-armed
//! the timer late, from that firing's time. Each case below lands an event
//! of one flow — its pacer, a CNP, its completing last byte, a fault
//! `Perturb`, the end of a run — on one of that flow's firings, on the side
//! the always-schedule engine put it. The CC logs every
//! call, so the order shows in the log; each case asserts it, pins the
//! report digest, the log digest and `events_processed`, and requires that
//! no tie was settled by the engine's convention
//! (`netsim.clock_tie_convention`). The pins were recorded by running this
//! file (with `common/mod.rs`) unchanged on b7e7443, whose CC timers were
//! wheel events; it uses the public API only.

mod common;

use common::{digest, fnv1a, full_trace_config, ns, us};
use desim::{SimDuration, SimTime};
use faults::{FaultSchedule, ParamTarget};
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};
use netsim::{Engine, EngineConfig, FlowSpec, NodeId, Pacing, RedConfig, SimReport, Topology};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the CC saw: `(time_ns, what)`, where `what` is the timer kind (0 or
/// 1), [`SENT`], [`CNP`], [`RTT`] or [`PERTURB`].
type Log = Rc<RefCell<Vec<(u64, u8)>>>;

const SENT: u8 = 2;
const CNP: u8 = 3;
const RTT: u8 = 4;
/// A perturbation is not handed the time; it is logged at `u64::MAX`.
const PERTURB: u8 = 5;

/// DCQCN's timer shape with period `period`: both kinds armed together at
/// the start, each re-arming itself one period after it fires, and a CNP
/// (the "cut") re-arming both one period out, which drops a firing still
/// pending. Kind 1 adds `step_bps` to the rate; a perturbation scales the
/// step. With `refire`, kind 0's first firing re-arms it for that instant.
#[derive(Debug)]
struct Clocked {
    period: SimDuration,
    rate_bps: f64,
    step_bps: f64,
    refire: bool,
    log: Log,
}

impl CongestionControl for Clocked {
    fn on_start(&mut self, now: SimTime, _line_rate_bps: f64) -> CcUpdate {
        CcUpdate::rate(self.rate_bps)
            .with_timer(0, now + self.period)
            .with_timer(1, now + self.period)
    }

    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
        let what = match event {
            CcEvent::Timer { kind } => kind,
            CcEvent::SentBytes { .. } => SENT,
            CcEvent::Cnp => CNP,
            CcEvent::RttSample { .. } => RTT,
        };
        self.log.borrow_mut().push((now.as_nanos(), what));
        let next = now + self.period;
        match what {
            0 if self.refire => {
                self.refire = false;
                CcUpdate::none().with_timer(0, now)
            }
            1 if self.step_bps > 0.0 => {
                self.rate_bps += self.step_bps;
                CcUpdate::rate(self.rate_bps).with_timer(1, next)
            }
            0 | 1 => CcUpdate::none().with_timer(what, next),
            CNP => CcUpdate::none().with_timer(0, next).with_timer(1, next),
            _ => CcUpdate::none(),
        }
    }

    fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn perturb(&mut self, _target: ParamTarget, scale: f64) {
        self.log.borrow_mut().push((u64::MAX, PERTURB));
        self.step_bps *= scale;
    }
}

/// A per-packet-paced flow of `bytes` from `src` under a [`Clocked`] CC
/// that logs into `log`. Only its last packet asks for an ACK.
fn flow(src: NodeId, dst: NodeId, bytes: u64, start: SimTime, cc: Clocked) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        size_bytes: Some(bytes),
        start,
        pacing: Pacing::PerPacket,
        cc: Box::new(cc),
        ack_chunk_bytes: u32::MAX,
    }
}

fn clocked(period: SimDuration, rate_bps: f64, log: &Log) -> Clocked {
    Clocked {
        period,
        rate_bps,
        step_bps: 0.0,
        refire: false,
        log: log.clone(),
    }
}

/// `run(engine, end)` with the counters on; no tie may be settled by
/// convention. The recorder is process-global, so the cases take turns.
fn run(mut eng: Engine, end: SimTime) -> SimReport {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g: MutexGuard<'_, ()> = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::metrics::reset();
    obs::metrics::enable();
    let report = eng.run(end);
    obs::metrics::disable();
    assert_eq!(
        obs::metrics::counter_value("netsim.clock_tie_convention"),
        0,
        "a same-instant tie was settled by convention"
    );
    report
}

/// What the log holds at instant `t_ns`, in order.
fn at(log: &Log, t_ns: u64) -> Vec<u8> {
    log.borrow()
        .iter()
        .filter(|&&(t, _)| t == t_ns)
        .map(|&(_, what)| what)
        .collect()
}

fn pinned(report: &SimReport, log: &Log) -> (String, String, u64) {
    let words = log
        .borrow()
        .iter()
        .flat_map(|&(t, w)| [t, w as u64])
        .collect::<Vec<_>>();
    (digest(report), fnv1a(words), report.events_processed)
}

fn check(got: (String, String, u64), want: (&str, &str, u64)) {
    assert_eq!((got.0.as_str(), got.1.as_str(), got.2), want);
}

/// A 1048-byte packet (1000 payload + 48 header) every `gap_ns`; timers
/// every 10 µs; one flow through one 10 Gbps switch, run to `end`. Returns
/// the report and the log.
fn paced_until(gap_ns: u64, refire: bool, end: SimTime) -> (SimReport, Log) {
    let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
    let mut eng = Engine::new(topo, full_trace_config());
    let log = Log::default();
    let rate_bps = 1_048.0 * 8.0 * 1e9 / gap_ns as f64;
    let mut cc = clocked(us(10), rate_bps, &log);
    cc.refire = refire;
    eng.add_flow(flow(senders[0], receiver, 30_000, ns(0), cc));
    (run(eng, end), log)
}

/// [`paced_until`] the flow completes.
fn paced(gap_ns: u64, refire: bool) -> (SimReport, Log) {
    let (report, log) = paced_until(gap_ns, refire, SimTime::from_millis(2));
    assert_eq!(report.fcts.len(), 1);
    (report, log)
}

#[test]
fn pacer_on_a_firing_armed_before_the_pacer_was_scheduled() {
    // A pacer every 5 µs: the one at 20 µs was scheduled at 15 µs, the
    // timers for 20 µs were armed at 10 µs — they fire first.
    let (report, log) = paced(5_000, false);
    assert_eq!(at(&log, 20_000), [0, 1, SENT]);
    check(
        pinned(&report, &log),
        ("1b513695749f207b", "19fc25887e8e375a", 185),
    );
}

#[test]
fn pacer_on_a_firing_armed_after_the_pacer_was_scheduled() {
    // A pacer every 20 µs: the one at 20 µs was scheduled at 0, the timers
    // for 20 µs were armed at 10 µs — the pacer goes first.
    let (report, log) = paced(20_000, false);
    assert_eq!(at(&log, 20_000), [SENT, 0, 1]);
    check(
        pinned(&report, &log),
        ("6656471695b86b7b", "f4ab5bfc1b31b1d7", 273),
    );
}

#[test]
fn pacer_on_a_firing_armed_when_the_pacer_was_scheduled() {
    // A pacer every 10 µs: the pacer at 20 µs and the timers for 20 µs were
    // both set up at 10 µs, the timers by their own firing, which ran just
    // before the pacer at 10 µs did — they fire first.
    let (report, log) = paced(10_000, false);
    assert_eq!(at(&log, 10_000), [0, 1, SENT]);
    assert_eq!(at(&log, 20_000), [0, 1, SENT]);
    check(
        pinned(&report, &log),
        ("29818c2c50ddac7f", "b2b13f828fe35049", 215),
    );
}

#[test]
fn a_horizon_on_a_firing_includes_it() {
    // As above, run to 30 µs: the firings at 20 µs went after the pacer
    // there and nothing of the flow came since, so the end of the run is
    // what runs them — and the ones at 30 µs they re-arm, the horizon
    // being inclusive.
    let (report, log) = paced_until(20_000, false, ns(30_000));
    assert_eq!(at(&log, 20_000), [SENT, 0, 1]);
    assert_eq!(at(&log, 30_000), [0, 1]);
    check(
        pinned(&report, &log),
        ("fa6c17cd545bcd24", "030e0bb0e5d67d16", 17),
    );
}

#[test]
fn kind_rearmed_for_the_instant_it_fires_goes_after_the_pacer() {
    // Kind 0 re-arms itself for 10 µs when it fires there: kind 1 (armed
    // earlier) goes next, then the pacer scheduled at 5 µs, then kind 0.
    let (report, log) = paced(5_000, true);
    assert_eq!(at(&log, 10_000), [0, 1, SENT, 0]);
    check(
        pinned(&report, &log),
        ("f28a506257709ae8", "4058c9a9d364a1df", 186),
    );
}

/// One flow at 1 Gbps whose first packet is marked (RED is a step at
/// 1000 bytes): its CNP reaches the sender at 5 782 ns (two 839 ns data
/// hops, two 52 ns control hops, four 1 µs links), scheduled for that by the
/// switch at 4 730 ns. Timers every `period_ns`. The next packet leaves at
/// 8 384 ns, so nothing of the flow runs the firings before the CNP does:
/// their re-arms take tickets after the CNP's, and their times decide.
fn cnp_run(period_ns: u64) -> (SimReport, Log) {
    let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
    let mut cfg = full_trace_config();
    cfg.red = RedConfig {
        kmin_bytes: 1_000,
        kmax_bytes: 1_000,
        p_max: 1.0,
    };
    let mut eng = Engine::new(topo, cfg);
    let log = Log::default();
    let cc = clocked(SimDuration::from_nanos(period_ns), 1e9, &log);
    eng.add_flow(flow(senders[0], receiver, 20_000, ns(0), cc));
    let report = run(eng, SimTime::from_millis(1));
    assert_eq!((report.fcts.len(), report.cnps_sent), (1, 4));
    (report, log)
}

#[test]
fn cnp_on_a_firing_before_the_cut() {
    // Period 2 891 ns: the firings at 5 782 ns were armed at 2 891 ns,
    // before the switch scheduled the CNP, so they fire and then the cut
    // re-arms both.
    let (report, log) = cnp_run(2_891);
    assert_eq!(at(&log, 5_782), [0, 1, CNP]);
    assert_eq!(at(&log, 5_782 + 2_891), [0, 1]);
    check(
        pinned(&report, &log),
        ("5e09e02bfaee73a4", "249294cc3e3d48a4", 233),
    );
}

#[test]
fn cnp_on_a_firing_the_cut_cancels() {
    // Period 826 ns: the firings at 5 782 ns were armed at 4 956 ns, after
    // the switch scheduled the CNP at 4 730 ns, so the CNP goes first and
    // its cut drops them.
    let (report, log) = cnp_run(826);
    assert_eq!(at(&log, 5_782), [CNP]);
    assert_eq!(at(&log, 5_782 + 826), [0, 1]);
    check(
        pinned(&report, &log),
        ("8c969b152962f1cb", "f97c09161dbf0024", 509),
    );
}

/// A one-packet flow (952 + 48 bytes: 800 ns per 10 Gbps hop) that
/// completes at 3 600 ns, its last hop scheduled at 1 800 ns; timers every
/// `period_ns`, both due at 3 600 ns.
fn completion_run(period_ns: u64) -> (SimReport, Log) {
    let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
    let mut eng = Engine::new(topo, full_trace_config());
    let log = Log::default();
    let cc = clocked(SimDuration::from_nanos(period_ns), 10e9, &log);
    eng.add_flow(flow(senders[0], receiver, 952, ns(0), cc));
    let report = run(eng, SimTime::from_millis(1));
    assert_eq!(report.fcts.len(), 1);
    assert_eq!(report.fcts[0].fct_s, ns(3_600).as_secs_f64());
    (report, log)
}

#[test]
fn completion_on_a_firing_armed_before_the_last_hop() {
    // Period 3 600 ns: armed at the start, the firings at 3 600 ns go before
    // the completion and re-arm; their next firings are the counted no-ops.
    // In the other order the no-ops would come at 3 600 ns, two events
    // fewer.
    let (report, log) = completion_run(3_600);
    assert_eq!(at(&log, 3_600), [0, 1]);
    check(
        pinned(&report, &log),
        ("7ea4fcccfd473bb4", "92597d209846ce86", 14),
    );
}

#[test]
fn completion_on_a_firing_armed_after_the_last_hop() {
    // Period 1 200 ns: the firings at 3 600 ns were armed at 2 400 ns, after
    // the switch scheduled the last hop at 1 800 ns: the flow completes
    // first and they are the no-ops that end both clocks.
    let (report, log) = completion_run(1_200);
    assert_eq!(at(&log, 2_400), [0, 1]);
    assert!(at(&log, 3_600).is_empty());
    check(
        pinned(&report, &log),
        ("55b9d2ae89fa04d2", "eba249095bf16bc7", 16),
    );
}

#[test]
fn perturb_on_a_firing() {
    // Two flows with a rate step on kind 1; a perturbation that halves the
    // step lands at 30 µs, on flow 0's third firings. Scheduled before the
    // run, it goes first: those firings already use the halved step. Flow 0
    // sends every 42 µs, so its firings at 10 and 20 µs are still due when
    // the perturbation comes, and they must run before it.
    let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
    let mut cfg: EngineConfig = full_trace_config();
    cfg.faults = Some(FaultSchedule::new(3).perturb(30e-6, ParamTarget::CcRateIncrease, 0.5));
    let mut eng = Engine::new(topo, cfg);
    let logs = [Log::default(), Log::default()];
    for (i, (log, rate_bps)) in logs.iter().zip([0.2e9, 2e9]).enumerate() {
        let mut cc = clocked(us(10), rate_bps, log);
        cc.step_bps = 100e6;
        eng.add_flow(flow(senders[i], receiver, 60_000, ns(3_333 * i as u64), cc));
    }
    let report = run(eng, SimTime::from_millis(2));
    assert_eq!(report.fcts.len(), 2);
    let log = &logs[0];
    let perturbed = log
        .borrow()
        .iter()
        .position(|&(_, what)| what == PERTURB)
        .expect("flow 0 was perturbed");
    assert_eq!(
        log.borrow()[perturbed - 2..perturbed + 3],
        [
            (20_000, 0),
            (20_000, 1),
            (u64::MAX, PERTURB),
            (30_000, 0),
            (30_000, 1)
        ]
    );
    check(
        pinned(&report, log),
        ("41bef4bda04d593b", "142810d41ebc5606", 733),
    );
    assert_eq!(pinned(&report, &logs[1]).1, "b4ce5cd3755da844");
}
