//! `run(t1)`, `run(t2)`, … on one engine dispatch what one `run` to the last
//! horizon dispatches, in the same order — including the events that have
//! no queue entry of their own and are accounted for when a horizon passes
//! over them (held `TxDone`s, CC clock firings), and the self-re-arming
//! PI-AQM tick.

mod common;

use common::{digest, fixed, full_trace_config, ns, us};
use desim::{SimDuration, SimTime};
use faults::FaultSchedule;
use netsim::cc::{CcEvent, CcUpdate, CongestionControl};
use netsim::config::PiAqmConfig;
use netsim::{Engine, FlowSpec, Pacing, PfcConfig, SimReport, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// PI marking, PFC and a fault schedule over three fixed-rate flows, two of
/// them sharing a host port.
fn engine() -> Engine {
    let (topo, senders, receiver) =
        Topology::single_switch(2, 10e9, desim::SimDuration::from_micros(1));
    let mut cfg = full_trace_config();
    cfg.pi_aqm = Some(PiAqmConfig::default_for(20_000));
    cfg.pfc = Some(PfcConfig {
        pause_threshold_bytes: 40_000,
        resume_threshold_bytes: 25_000,
    });
    cfg.faults = Some(
        FaultSchedule::new(9)
            .link_flap(120e-6, 0, 6e-6)
            .pause_storm(300e-6, 5, 9.1e-6, 0.4, 150e-6),
    );
    let mut eng = Engine::new(topo, cfg);
    eng.add_flow(fixed(senders[0], receiver, 300_000, 5e9, ns(0)));
    eng.add_flow(fixed(senders[0], receiver, 200_000, 3.7e9, ns(333)));
    eng.add_flow(fixed(senders[1], receiver, 400_000, 6e9, ns(90)));
    eng
}

/// Append a later run's report to the merged one: counters and delivered
/// bytes are cumulative, FCT records and traces are per run.
fn merge(mut merged: SimReport, mut later: SimReport) -> SimReport {
    later.fcts.splice(0..0, merged.fcts.drain(..));
    for (trace, earlier) in later.rate_traces.iter_mut().zip(&mut merged.rate_traces) {
        trace.splice(0..0, earlier.drain(..));
    }
    let mut queue_traces = merged.queue_traces;
    for (link, trace) in later.queue_traces.iter() {
        let earlier = queue_traces.get_mut(link).expect("same links traced");
        for &(t, v) in trace.points() {
            earlier.record(SimTime::from_secs_f64(t), v);
        }
    }
    later.queue_traces = queue_traces;
    later
}

#[test]
fn split_runs_dispatch_what_one_run_does() {
    let end = SimTime::from_millis(3);
    let whole = engine().run(end);
    assert_eq!(whole.fcts.len(), 3);
    assert!(whole.pfc_pauses > 0 && whole.fault_pauses > 0 && whole.marked_packets > 0);

    let mut eng = engine();
    // Horizons between events, on a flap edge, on the storm's first tick,
    // and twice the same one.
    let horizons_ns = [1, 77_777, 120_000, 126_000, 300_000, 300_000, 1_000_001];
    let mut merged = eng.run(ns(0));
    for h in horizons_ns {
        merged = merge(merged, eng.run(ns(h)));
        // Each horizon accounts for exactly the events due by it.
        assert_eq!(
            merged.events_processed,
            engine().run(ns(h)).events_processed,
            "horizon {h} ns"
        );
    }
    merged = merge(merged, eng.run(end));
    assert_eq!(digest(&merged), digest(&whole));
    assert_eq!(merged.events_processed, whole.events_processed);
}

/// DCQCN's timer shape: the α and increase timers armed together every
/// 55 µs, each re-arming itself when it fires (the increase timer adds
/// 40 Mbps), and a CNP that halves the rate and re-arms the pair. Each
/// flow logs its firings as `(time_ns, kind)`.
#[derive(Debug)]
struct DcqcnShaped {
    rate_bps: f64,
    line_bps: f64,
    log: Rc<RefCell<Vec<(u64, u8)>>>,
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
            CcEvent::Timer { kind } => {
                self.log.borrow_mut().push((now.as_nanos(), kind));
                if kind == 0 {
                    return CcUpdate::none().with_timer(0, now + T);
                }
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

type Logs = Vec<Rc<RefCell<Vec<(u64, u8)>>>>;

/// A 15-to-1 incast of 64 KB flows on a k = 4 fat-tree under
/// [`DcqcnShaped`], with one firing log per flow.
fn dcqcn_incast() -> (Engine, Logs) {
    let (topo, hosts) = Topology::fat_tree(4, 10e9, SimDuration::from_micros(1));
    let mut eng = Engine::new(topo, full_trace_config());
    let mut logs = Logs::new();
    for (i, &src) in hosts[1..].iter().enumerate() {
        let log = Rc::new(RefCell::new(Vec::new()));
        eng.add_flow(FlowSpec {
            src,
            dst: hosts[0],
            size_bytes: Some(64_000 + 1_001 * i as u64),
            start: ns(2_000 * i as u64),
            pacing: Pacing::PerPacket,
            cc: Box::new(DcqcnShaped {
                rate_bps: 0.0,
                line_bps: 0.0,
                log: log.clone(),
            }),
            ack_chunk_bytes: 16_000,
        });
        logs.push(log);
    }
    (eng, logs)
}

#[test]
fn dcqcn_incast_split_at_a_firing_and_at_a_completion() {
    let end = SimTime::from_millis(2);
    let (mut eng, whole_logs) = dcqcn_incast();
    let whole = eng.run(end);
    assert_eq!(whole.fcts.len(), 15);
    assert!(whole.cnps_sent > 0, "the senders must be cut");
    // A firing of flow 3 after its first cut (off the 55 µs grid of its
    // start), and the instant the last flow completes.
    let firing = whole_logs[3].borrow()[6].0;
    assert_ne!((firing - 6_000) % 55_000, 0, "a firing re-armed by a cut");
    let last = whole.fcts.last().expect("flows complete");
    let completion = SimTime::from_secs_f64(last.start_s) + SimDuration::from_secs_f64(last.fct_s);
    assert!(ns(firing) < completion);

    let (mut eng, split_logs) = dcqcn_incast();
    let mut merged = eng.run(ns(0));
    for h in [ns(firing), completion] {
        merged = merge(merged, eng.run(h));
        let (mut fresh, _) = dcqcn_incast();
        assert_eq!(merged.events_processed, fresh.run(h).events_processed);
        // The horizon is inclusive: the firing at it has run.
        if h == ns(firing) {
            assert_eq!(split_logs[3].borrow().last(), Some(&(firing, 1)));
        }
    }
    merged = merge(merged, eng.run(end));
    assert_eq!(digest(&merged), digest(&whole));
    assert_eq!(merged.events_processed, whole.events_processed);
    // Every flow saw the same firings in the same order.
    for (split, whole) in split_logs.iter().zip(&whole_logs) {
        assert_eq!(*split.borrow(), *whole.borrow());
    }
}

#[test]
fn flow_added_between_runs_starts_on_time() {
    // A run that stops well before its next event (a flow starting at
    // 10 ms) leaves the engine at its horizon: a flow added afterwards for
    // 2 ms starts at 2 ms, exactly as if it had been added before the run.
    let build = || {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut eng = Engine::new(topo, full_trace_config());
        eng.add_flow(fixed(senders[0], receiver, 20_000, 10e9, ns(0)));
        eng.add_flow(fixed(senders[1], receiver, 20_000, 10e9, ns(10_000_000)));
        (
            eng,
            fixed(senders[0], receiver, 20_000, 10e9, ns(2_000_000)),
        )
    };
    let fct = |r: &SimReport| r.fcts.iter().find(|r| r.flow == 2).map(|r| r.fct_s);
    let end = SimTime::from_millis(20);

    let (mut eng, late) = build();
    eng.add_flow(late);
    let whole = eng.run(end);
    assert!(fct(&whole).is_some_and(|s| s < 100e-6), "{:?}", fct(&whole));

    let (mut eng, late) = build();
    let merged = eng.run(SimTime::from_millis(1));
    eng.add_flow(late);
    let merged = merge(merged, eng.run(end));
    assert_eq!(fct(&merged), fct(&whole));
    assert_eq!(digest(&merged), digest(&whole));
}
