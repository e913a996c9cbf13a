//! `run(t1)`, `run(t2)`, … on one engine dispatch what one `run` to the last
//! horizon dispatches, in the same order — including the events that have
//! no wheel entry of their own and are accounted for when a horizon passes
//! over them, and the self-re-arming PI-AQM tick.

mod common;

use common::{digest, fixed, full_trace_config, ns};
use desim::SimTime;
use faults::FaultSchedule;
use netsim::config::PiAqmConfig;
use netsim::{Engine, PfcConfig, SimReport, Topology};

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
