//! The packet engine's decisions, pinned.
//!
//! Four small runs that between them cross every per-packet path of
//! `netsim::Engine` — per-packet and per-chunk pacing, the DCQCN timers,
//! ECN marking and CNPs, RTT samples, ECMP over a fat-tree, PFC pause and
//! resume, and the fault plane's loss, jitter, pause-storm, flap and
//! perturbation ops. Each must reproduce the `report_digest` (every flow's
//! FCT bits plus the mark / CNP / packet / drop / event counts) and the PFC
//! pause count recorded at ce4e36c, the commit before the event loop was
//! fused: the loop may be made cheaper, but it may not dispatch a different
//! event, or the same events in a different order — whether or not every
//! event still has a queue entry of its own (the digest folds in
//! `events_processed`), and whether the horizon is reached in one `run` or
//! in several. A fifth run has long-lived flows, which no FCT digest can pin:
//! it is run twice and the two reports are compared bit for bit.

use ecn_delay::desim::{SimDuration, SimTime};
use ecn_delay::experiments::experiments::ext_incast::report_digest;
use ecn_delay::experiments::scenarios::{fat_tree_incast, single_switch_longlived, Protocol};
use ecn_delay::netsim::{Engine, EngineConfig, PfcConfig, SimReport, Topology};
use ecn_delay::workload::IncastConfig;
use faults::{FaultSchedule, ParamTarget};

const LINE_RATE_BPS: f64 = 10e9;

/// `n` senders through one switch to one receiver, each shipping a finite
/// flow. Sizes differ and are not MTU multiples, so flows finish at
/// different times and every flow ends on a short packet.
fn single_switch(protocol: Protocol, n: usize, cfg: EngineConfig) -> Engine {
    let (topo, senders, receiver) =
        Topology::single_switch(n, LINE_RATE_BPS, SimDuration::from_micros(1));
    let mut eng = Engine::new(topo, cfg);
    for (i, &src) in senders.iter().enumerate() {
        eng.add_flow(protocol.build_cc(n as f64).flow(
            src,
            receiver,
            Some(1_500_000 + 370_001 * i as u64),
            SimTime::from_micros(3 * i as u64),
        ));
    }
    eng
}

fn check(report: &SimReport, flows: usize, digest: &str, pfc_pauses: u64) {
    assert_eq!(report.fcts.len(), flows, "every flow completes");
    assert_eq!(
        (report_digest(report).as_str(), report.pfc_pauses),
        (digest, pfc_pauses),
        "{} events, {} marks, {} CNPs, {} data packets, {} fault drops",
        report.events_processed,
        report.marked_packets,
        report.cnps_sent,
        report.data_packets,
        report.fault_drops,
    );
}

#[test]
fn dcqcn_per_packet_single_switch() {
    let mut eng = single_switch(Protocol::Dcqcn, 4, EngineConfig::default());
    let report = eng.run(SimTime::from_millis(30));
    assert!(
        report.cnps_sent > 0,
        "the senders must be cut at least once"
    );
    check(&report, 4, "c87c0eb14c2b025d", 0);
}

#[test]
fn dcqcn_split_horizon_equals_one_run() {
    // The same cell run to three horizons in turn: events up to each
    // horizon — with or without a queue entry of their own — are dispatched
    // and counted by the run that reaches it, the rest by a later one.
    // Counters are cumulative; each report hands out the FCTs of its run.
    let mut eng = single_switch(Protocol::Dcqcn, 4, EngineConfig::default());
    let mut fcts = Vec::new();
    for horizon_ns in [1_234_567, 3_300_000] {
        let part = eng.run(SimTime::from_nanos(horizon_ns));
        assert!(part.events_processed > 0 && part.fcts.len() < 4);
        fcts.extend(part.fcts);
    }
    let mut report = eng.run(SimTime::from_millis(30));
    fcts.append(&mut report.fcts);
    report.fcts = fcts;
    check(&report, 4, "c87c0eb14c2b025d", 0);
}

#[test]
fn timely_per_chunk_single_switch() {
    let mut eng = single_switch(Protocol::Timely, 4, EngineConfig::default());
    let report = eng.run(SimTime::from_millis(30));
    check(&report, 4, "10b55308f8990496", 0);
}

#[test]
fn fat_tree_incast_with_pfc() {
    let mut cfg = EngineConfig::default();
    cfg.seed = 7;
    cfg.rate_trace_window = None;
    // Thresholds inside the RED band, so PFC acts while ECN is still ramping.
    cfg.pfc = Some(PfcConfig {
        pause_threshold_bytes: 60_000,
        resume_threshold_bytes: 30_000,
    });
    let incast = IncastConfig {
        n_senders: 24,
        bytes_per_sender: 64_000,
        start_s: 0.0,
        stagger_s: 20e-6,
        seed: 7,
    };
    let prop = SimDuration::from_micros(1);
    let (mut eng, _bottleneck) =
        fat_tree_incast(Protocol::Dcqcn, 4, &incast, LINE_RATE_BPS, prop, cfg);
    let report = eng.run(SimTime::from_millis(30));
    assert!(report.pfc_pauses > 0, "the incast must trip PFC");
    check(&report, 24, "c23a57b6bb13dc0f", 1076);
}

#[test]
fn dcqcn_under_a_fault_schedule() {
    // `single_switch` link layout: host h owns links 2h (up) and 2h+1
    // (down); with three senders the receiver's downlink is link 7.
    let mut cfg = EngineConfig::default();
    cfg.faults = Some(
        FaultSchedule::new(21)
            .packet_loss(0.001, 7, 0.05, 0.004)
            .rtt_jitter(0.002, 1, 20e-6, 0.01)
            .cnp_loss(0.003, 6, 0.5, 0.004)
            .pause_storm(0.004, 7, 100e-6, 0.4, 0.003)
            .link_flap(0.006, 0, 0.0005)
            .perturb(0.008, ParamTarget::RedKmax, 0.5)
            .perturb(0.009, ParamTarget::CcRateIncrease, 2.0),
    );
    let mut eng = single_switch(Protocol::Dcqcn, 3, cfg);
    let report = eng.run(SimTime::from_millis(40));
    assert!(report.fault_drops > 0 && report.fault_pauses > 0);
    check(&report, 3, "8d8d9bb182f2dbef", 0);
}

#[test]
fn two_identically_seeded_runs_are_bitwise_equal() {
    let run = || {
        let prop = SimDuration::from_micros(4);
        let (mut eng, _bottleneck) = single_switch_longlived(
            Protocol::Dcqcn,
            4,
            LINE_RATE_BPS,
            prop,
            EngineConfig::default(),
        );
        eng.run(SimTime::from_millis(4))
    };
    let (a, b) = (run(), run());
    let counters = |r: &SimReport| (r.data_packets, r.marked_packets, r.cnps_sent, r.pfc_pauses);
    assert!(
        a.marked_packets > 0 && a.cnps_sent > 0,
        "congestion control acted"
    );
    assert_eq!(counters(&a), counters(&b));
    let fct_bits = |r: &SimReport| -> Vec<(usize, u64, u64, u64)> {
        r.fcts
            .iter()
            .map(|f| (f.flow, f.size_bytes, f.start_s.to_bits(), f.fct_s.to_bits()))
            .collect()
    };
    assert_eq!(fct_bits(&a), fct_bits(&b));
    assert_eq!(a.delivered_bytes, b.delivered_bytes);
    let queue_bits = |r: &SimReport| -> Vec<(usize, u64, u64)> {
        r.queue_traces
            .iter()
            .flat_map(|(link, trace)| {
                trace
                    .points()
                    .iter()
                    .map(move |&(t, q)| (link.0, t.to_bits(), q.to_bits()))
            })
            .collect()
    };
    assert!(!queue_bits(&a).is_empty(), "the bottleneck queue is traced");
    assert_eq!(queue_bits(&a), queue_bits(&b));
}
