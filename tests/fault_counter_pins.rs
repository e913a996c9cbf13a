//! The fault plane's counts on the smoke schedule, pinned.
//!
//! `figs ext_faults --faults crates/bench/fixtures/faults_smoke.json` runs
//! the canned 4-flow DCQCN scenario for 50 ms under the fixture's loss,
//! jitter, pause-storm, CNP-loss and Kmax-perturbation windows. These are
//! the counts of the engine that took the obs lock per dropped or delayed
//! packet: a fault counted twice or not at all moves one of them. The
//! fixture has no link flap, so that counter stays at 0.

use desim::{SimDuration, SimTime};
use ecn_delay_core::scenarios::{single_switch_longlived, Protocol};
use netsim::EngineConfig;

#[test]
fn smoke_schedule_fault_counts_hold() {
    let text = include_str!("../crates/bench/fixtures/faults_smoke.json");
    let mut ecfg = EngineConfig::default();
    ecfg.faults = Some(faults::parse_schedule(text).expect("the fixture parses"));
    let (mut eng, _bottleneck) =
        single_switch_longlived(Protocol::Dcqcn, 4, 10e9, SimDuration::from_micros(4), ecfg);
    obs::reset();
    obs::enable(obs::METRICS);
    let report = eng.try_run(SimTime::from_millis(50));
    obs::disable(obs::METRICS);
    let report = report.expect("the smoke schedule runs");
    let pins = [
        ("netsim.fault_delays", 18_507),
        ("netsim.fault_drops", 472),
        ("netsim.fault_pauses", 16),
        ("netsim.fault_perturbations", 1),
        ("netsim.fault_windows", 3),
        ("netsim.fault_link_flaps", 0),
    ];
    let counts = pins.map(|(name, _)| (name, obs::metrics::counter_value(name)));
    obs::reset();
    assert_eq!(counts, pins);
    assert_eq!(report.faults_injected, 23);
}
