//! The CC clock counts of the 256-sender incast, pinned.
//!
//! DCQCN's α and rate-increase timers are per-flow clocks that fire during
//! a flow's catch-up, not wheel events. These are the counts of the engine
//! that made one wheel event and one CC call per firing: a firing dropped,
//! made twice or reordered moves at least one of them. The fixture is the
//! `ext_incast --k 4 --senders 64,256 --bytes 16000` sweep's four cells
//! plus the zero-fault identity probe's third 64-sender DCQCN run.

use ecn_delay_core::experiments::ext_incast::{run, run_zero_fault_identity, ExtIncastConfig};

#[test]
fn incast_clock_counts_match_one_event_per_firing() {
    let cfg = ExtIncastConfig {
        k: 4,
        sender_counts: vec![64, 256],
        bytes_per_sender: 16_000,
        ..Default::default()
    };
    obs::reset();
    obs::enable(obs::METRICS);
    let res = run(&cfg);
    let (none, empty) = run_zero_fault_identity(&cfg, 64);
    obs::disable(obs::METRICS);
    assert_eq!(none, empty, "an empty fault schedule moved the run");
    assert!(res.cells.iter().all(|c| c.completed == c.n_senders));
    let pins = [
        ("netsim.clock_firings", 25_262),
        ("netsim.rate_updates", 17_689),
        ("dcqcn.increases", 12_183),
        ("netsim.clock_tie_convention", 0),
    ];
    let counts = pins.map(|(name, _)| (name, obs::metrics::counter_value(name)));
    obs::reset();
    assert_eq!(counts, pins);
}
