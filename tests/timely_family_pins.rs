//! The TIMELY family, pinned law by law.
//!
//! `models::TimelyFluid` is one model for TIMELY, Patched TIMELY and Patched
//! TIMELY with an end-host PI (its `TimelyLaw`), and `protocols::TimelyCc`
//! one sender for TIMELY and Patched TIMELY (its `Band`). Each member must
//! reproduce, bit for bit, what its own type produced before they were one
//! (recorded at a85d401): the fluid trajectories as an FNV-1a digest of the
//! trace, the packet runs as `report_digest`. Each sender also files its RTT
//! samples under its own counter (`timely.gradient_samples` or
//! `patched_timely.gradient_samples`), which the benchmark reads per layer.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ecn_delay::desim::{SimDuration, SimTime};
use ecn_delay::experiments::experiments::ext_incast::report_digest;
use ecn_delay::experiments::scenarios::Protocol;
use ecn_delay::fluid::Trace;
use ecn_delay::models::jitter::Jitter;
use ecn_delay::models::{TimelyFluid, TimelyLaw, TimelyParams};
use ecn_delay::netsim::{Engine, EngineConfig, Topology};

const FLOWS: usize = 4;
const DURATION_S: f64 = 0.01;

/// FNV-1a over every recorded knot: the bits of `t`, then of the state row.
fn trace_digest(tr: &Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, &t) in tr.times().iter().enumerate() {
        eat(t);
        tr.state(i).iter().copied().for_each(&mut eat);
    }
    h
}

/// A distinct start rate per flow (K = N classes), about the link in sum.
fn distinct_rates(capacity_pps: f64) -> Vec<f64> {
    let share = capacity_pps / FLOWS as f64;
    (0..FLOWS)
        .map(|i| share * (0.5 + i as f64 / FLOWS as f64))
        .collect()
}

fn assert_digest(mut m: TimelyFluid, pinned: u64) {
    let rates = distinct_rates(m.params.capacity_pps());
    let digest = trace_digest(&m.simulate_with_rates(&rates, DURATION_S));
    assert_eq!(digest, pinned, "{:?}: digest {digest:#018x}", m.law);
}

#[test]
fn original_law_reproduces_timely() {
    let m = TimelyFluid::new(TimelyParams::default_10g(), TimelyLaw::Original, FLOWS)
        .with_start_times(vec![0.0, 0.0, 1e-3, 2e-3])
        .with_jitter(Jitter::uniform(20e-6, 10e-6, 3));
    assert_digest(m, 0xad4b_9a8e_6221_95a2);
}

#[test]
fn patched_law_reproduces_patched_timely() {
    let m = TimelyFluid::patched_10g(FLOWS).with_jitter(Jitter::uniform(20e-6, 10e-6, 3));
    assert_digest(m, 0x9d23_4421_c919_1098);
}

#[test]
fn patched_pi_law_reproduces_patched_timely_with_end_host_pi() {
    assert_digest(
        TimelyFluid::patched_pi_10g(300.0, FLOWS),
        0xffd7_c70a_6145_a54a,
    );
}

/// The `obs` counters are process-global; the packet tests take turns.
fn metrics_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `FLOWS` finite flows through one switch under `protocol`'s sender, with
/// the metrics on: the report's digest and both senders' sample counters.
fn packet_run(protocol: Protocol) -> (String, u64, u64) {
    let _turn = metrics_turn();
    let (topo, senders, receiver) =
        Topology::single_switch(FLOWS, 10e9, SimDuration::from_micros(1));
    let mut eng = Engine::new(topo, EngineConfig::default());
    for (i, &src) in senders.iter().enumerate() {
        eng.add_flow(protocol.build_cc(FLOWS as f64).flow(
            src,
            receiver,
            Some(1_500_000 + 370_001 * i as u64),
            SimTime::from_micros(3 * i as u64),
        ));
    }
    obs::reset();
    obs::enable(obs::METRICS);
    let report = eng.run(SimTime::from_millis(20));
    obs::disable(obs::METRICS);
    let count = obs::metrics::counter_value;
    let counts = (
        count("timely.gradient_samples"),
        count("patched_timely.gradient_samples"),
    );
    obs::reset();
    assert_eq!(report.fcts.len(), FLOWS, "every flow completes");
    (report_digest(&report), counts.0, counts.1)
}

#[test]
fn gradient_band_reproduces_timely_and_counts_as_timely() {
    let run = packet_run(Protocol::Timely);
    assert_eq!(run, ("10b55308f8990496".to_string(), 512, 0));
}

#[test]
fn patched_band_reproduces_patched_timely_and_counts_as_patched() {
    let run = packet_run(Protocol::PatchedTimely);
    assert_eq!(run, ("8c88537b6e9a4120".to_string(), 0, 512));
}
