//! Benchmarks for the packet-level simulator: events/second on the
//! validation topology with each protocol (the inner loop of the FCT
//! experiments), plus the fault plane's cost — an installed-but-empty
//! schedule must stay within noise of the no-schedule baseline, and an
//! active loss+jitter schedule shows the price of injection itself.

use bench::harness::{bench, black_box};
use desim::{SimDuration, SimTime};
use ecn_delay_core::scenarios::{single_switch_longlived, Protocol};
use faults::FaultSchedule;
use netsim::EngineConfig;

fn main() {
    let run_cfg = |proto: Protocol, n: usize, dur_ms: u64, cfg: EngineConfig| {
        let (mut eng, _b) =
            single_switch_longlived(proto, n, 10e9, SimDuration::from_micros(1), cfg);
        let report = eng.run(SimTime::from_millis(dur_ms));
        report.data_packets
    };
    let run =
        |proto: Protocol, n: usize, dur_ms: u64| run_cfg(proto, n, dur_ms, EngineConfig::default());

    bench("dcqcn_4flows_5ms_10g", || {
        black_box(run(Protocol::Dcqcn, 4, 5))
    });
    bench("timely_4flows_5ms_10g", || {
        black_box(run(Protocol::Timely, 4, 5))
    });
    bench("patched_timely_4flows_5ms_10g", || {
        black_box(run(Protocol::PatchedTimely, 4, 5))
    });

    // Zero-fault overhead: an installed empty schedule takes the fault
    // plane's fast path (no per-delivery work beyond one bool check), so
    // this row must track dcqcn_4flows_5ms_10g within noise.
    bench("dcqcn_4flows_5ms_faults_zero", || {
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(FaultSchedule::new(7));
        black_box(run_cfg(Protocol::Dcqcn, 4, 5, cfg))
    });
    // Active faults: a 2 % loss window plus RTT jitter covering most of the
    // run — per-delivery coin flips and extra-delay sampling engaged.
    bench("dcqcn_4flows_5ms_faults_active", || {
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(
            FaultSchedule::new(7)
                .packet_loss(0.001, 9, 0.02, 0.003)
                .rtt_jitter(0.001, 9, 10e-6, 0.003),
        );
        black_box(run_cfg(Protocol::Dcqcn, 4, 5, cfg))
    });
}
