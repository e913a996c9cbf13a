//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. DCQCN **fast recovery** (F = 5 vs none): how much of the stability /
//!    ramp behaviour comes from the five gap-halving stages;
//! 2. the **CNP coalescing timer** τ: reaction granularity vs stability;
//! 3. TIMELY **burst size** sweep beyond Figure 10's two points;
//! 4. DCQCN **g** (the α gain): convergence speed vs cut depth.

use crate::experiments::{goodput_gbps, queue_kb, tail_stddev};
use crate::scenarios::{single_switch, Sender};
use desim::{par, SimDuration, SimTime};
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use netsim::{EngineConfig, SimReport};
use protocols::{DcqcnCcParams, TimelyCcParams};

/// Configuration. Every sweep is fixed, so the spec is empty.
#[derive(Debug, Clone, Default)]
pub struct AblationsConfig {}

/// One row per swept value.
#[derive(Debug, Clone)]
pub struct AblationsResult {
    /// `(F, goodput Gbps, tail queue σ KB)`: 4 DCQCN flows.
    pub fast_recovery: Vec<(u32, f64, f64)>,
    /// `(τ µs, goodput Gbps, tail queue σ KB)`: 4 DCQCN flows.
    pub cnp_timer: Vec<(u64, f64, f64)>,
    /// `(segment bytes, goodput Gbps)`: 2 TIMELY flows.
    pub burst_size: Vec<(u32, f64)>,
    /// `(g, tail queue peak-to-peak / q*)`: the fluid model, 10 flows at
    /// an 85 µs loop.
    pub alpha_gain: Vec<(f64, f64)>,
}

/// `n` long-lived flows from `sender()` through one 10 Gbps switch for
/// `ms` milliseconds.
fn run_flows(n: usize, ms: u64, sender: impl FnMut() -> Sender) -> SimReport {
    let hop = SimDuration::from_micros(1);
    let (mut eng, _) = single_switch(n, 10e9, hop, EngineConfig::default(), sender);
    eng.run(SimTime::from_millis(ms))
}

/// Four DCQCN flows with `tweak`ed parameters for 80 ms: the goodput and
/// the largest tail σ of any switch queue (KB) after 40 ms.
fn dcqcn_run(tweak: impl Fn(&mut DcqcnCcParams)) -> (f64, f64) {
    let report = run_flows(4, 80, || {
        let mut p = DcqcnCcParams::default();
        tweak(&mut p);
        Sender::dcqcn(p)
    });
    let sd = report
        .queue_traces
        .iter()
        .map(|(link, _)| tail_stddev(&queue_kb(&report, link), 0.04))
        .fold(0.0, f64::max);
    (goodput_gbps(&report, 0.08), sd)
}

/// Run the four sweeps; every configuration within one is an independent
/// simulation, run through the deterministic parallel executor.
pub fn run(_: &AblationsConfig) -> AblationsResult {
    let fast_recovery = par::par_map(vec![0u32, 1, 5, 10], |f| {
        let (g, sd) = dcqcn_run(|p| p.fast_recovery_steps = f);
        (f, g, sd)
    });
    let cnp_timer = par::par_map(vec![10u64, 50, 200, 500], |tau| {
        let (g, sd) = dcqcn_run(|p| p.rate_decrease_interval = SimDuration::from_micros(tau));
        (tau, g, sd)
    });
    let burst_size = par::par_map(vec![8_000u32, 16_000, 32_000, 64_000], |seg| {
        let report = run_flows(2, 150, || {
            Sender::timely(TimelyCcParams {
                seg_bytes: seg,
                ..Default::default()
            })
        });
        (seg, goodput_gbps(&report, 0.15))
    });
    let alpha_gain = par::par_map(
        vec![1.0 / 1024.0, 1.0 / 256.0, 1.0 / 64.0, 1.0 / 16.0],
        |g| {
            let mut p = DcqcnParams::default_40g();
            p.feedback_delay_us = 85.0;
            p.g = g;
            let mut m = DcqcnFluid::new(p, 10);
            let fp = m.fixed_point();
            let tr = m.simulate(0.1);
            (g, tr.peak_to_peak_from(0, 0.06) / fp.q_star_pkts.max(1.0))
        },
    );
    AblationsResult {
        fast_recovery,
        cnp_timer,
        burst_size,
        alpha_gain,
    }
}

crate::impl_to_json!(AblationsConfig {});
crate::impl_to_json!(AblationsResult {
    fast_recovery,
    cnp_timer,
    burst_size,
    alpha_gain
});
