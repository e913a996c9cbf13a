//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. DCQCN **fast recovery** (F = 5 vs none): how much of the stability /
//!    ramp behaviour comes from the five gap-halving stages;
//! 2. the **CNP coalescing timer** τ: reaction granularity vs stability;
//! 3. TIMELY **burst size** sweep beyond Figure 10's two points;
//! 4. DCQCN **g** (the α gain): convergence speed vs cut depth.

use super::Figure;
use crate::cli::Args;
use desim::{SimDuration, SimTime};
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use netsim::{Engine, EngineConfig, FlowSpec, Pacing, Topology};
use protocols::{DcqcnCc, DcqcnCcParams, TimelyCc, TimelyCcParams};

struct AblationReport {
    fast_recovery: Vec<(u32, f64, f64)>,
    cnp_timer: Vec<(u64, f64, f64)>,
    burst_size: Vec<(u32, f64)>,
    alpha_gain: Vec<(f64, f64)>,
}

fn dcqcn_run(mk: impl Fn(&mut DcqcnCcParams), n: usize) -> (f64, f64) {
    let (topo, senders, receiver) = Topology::single_switch(n, 10e9, SimDuration::from_micros(1));
    let mut eng = Engine::new(topo, EngineConfig::default());
    for &s in &senders {
        let mut p = DcqcnCcParams::default();
        mk(&mut p);
        eng.add_flow(FlowSpec {
            src: s,
            dst: receiver,
            size_bytes: None,
            start: SimTime::ZERO,
            pacing: Pacing::PerPacket,
            cc: Box::new(DcqcnCc::new(p)),
            ack_chunk_bytes: 64_000,
        });
    }
    let report = eng.run(SimTime::from_millis(80));
    let goodput = report.delivered_bytes.iter().sum::<u64>() as f64 * 8.0 / 0.08 / 1e9;
    // Queue variability over the tail.
    let mut sd = 0.0;
    for tr in report.queue_traces.values() {
        let pts: Vec<f64> = tr
            .points()
            .iter()
            .filter(|&&(t, _)| t > 0.04)
            .map(|&(_, b)| b / 1000.0)
            .collect();
        if pts.len() > 2 {
            let mean = pts.iter().sum::<f64>() / pts.len() as f64;
            let var = pts.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / pts.len() as f64;
            sd = f64::max(sd, var.sqrt());
        }
    }
    (goodput, sd)
}

pub(super) fn body(figure: &Figure, args: &Args) {
    let Some(started) = figure.begin(args, "{}") else {
        return;
    };
    let mut report = AblationReport {
        fast_recovery: Vec::new(),
        cnp_timer: Vec::new(),
        burst_size: Vec::new(),
        alpha_gain: Vec::new(),
    };

    // Every configuration within a section is an independent simulation:
    // run each section through the deterministic parallel executor and
    // print the ordered results afterwards.
    println!("\n(1) DCQCN fast-recovery stages (4 flows, 10 Gbps):");
    println!(
        "{:>4} {:>16} {:>18}",
        "F", "goodput (Gbps)", "queue stddev (KB)"
    );
    report.fast_recovery = desim::par::par_map(vec![0u32, 1, 5, 10], |f| {
        let (g, sd) = dcqcn_run(|p| p.fast_recovery_steps = f, 4);
        (f, g, sd)
    });
    for &(f, g, sd) in &report.fast_recovery {
        println!("{f:>4} {g:>16.2} {sd:>18.1}");
    }

    println!("\n(2) CNP coalescing timer τ (4 flows):");
    println!(
        "{:>8} {:>16} {:>18}",
        "τ (us)", "goodput (Gbps)", "queue stddev (KB)"
    );
    report.cnp_timer = desim::par::par_map(vec![10u64, 50, 200, 500], |tau| {
        let (g, sd) = dcqcn_run(
            |p| {
                p.rate_decrease_interval = SimDuration::from_micros(tau);
            },
            4,
        );
        (tau, g, sd)
    });
    for &(tau, g, sd) in &report.cnp_timer {
        println!("{tau:>8} {g:>16.2} {sd:>18.1}");
    }

    println!("\n(3) TIMELY burst size (2 flows, tail goodput):");
    println!("{:>10} {:>16}", "Seg (KB)", "goodput (Gbps)");
    report.burst_size = desim::par::par_map(vec![8_000u32, 16_000, 32_000, 64_000], |seg| {
        let (topo, senders, receiver) =
            Topology::single_switch(2, 10e9, SimDuration::from_micros(1));
        let mut eng = Engine::new(topo, EngineConfig::default());
        for &s in &senders {
            let mut p = TimelyCcParams::default();
            p.seg_bytes = seg;
            eng.add_flow(FlowSpec {
                src: s,
                dst: receiver,
                size_bytes: None,
                start: SimTime::ZERO,
                pacing: Pacing::PerChunk { seg_bytes: seg },
                cc: Box::new(TimelyCc::new(p)),
                ack_chunk_bytes: seg,
            });
        }
        let r = eng.run(SimTime::from_millis(150));
        let g = r.delivered_bytes.iter().sum::<u64>() as f64 * 8.0 / 0.15 / 1e9;
        (seg, g)
    });
    for &(seg, g) in &report.burst_size {
        println!("{:>10} {g:>16.2}", seg / 1000);
    }

    println!("\n(4) DCQCN α gain g (fluid, 2 flows @ 85 us delay — stability knob):");
    println!("{:>10} {:>22}", "g", "queue osc (x q*)");
    report.alpha_gain = desim::par::par_map(
        vec![1.0 / 1024.0, 1.0 / 256.0, 1.0 / 64.0, 1.0 / 16.0],
        |g| {
            let mut p = DcqcnParams::default_40g();
            p.feedback_delay_us = 85.0;
            p.g = g;
            let mut m = DcqcnFluid::new(p, 10);
            let fp = m.fixed_point();
            let tr = m.simulate(0.1);
            let osc = tr.peak_to_peak_from(0, 0.06) / fp.q_star_pkts.max(1.0);
            (g, osc)
        },
    );
    for &(g, osc) in &report.alpha_gain {
        println!("{g:>10.5} {osc:>22.3}");
    }

    figure.save(started, &[&report], Vec::new());
}

ecn_delay_core::impl_to_json!(AblationReport {
    fast_recovery,
    cnp_timer,
    burst_size,
    alpha_gain
});
