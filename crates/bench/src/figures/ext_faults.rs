//! Extension: deterministic fault injection and graceful degradation.
//!
//! Two modes:
//!
//! * default — run the full experiment: the DCQCN vs patched-TIMELY
//!   degradation matrix, the Figure-10-style delay-spike collapse, and the
//!   fluid divergence-watchdog sweep; results land in
//!   `results/ext_faults.json`.
//! * `--faults <spec.json>` — parse a fault-schedule document (schema in
//!   `faults::spec`), install it on the canned 4-flow DCQCN scenario, and
//!   report what the fault plane did. A malformed spec or an invalid
//!   schedule exits with status 2 and a descriptive error — never a panic.
//!   The watchdog sweep still runs, so both degradation paths (packet and
//!   fluid) are exercised in one invocation.
//!
//! `--obs <dir>` works as for every figure; its files are byte-identical
//! across `SIM_THREADS` settings in both modes, and in `--faults` mode
//! `<dir>/flight.jsonl` is the post-mortem of the watchdog's divergence.

use super::Figure;
use crate::cli::Args;
use desim::{SimDuration, SimTime};
use ecn_delay_core::experiments::ext_faults::{run, run_watchdog_sweep, ExtFaultsConfig};
use ecn_delay_core::scenarios::{single_switch_longlived, Protocol};
use netsim::EngineConfig;

/// Print the watchdog sweep — one line per gain, `ok` or the structured
/// divergence error. `crates/bench/tests/smoke.rs` reads these lines to
/// confirm a divergent fluid run degrades to a recorded `Err` instead of a
/// panic.
fn print_watchdog(points: &[ecn_delay_core::experiments::ext_faults::WatchdogPoint]) {
    println!("\ndivergence watchdog (x' = g.x(t - 100ms), 1.5 s horizon):");
    for p in points {
        println!(
            "watchdog: gain={:>7.1}/s -> {} ({})",
            p.gain_per_s,
            if p.ok { "ok" } else { "Err" },
            p.detail
        );
    }
}

/// `--faults` mode: run the canned DCQCN scenario under the given spec.
fn run_spec(path: &std::path::Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let schedule = faults::parse_schedule(&text).map_err(|e| e.to_string())?;
    println!(
        "spec {}: seed {} with {} event(s)",
        path.display(),
        schedule.seed,
        schedule.len()
    );
    let duration_s = 0.05;
    let mut ecfg = EngineConfig::default();
    ecfg.faults = Some(schedule);
    let (mut eng, _bottleneck) =
        single_switch_longlived(Protocol::Dcqcn, 4, 10e9, SimDuration::from_micros(4), ecfg);
    let report = eng
        .try_run(SimTime::from_secs_f64(duration_s))
        .map_err(|e| e.to_string())?;
    let goodput_gbps = report.delivered_bytes.iter().sum::<u64>() as f64 * 8.0 / duration_s / 1e9;
    println!("DCQCN, 4 flows, 10 Gbps, {} ms:", duration_s * 1e3);
    println!(
        "  goodput {:.2} Gbps | marked {} | cnps {} | fault drops {} | forced pauses {} ({:.3} ms paused) | fault ops {}",
        goodput_gbps,
        report.marked_packets,
        report.cnps_sent,
        report.fault_drops,
        report.fault_pauses,
        report.fault_paused_s * 1e3,
        report.faults_injected
    );
    Ok(())
}

pub(super) fn body(f: &Figure, args: &Args) {
    let cfg = ExtFaultsConfig::default();
    if let Some((_, path)) = args.own.first() {
        let obs = crate::obs_cli::init(args);
        crate::banner(f.title);
        if let Err(e) = run_spec(std::path::Path::new(path)) {
            eprintln!("ext_faults: {e}");
            std::process::exit(2);
        }
        print_watchdog(&run_watchdog_sweep(&cfg.watchdog_gains, cfg.watchdog_t1_s));
        obs.finish();
        return;
    }
    f.standard(args, cfg, run, print, None);
}

/// The console table of the full experiment.
fn print(cfg: &ExtFaultsConfig, res: &ecn_delay_core::experiments::ext_faults::ExtFaultsResult) {
    println!(
        "degradation matrix ({} flows, {:.0} ms, fault window = middle 60%):",
        cfg.n_flows,
        cfg.matrix_duration_s * 1e3
    );
    println!(
        "{:<15} {:<12} {:>14} {:>8} {:>8} {:>8}",
        "protocol", "profile", "goodput (Gbps)", "drops", "pauses", "ops"
    );
    for c in &res.cells {
        println!(
            "{:<15} {:<12} {:>14.2} {:>8} {:>8} {:>8}",
            c.protocol, c.profile, c.goodput_gbps, c.fault_drops, c.fault_pauses, c.faults_injected
        );
    }
    if !res.failed_cells.is_empty() {
        println!("failed cells (recorded, not fatal):");
        for f in &res.failed_cells {
            println!("  {f}");
        }
    }
    println!("\nFigure-10-style collapse (2 TIMELY flows, 64 KB chunks):");
    for p in &res.collapse {
        println!(
            "  {:<26} early {:>5.2} Gbps, tail {:>5.2} Gbps",
            p.label, p.early_agg_gbps, p.tail_agg_gbps
        );
    }
    print_watchdog(&res.watchdog);
    println!("\neach fault attacks one signal path: CNP loss passes TIMELY by, delay");
    println!("faults corrupt exactly the measurement it trusts; pause storms gate both.");
}
