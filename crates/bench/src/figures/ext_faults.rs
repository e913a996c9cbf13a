//! Extension: deterministic fault injection and graceful degradation.
//!
//! Two modes:
//!
//! * default — run the full experiment: the DCQCN vs patched-TIMELY
//!   degradation matrix, the Figure-10-style delay-spike collapse, and the
//!   fluid divergence-watchdog sweep; results land in
//!   `results/ext_faults.json`.
//! * `--faults <spec.json>` — parse a fault-schedule document (schema in
//!   `faults::spec`), run the degradation matrix's 4-flow DCQCN scenario
//!   under it (`ext_faults::run_scheduled`), and report what the fault
//!   plane did. A malformed spec or an invalid schedule exits with status
//!   2 and a descriptive error — never a panic.
//!   The watchdog sweep still runs, so both degradation paths (packet and
//!   fluid) are exercised in one invocation.
//!
//! `--obs <dir>` works as for every figure; its files are byte-identical
//! across `SIM_THREADS` settings in both modes, and in `--faults` mode
//! `<dir>/flight.jsonl` is the post-mortem of the watchdog's divergence.

use super::Figure;
use crate::cli::Args;
use ecn_delay_core::experiments::ext_faults::{
    run, run_scheduled, run_watchdog_sweep, ExtFaultsConfig, ExtFaultsResult, WatchdogPoint,
};
use ecn_delay_core::experiments::goodput_gbps;
use ecn_delay_core::scenarios::Protocol;

/// Print the watchdog sweep — one line per gain, `ok` or the structured
/// divergence error. `crates/bench/tests/smoke.rs` reads these lines to
/// confirm a divergent fluid run degrades to a recorded `Err` instead of a
/// panic.
fn print_watchdog(points: &[WatchdogPoint]) {
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

/// `--faults` mode: read and parse the spec at `path`, run it and print
/// what the fault plane did.
fn print_spec_run(cfg: &ExtFaultsConfig, path: &std::path::Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let schedule = faults::parse_schedule(&text).map_err(|e| e.to_string())?;
    println!(
        "spec {}: seed {} with {} event(s)",
        path.display(),
        schedule.seed,
        schedule.len()
    );
    let report = run_scheduled(cfg, Protocol::Dcqcn, schedule).map_err(|e| e.to_string())?;
    println!(
        "DCQCN, {} flows, {} Gbps, {} ms:",
        cfg.n_flows,
        cfg.bandwidth_bps / 1e9,
        cfg.matrix_duration_s * 1e3
    );
    println!(
        "  goodput {:.2} Gbps | marked {} | cnps {} | fault drops {} | forced pauses {} ({:.3} ms paused) | fault ops {}",
        goodput_gbps(&report, cfg.matrix_duration_s),
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
        if let Err(e) = print_spec_run(&cfg, std::path::Path::new(path)) {
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
fn print(cfg: &ExtFaultsConfig, res: &ExtFaultsResult) {
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
