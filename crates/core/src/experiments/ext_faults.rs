//! Extension: deterministic fault injection — DCQCN vs patched TIMELY
//! under degradation, plus the fluid-core divergence watchdog.
//!
//! The paper contrasts *what signal* each scheme trusts: DCQCN trusts ECN
//! feedback (CNPs), TIMELY trusts RTT measurements. The fault plane makes
//! that contrast operational — each [`FaultProfile`] attacks one signal
//! path and the degradation matrix shows which protocol's throughput
//! survives which fault:
//!
//! * `cnp-loss` thins DCQCN's feedback while leaving TIMELY (which sends
//!   no CNPs) untouched;
//! * `rtt-jitter` / `delay-spike` corrupt the RTT samples TIMELY trusts
//!   while DCQCN's ECN path is oblivious;
//! * `data-loss` and `pause-storm` hit both equally.
//!
//! Two further sections exercise the robustness plumbing end to end: a
//! Figure-10-style collapse (TIMELY with 64 KB chunks, with and without a
//! delay spike injected into the startup window) and a divergence-watchdog
//! sweep over a delayed-feedback DDE in which the unstable points come
//! back as structured [`SimError`]s — recorded, not panicking — while the
//! stable points complete normally.

use crate::experiments::{fig10, goodput_gbps};
use crate::scenarios::{single_switch_longlived, Protocol};
use desim::{par, SimDuration, SimTime};
use faults::{FaultSchedule, SimError};
use fluid::dde::{lane_of, try_integrate, DdeOptions, LaneSystem};
use fluid::History;
use netsim::EngineConfig;
use workload::{fault_schedule, FaultProfile};

/// Configuration.
#[derive(Debug, Clone)]
pub struct ExtFaultsConfig {
    /// Flows at the bottleneck in the degradation matrix.
    pub n_flows: usize,
    /// Link bandwidth (bit/s).
    pub bandwidth_bps: f64,
    /// Degradation-matrix run length (seconds).
    pub matrix_duration_s: f64,
    /// Collapse-panel run length (seconds).
    pub collapse_duration_s: f64,
    /// Fault-schedule seed (the probabilistic faults' RNG sub-streams are
    /// derived from this, never from the engine's marking RNG).
    pub seed: u64,
    /// Delayed-feedback gains (1/s) swept by the watchdog section; the
    /// large positive ones diverge.
    pub watchdog_gains: Vec<f64>,
    /// Watchdog integration horizon (seconds).
    pub watchdog_t1_s: f64,
}

impl Default for ExtFaultsConfig {
    fn default() -> Self {
        ExtFaultsConfig {
            n_flows: 4,
            bandwidth_bps: 10e9,
            matrix_duration_s: 0.05,
            collapse_duration_s: 0.25,
            seed: 7,
            watchdog_gains: vec![-4.0, -1.0, 0.5, 400.0, 4000.0],
            watchdog_t1_s: 1.5,
        }
    }
}

/// One `(protocol, fault profile)` cell of the degradation matrix.
#[derive(Debug, Clone)]
pub struct FaultMatrixCell {
    /// Protocol label.
    pub protocol: String,
    /// Fault-profile label.
    pub profile: String,
    /// Aggregate goodput (Gbps) over the run.
    pub goodput_gbps: f64,
    /// CNPs the receiver generated.
    pub cnps_sent: u64,
    /// Packets the fault plane dropped.
    pub fault_drops: u64,
    /// Forced pauses the fault plane injected.
    pub fault_pauses: u64,
    /// Fault-plane operations executed (0 in the baseline column).
    pub faults_injected: u64,
}

/// One collapse panel: TIMELY with 64 KB chunks, clean or delay-spiked.
#[derive(Debug, Clone)]
pub struct CollapsePanel {
    /// Panel label.
    pub label: String,
    /// Aggregate throughput over the first 50 ms (Gbps) — the window the
    /// injected spike corrupts.
    pub early_agg_gbps: f64,
    /// Aggregate throughput over the final 30 % of the run (Gbps).
    pub tail_agg_gbps: f64,
    /// Fault-plane operations executed.
    pub faults_injected: u64,
}

/// One point of the divergence-watchdog sweep.
#[derive(Debug, Clone)]
pub struct WatchdogPoint {
    /// Delayed-feedback gain (1/s).
    pub gain_per_s: f64,
    /// Whether the integration completed.
    pub ok: bool,
    /// Final `max|x|` for completed points; the structured [`SimError`]
    /// rendering for diverged ones.
    pub detail: String,
}

/// Result.
#[derive(Debug, Clone)]
pub struct ExtFaultsResult {
    /// Degradation matrix, protocol-major, profiles in [`FaultProfile::all`]
    /// order.
    pub cells: Vec<FaultMatrixCell>,
    /// Matrix cells that failed outright (rendered errors). A non-empty
    /// list never aborts the experiment — graceful degradation is the
    /// point — but should be empty in healthy configurations.
    pub failed_cells: Vec<String>,
    /// Collapse panels (clean, then delay-spiked).
    pub collapse: Vec<CollapsePanel>,
    /// Watchdog sweep, one point per configured gain.
    pub watchdog: Vec<WatchdogPoint>,
}

/// In [`netsim::Topology::single_switch`]`(n)` the receiver is host `n`:
/// link `2n+1` (switch → receiver) carries every flow's data — the
/// bottleneck — and link `2n` (receiver → switch) is the first hop of the
/// CNP feedback path.
fn matrix_links(n_flows: usize) -> (usize, usize) {
    (2 * n_flows + 1, 2 * n_flows)
}

/// The matrix's scenario under `schedule`: `protocol`'s `n_flows` senders
/// through one switch for `matrix_duration_s` (`figs ext_faults --faults
/// <spec.json>` runs DCQCN under the spec's schedule). An invalid schedule
/// or a failed run comes back as the [`SimError`], never a panic.
pub fn run_scheduled(
    cfg: &ExtFaultsConfig,
    protocol: Protocol,
    schedule: FaultSchedule,
) -> Result<netsim::SimReport, SimError> {
    let mut ecfg = EngineConfig::default();
    ecfg.faults = Some(schedule);
    let (mut eng, _bottleneck) = single_switch_longlived(
        protocol,
        cfg.n_flows,
        cfg.bandwidth_bps,
        SimDuration::from_micros(4),
        ecfg,
    );
    eng.try_run(SimTime::from_secs_f64(cfg.matrix_duration_s))
}

/// Run one matrix cell. Errors are rendered into the `failed_cells` list by
/// the caller rather than aborting the sweep.
fn run_cell(
    cfg: &ExtFaultsConfig,
    protocol: Protocol,
    profile: FaultProfile,
) -> Result<FaultMatrixCell, SimError> {
    let (data_link, ctrl_link) = matrix_links(cfg.n_flows);
    let schedule = fault_schedule(
        profile,
        cfg.seed,
        data_link,
        ctrl_link,
        cfg.matrix_duration_s,
    );
    let report = run_scheduled(cfg, protocol, schedule)?;
    Ok(FaultMatrixCell {
        protocol: protocol.label().to_string(),
        profile: profile.label().to_string(),
        goodput_gbps: goodput_gbps(&report, cfg.matrix_duration_s),
        cnps_sent: report.cnps_sent,
        fault_drops: report.fault_drops,
        fault_pauses: report.fault_pauses,
        faults_injected: report.faults_injected,
    })
}

/// Run the full degradation matrix in parallel (cells are independent; the
/// output order is protocol-major regardless of `SIM_THREADS`). Failed
/// cells are returned as rendered errors alongside the completed ones.
pub fn run_matrix(cfg: &ExtFaultsConfig) -> (Vec<FaultMatrixCell>, Vec<String>) {
    let mut jobs = Vec::new();
    for protocol in [Protocol::Dcqcn, Protocol::PatchedTimely] {
        for profile in FaultProfile::all() {
            jobs.push((protocol, profile));
        }
    }
    let results = par::par_map(jobs, |(protocol, profile)| {
        run_cell(cfg, protocol, profile)
            .map_err(|e| format!("{}/{}: {e}", protocol.label(), profile.label()))
    });
    let (mut cells, mut failed) = (Vec::new(), Vec::new());
    for r in results {
        match r {
            Ok(cell) => cells.push(cell),
            Err(e) => failed.push(e),
        }
    }
    (cells, failed)
}

/// One collapse panel: two TIMELY flows pacing 64 KB chunks (the Figure 10
/// incast configuration), optionally with a delay spike injected into the
/// startup window so every early RTT sample is inflated.
fn run_collapse_panel(cfg: &ExtFaultsConfig, spiked: bool) -> CollapsePanel {
    let mut ecfg = EngineConfig::default();
    if spiked {
        // 200 µs of extra one-way delay on the bottleneck for the first
        // 20 ms: TIMELY reads the inflated RTTs as severe congestion and
        // both flows slash their rates (Algorithm 1 line 8), deepening the
        // Figure 10(b) collapse; recovery is the slow additive climb.
        let (data_link, _ctrl) = matrix_links(2);
        ecfg.faults = Some(FaultSchedule::new(cfg.seed).delay_spike(0.0, data_link, 200e-6, 0.02));
    }
    let (panel, report) = fig10::panel(64_000, cfg.bandwidth_bps, cfg.collapse_duration_s, ecfg);
    CollapsePanel {
        label: if spiked {
            "64KB chunks + 200us spike"
        } else {
            "64KB chunks clean"
        }
        .to_string(),
        early_agg_gbps: panel.early_agg_gbps,
        tail_agg_gbps: panel.tail_agg_gbps,
        faults_injected: report.faults_injected,
    }
}

/// Run both collapse panels (clean, then spiked).
pub fn run_collapse(cfg: &ExtFaultsConfig) -> Vec<CollapsePanel> {
    vec![
        run_collapse_panel(cfg, false),
        run_collapse_panel(cfg, true),
    ]
}

/// Delay the watchdog-sweep feedback by 100 ms.
const WATCHDOG_TAU_S: f64 = 0.1;

/// `x'(t) = g · x(t − τ)`: the textbook delayed linear feedback. Small
/// negative gains are stable (`|g|·τ < π/2`); large positive ones grow
/// exponentially and trip the integrator's divergence watchdog.
struct DelayedFeedback {
    gain_per_s: f64,
}

impl LaneSystem for DelayedFeedback {
    fn lane_dim(&self) -> usize {
        1
    }
    fn lane_rhs(
        &mut self,
        t: f64,
        _x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        let c = lane_of(0, lane, stride);
        dxdt[c] = self.gain_per_s * hist.eval(t - WATCHDOG_TAU_S, c);
    }
    fn min_delay(&self) -> f64 {
        WATCHDOG_TAU_S
    }
}

/// Sweep the delayed-feedback gain across stable and divergent values.
/// Every point runs to a verdict — a divergent integration comes back as a
/// structured [`SimError`] recorded in its [`WatchdogPoint`], and the
/// remaining points complete regardless (the acceptance contract of the
/// fault plane's fluid side).
pub fn run_watchdog_sweep(gains: &[f64], t1_s: f64) -> Vec<WatchdogPoint> {
    let opts = DdeOptions {
        step: 1e-3,
        record_every: 50,
        history_horizon_s: 2.0 * WATCHDOG_TAU_S,
    };
    let results = par::par_map(gains.to_vec(), |gain_per_s| {
        let mut sys = DelayedFeedback { gain_per_s };
        let lanes = try_integrate(std::slice::from_mut(&mut sys), &[1.0], 0.0, t1_s, &opts);
        // One lane in, one out.
        lanes.and_then(|mut lanes| lanes.remove(0)).map(|tr| {
            tr.last_state()
                .map(|x| x.iter().fold(0.0f64, |m, v| m.max(v.abs())))
                .unwrap_or(0.0)
        })
    });
    gains
        .iter()
        .zip(results)
        .map(|(&gain_per_s, r)| match r {
            Ok(norm) => WatchdogPoint {
                gain_per_s,
                ok: true,
                detail: format!("final max|x| = {norm:.3e}"),
            },
            Err(e) => WatchdogPoint {
                gain_per_s,
                ok: false,
                detail: e.to_string(),
            },
        })
        .collect()
}

/// Run all three sections.
pub fn run(cfg: &ExtFaultsConfig) -> ExtFaultsResult {
    let (cells, failed_cells) = run_matrix(cfg);
    ExtFaultsResult {
        cells,
        failed_cells,
        collapse: run_collapse(cfg),
        watchdog: run_watchdog_sweep(&cfg.watchdog_gains, cfg.watchdog_t1_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExtFaultsConfig {
        ExtFaultsConfig {
            matrix_duration_s: 0.02,
            ..Default::default()
        }
    }

    fn cell<'a>(cells: &'a [FaultMatrixCell], proto: &str, profile: &str) -> &'a FaultMatrixCell {
        cells
            .iter()
            .find(|c| c.protocol == proto && c.profile == profile)
            .unwrap_or_else(|| panic!("missing cell {proto}/{profile}"))
    }

    #[test]
    fn degradation_matrix_covers_all_cells_without_failures() {
        let cfg = quick();
        let (cells, failed) = run_matrix(&cfg);
        for c in &cells {
            eprintln!(
                "{:<14} {:<12} goodput={:6.2} cnps={:5} drops={:4} pauses={:3} injected={:3}",
                c.protocol,
                c.profile,
                c.goodput_gbps,
                c.cnps_sent,
                c.fault_drops,
                c.fault_pauses,
                c.faults_injected
            );
        }
        assert!(failed.is_empty(), "no cell may fail: {failed:?}");
        assert_eq!(cells.len(), 2 * FaultProfile::all().len());
        for c in &cells {
            assert!(
                c.goodput_gbps > 0.5,
                "{}/{} goodput {:.2} Gbps",
                c.protocol,
                c.profile,
                c.goodput_gbps
            );
        }
        // Baseline column: the fault plane never engaged.
        for proto in ["DCQCN", "PatchedTIMELY"] {
            let b = cell(&cells, proto, "baseline");
            assert_eq!(b.faults_injected, 0, "{proto} baseline injected faults");
            assert_eq!(b.fault_drops, 0);
        }
        // Fault columns really bit.
        for proto in ["DCQCN", "PatchedTIMELY"] {
            assert!(cell(&cells, proto, "data-loss").fault_drops > 0);
            assert!(cell(&cells, proto, "cnp-loss").fault_drops > 0);
            assert!(cell(&cells, proto, "pause-storm").fault_pauses > 0);
        }
        // The signal-path contrast. TIMELY ignores CNPs (the receiver
        // still emits them on marked arrivals), so losing half of them
        // leaves its goodput untouched...
        let t_base = cell(&cells, "PatchedTIMELY", "baseline").goodput_gbps;
        let t_cnp = cell(&cells, "PatchedTIMELY", "cnp-loss").goodput_gbps;
        assert!(
            (t_cnp - t_base).abs() / t_base < 0.02,
            "delay-based scheme must shrug off CNP loss: {t_cnp:.2} vs {t_base:.2}"
        );
        // ...while a delay fault corrupts the one signal it trusts: a
        // constant 150 µs detour reads as persistent congestion.
        let t_spike = cell(&cells, "PatchedTIMELY", "delay-spike").goodput_gbps;
        assert!(
            t_spike < t_base * 0.85,
            "delay spike must depress TIMELY: {t_spike:.2} vs {t_base:.2}"
        );
        // Forced pause storms gate the wire itself — both protocols lose.
        for proto in ["DCQCN", "PatchedTIMELY"] {
            let base = cell(&cells, proto, "baseline").goodput_gbps;
            let storm = cell(&cells, proto, "pause-storm").goodput_gbps;
            assert!(
                storm < base * 0.9,
                "{proto} pause-storm {storm:.2} vs baseline {base:.2}"
            );
        }
    }

    #[test]
    fn delay_spike_depresses_timely_startup() {
        let cfg = ExtFaultsConfig {
            collapse_duration_s: 0.2,
            ..Default::default()
        };
        let panels = run_collapse(&cfg);
        let (clean, spiked) = (&panels[0], &panels[1]);
        assert_eq!(clean.faults_injected, 0);
        assert!(spiked.faults_injected > 0, "spike window must engage");
        // Inflated startup RTTs read as severe congestion: the early
        // window collapses below the already-bursty clean 64 KB run.
        assert!(
            spiked.early_agg_gbps < clean.early_agg_gbps,
            "spiked early {:.2} vs clean early {:.2}",
            spiked.early_agg_gbps,
            clean.early_agg_gbps
        );
    }

    #[test]
    fn watchdog_sweep_records_divergence_and_finishes_remaining_points() {
        let points = run_watchdog_sweep(&[-1.0, 4000.0, 0.5], 1.5);
        assert_eq!(points.len(), 3, "every point gets a verdict");
        assert!(points[0].ok, "stable gain: {}", points[0].detail);
        assert!(
            points[2].ok,
            "slow growth stays finite: {}",
            points[2].detail
        );
        assert!(!points[1].ok, "gain 4000/s must diverge");
        assert!(
            points[1].detail.contains("diverg"),
            "structured divergence error, got: {}",
            points[1].detail
        );
    }
}

crate::impl_to_json!(ExtFaultsConfig {
    n_flows,
    bandwidth_bps,
    matrix_duration_s,
    collapse_duration_s,
    seed,
    watchdog_gains,
    watchdog_t1_s
});
crate::impl_to_json!(FaultMatrixCell {
    protocol,
    profile,
    goodput_gbps,
    cnps_sent,
    fault_drops,
    fault_pauses,
    faults_injected
});
crate::impl_to_json!(CollapsePanel {
    label,
    early_agg_gbps,
    tail_agg_gbps,
    faults_injected
});
crate::impl_to_json!(WatchdogPoint {
    gain_per_s,
    ok,
    detail
});
crate::impl_to_json!(ExtFaultsResult {
    cells,
    failed_cells,
    collapse,
    watchdog
});
