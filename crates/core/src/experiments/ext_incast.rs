//! Extension: datacenter-scale incast FCT on fat-tree topologies.
//!
//! The paper's FCT study (Figures 13–14) runs ten senders over a dumbbell;
//! its *claims*, though, are about datacenter transport at scale. This
//! experiment rebuilds the study at rack/pod scale: a k-ary fat-tree with
//! ECMP multipath, an N:1 incast burst aimed at one host, and the FCT
//! distribution of the responses as N sweeps past a thousand concurrent
//! flows. The sweep doubles as the engine's scaling probe — each cell
//! reports the events the run dispatched, the numerator of the events/sec
//! rows the bench suite records.
//!
//! Two determinism hooks back the tests:
//!
//! * every cell carries a 64-bit digest folded over the exact FCT bit
//!   patterns, so `SIM_THREADS=1` vs `4` runs can be compared byte for
//!   byte from stdout alone;
//! * [`run_zero_fault_identity`] re-runs a cell with `faults: None` vs an
//!   installed *empty* schedule and compares digests — the fault plane must
//!   be bit-invisible when it has nothing to inject.

use crate::scenarios::{fat_tree_incast, Protocol};
use desim::{SimDuration, SimTime};
use faults::FaultSchedule;
use netsim::{EngineConfig, SimReport};
use workload::IncastConfig;

/// Configuration.
#[derive(Debug, Clone)]
pub struct ExtIncastConfig {
    /// Fat-tree arity (k pods, k³/4 hosts).
    pub k: usize,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Incast fan-in degrees to sweep.
    pub sender_counts: Vec<usize>,
    /// Response size per sender (bytes).
    pub bytes_per_sender: u64,
    /// Link bandwidth (bit/s), uniform across the fabric.
    pub bandwidth_bps: f64,
    /// Request-fanout skew window (seconds).
    pub stagger_s: f64,
    /// Seed for the burst generator and the engine's marking RNG.
    pub seed: u64,
}

impl Default for ExtIncastConfig {
    fn default() -> Self {
        ExtIncastConfig {
            k: 8,
            protocols: vec![Protocol::Dcqcn, Protocol::PatchedTimely],
            sender_counts: vec![64, 256, 1024],
            bytes_per_sender: 32_000,
            bandwidth_bps: 10e9,
            stagger_s: 10e-6,
            seed: 1,
        }
    }
}

/// One `(protocol, fan-in)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct IncastCell {
    /// Protocol label.
    pub protocol: String,
    /// Fan-in degree (flows aimed at the receiver).
    pub n_senders: usize,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// Median FCT (ms).
    pub median_fct_ms: f64,
    /// 99th-percentile FCT (ms).
    pub p99_fct_ms: f64,
    /// Receiver goodput over the burst makespan (Gbps).
    pub goodput_gbps: f64,
    /// Events the run's event loop dispatched.
    pub events_processed: u64,
    /// Wall-clock the engine run took (milliseconds). Machine-dependent by
    /// nature: persisted to `results/ext_incast.json` as a scaling probe
    /// next to `events_processed`, but excluded from stdout tables, digests
    /// and every byte-identity comparison.
    pub wall_ms: f64,
    /// Simulated horizon actually used (seconds).
    pub horizon_s: f64,
    /// Order-independent digest of the exact FCT bit patterns plus the
    /// run's counter block; equal digests ⇒ bit-identical runs.
    pub digest: String,
}

/// Result.
#[derive(Debug, Clone)]
pub struct ExtIncastResult {
    /// Sweep cells, protocol-major, fan-in ascending.
    pub cells: Vec<IncastCell>,
    /// Cells whose runs panicked, in sweep order. Empty when every cell
    /// completed.
    pub failed: Vec<FailedCell>,
}

/// One failed `(protocol, fan-in)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// Protocol label.
    pub protocol: String,
    /// Fan-in degree.
    pub n_senders: usize,
    /// Machine-readable error class (`faults::SimError::kind`).
    pub kind: String,
    /// Human-readable error.
    pub error: String,
}

/// Fold a run's externally visible outcome into a 64-bit FNV-1a digest:
/// every completed flow's `(index, size, start, fct)` with the floats taken
/// bit-exactly, then the counter block (marks, CNPs, drops, events). Two
/// runs digest equally iff the engine made identical decisions.
pub fn report_digest(report: &SimReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &report.fcts {
        eat(r.flow as u64);
        eat(r.size_bytes);
        eat(r.start_s.to_bits());
        eat(r.fct_s.to_bits());
    }
    eat(report.marked_packets);
    eat(report.cnps_sent);
    eat(report.data_packets);
    eat(report.fault_drops);
    eat(report.faults_injected);
    eat(report.events_processed);
    format!("{h:016x}")
}

/// Horizon heuristic: the ideal fan-in makespan (all responses serialized
/// through the last hop) times a generous congestion-control slack, plus a
/// fixed tail for stragglers.
fn horizon_s(cfg: &ExtIncastConfig, n_senders: usize) -> f64 {
    let ideal = n_senders as f64 * cfg.bytes_per_sender as f64 * 8.0 / cfg.bandwidth_bps;
    ideal * 8.0 + cfg.stagger_s + 5e-3
}

fn engine_config(cfg: &ExtIncastConfig) -> EngineConfig {
    let mut ecfg = EngineConfig::default();
    ecfg.seed = cfg.seed;
    ecfg.rate_trace_window = None; // a thousand flows; rate traces are noise
    ecfg
}

/// Run one `(protocol, fan-in)` cell.
pub fn run_cell(cfg: &ExtIncastConfig, protocol: Protocol, n_senders: usize) -> IncastCell {
    let incast = IncastConfig {
        n_senders,
        bytes_per_sender: cfg.bytes_per_sender,
        start_s: 0.0,
        stagger_s: cfg.stagger_s,
        seed: cfg.seed,
    };
    let horizon = horizon_s(cfg, n_senders);
    let (mut eng, _bottleneck) = fat_tree_incast(
        protocol,
        cfg.k,
        &incast,
        cfg.bandwidth_bps,
        SimDuration::from_micros(1),
        engine_config(cfg),
    );
    let sw = obs::span::Stopwatch::start();
    let report = eng.run(SimTime::from_secs_f64(horizon));
    let wall_ms = sw.elapsed_ms();
    cell_from_report(protocol, n_senders, horizon, wall_ms, &report)
}

fn cell_from_report(
    protocol: Protocol,
    n_senders: usize,
    horizon: f64,
    wall_ms: f64,
    report: &SimReport,
) -> IncastCell {
    let mut fcts: Vec<f64> = report.fcts.iter().map(|r| r.fct_s).collect();
    fcts.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if fcts.is_empty() {
            f64::NAN
        } else {
            fcts[((fcts.len() - 1) as f64 * p).round() as usize] * 1e3
        }
    };
    let makespan = report
        .fcts
        .iter()
        .map(|r| r.start_s + r.fct_s)
        .fold(0.0, f64::max);
    let delivered: u64 = report.delivered_bytes.iter().sum();
    IncastCell {
        protocol: protocol.label().to_string(),
        n_senders,
        completed: report.fcts.len(),
        median_fct_ms: pct(0.5),
        p99_fct_ms: pct(0.99),
        goodput_gbps: if makespan > 0.0 {
            delivered as f64 * 8.0 / makespan / 1e9
        } else {
            0.0
        },
        events_processed: report.events_processed,
        wall_ms,
        horizon_s: horizon,
        digest: report_digest(report),
    }
}

/// Run the full sweep: [`run_sweep`] with no store and no injected panic.
pub fn run(cfg: &ExtIncastConfig) -> ExtIncastResult {
    run_sweep(cfg, None, None)
}

/// The content-addressed spec of one sweep cell — everything that affects
/// the cell's bytes, and nothing that doesn't (the injection hook
/// deliberately excluded).
#[derive(Debug, Clone)]
struct CellSpec {
    protocol: String,
    n_senders: usize,
    k: usize,
    bytes_per_sender: u64,
    bandwidth_bps: f64,
    stagger_s: f64,
    seed: u64,
}

/// Store experiment id for per-cell records.
const CELL_EXPERIMENT: &str = "ext_incast/cell";

fn cell_spec_json(cfg: &ExtIncastConfig, protocol: Protocol, n_senders: usize) -> String {
    use crate::json::ToJson as _;
    CellSpec {
        protocol: protocol.label().to_string(),
        n_senders,
        k: cfg.k,
        bytes_per_sender: cfg.bytes_per_sender,
        bandwidth_bps: cfg.bandwidth_bps,
        stagger_s: cfg.stagger_s,
        seed: cfg.seed,
    }
    .to_json()
    .render_pretty()
}

/// Parse a stored cell record back. `None` means the record does not match
/// the current schema (treated as a miss and recomputed, never an error).
fn cell_from_stored_json(text: &str) -> Option<IncastCell> {
    let v = obs::json::parse(text).ok()?;
    Some(IncastCell {
        protocol: v.get("protocol")?.as_str()?.to_string(),
        n_senders: usize::try_from(v.get("n_senders")?.as_u64()?).ok()?,
        completed: usize::try_from(v.get("completed")?.as_u64()?).ok()?,
        median_fct_ms: v.get("median_fct_ms")?.as_f64()?,
        p99_fct_ms: v.get("p99_fct_ms")?.as_f64()?,
        goodput_gbps: v.get("goodput_gbps")?.as_f64()?,
        events_processed: v.get("events_processed")?.as_u64()?,
        wall_ms: v.get("wall_ms")?.as_f64()?,
        horizon_s: v.get("horizon_s")?.as_f64()?,
        digest: v.get("digest")?.as_str()?.to_string(),
    })
}

/// Render a panic payload as the message `panic!` carried.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the sweep, optionally backed by a content-addressed result store.
///
/// Per cell: compute the spec key from `(experiment id, canonical config)`;
/// a valid stored record is served as a hit (bit-identical to a fresh
/// compute — the simulation is deterministic and floats round-trip through
/// the JSON layer exactly). The misses run through [`desim::par::par_map`],
/// each under `catch_unwind`, so a panicking cell lands in
/// [`ExtIncastResult::failed`] as [`faults::SimError::JobPanicked`] naming
/// its sweep index, while its batchmates complete and are persisted. A
/// failed cell leaves a quarantine note (the structured `SimError` JSON)
/// next to the store rather than a result record, so a rerun retries it.
/// `inject_panic` is a testing hook: sweep cell `i` panics instead of
/// simulating.
pub fn run_sweep(
    cfg: &ExtIncastConfig,
    store: Option<&store::Store>,
    inject_panic: Option<usize>,
) -> ExtIncastResult {
    use faults::SimError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut jobs = Vec::new();
    for &proto in &cfg.protocols {
        for &n in &cfg.sender_counts {
            jobs.push((proto, n));
        }
    }

    // Serve hits first. A record that unframes but no longer matches the
    // cell schema (or names a different cell) is treated as a miss.
    let mut served: Vec<Option<IncastCell>> = vec![None; jobs.len()];
    let mut keys: Vec<Option<store::SpecKey>> = vec![None; jobs.len()];
    if let Some(st) = store {
        for (i, &(proto, n)) in jobs.iter().enumerate() {
            let spec = cell_spec_json(cfg, proto, n);
            let Ok(key) = store::spec_key(CELL_EXPERIMENT, &spec) else {
                continue;
            };
            keys[i] = Some(key);
            served[i] = st
                .get(&key)
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|text| cell_from_stored_json(&text))
                .filter(|c| c.protocol == proto.label() && c.n_senders == n);
        }
    }

    // Run the misses. Each carries its sweep index, so the injection hook
    // and a failed cell's record name sweep cells, not positions among the
    // misses.
    let misses: Vec<(usize, Protocol, usize)> = jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| served[*i].is_none())
        .map(|(i, &(proto, n))| (i, proto, n))
        .collect();
    let outcomes = desim::par::par_map(misses.clone(), |(idx, proto, n)| {
        catch_unwind(AssertUnwindSafe(|| {
            if inject_panic == Some(idx) {
                panic!("injected panic in cell {idx}");
            }
            run_cell(cfg, proto, n)
        }))
        .map_err(|payload| SimError::job_panicked(idx, panic_message(payload)))
    });

    // Persist, and split successes from failures in sweep order.
    let mut failed = Vec::new();
    for ((idx, proto, n), outcome) in misses.into_iter().zip(outcomes) {
        match outcome {
            Ok(cell) => {
                if let (Some(st), Some(key)) = (store, keys[idx]) {
                    use crate::json::ToJson as _;
                    let _ = st.put(&key, cell.to_json().render_pretty().as_bytes());
                }
                served[idx] = Some(cell);
            }
            Err(e) => {
                if let (Some(st), Some(key)) = (store, keys[idx]) {
                    let _ = st.put_quarantine_note(&key, &e.to_json());
                }
                failed.push(FailedCell {
                    protocol: proto.label().to_string(),
                    n_senders: n,
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                });
            }
        }
    }
    ExtIncastResult {
        cells: served.into_iter().flatten().collect(),
        failed,
    }
}

/// The zero-fault bit-identity probe: run one cell with `faults: None` and
/// once more with an installed but *empty* `FaultSchedule`, returning both
/// digests. They must be equal — an idle fault plane may not perturb the
/// simulation in any observable way.
pub fn run_zero_fault_identity(cfg: &ExtIncastConfig, n_senders: usize) -> (String, String) {
    let incast = IncastConfig {
        n_senders,
        bytes_per_sender: cfg.bytes_per_sender,
        start_s: 0.0,
        stagger_s: cfg.stagger_s,
        seed: cfg.seed,
    };
    let horizon = horizon_s(cfg, n_senders);
    let run_with = |faults: Option<FaultSchedule>| -> String {
        let mut ecfg = engine_config(cfg);
        ecfg.faults = faults;
        let (mut eng, _b) = fat_tree_incast(
            Protocol::Dcqcn,
            cfg.k,
            &incast,
            cfg.bandwidth_bps,
            SimDuration::from_micros(1),
            ecfg,
        );
        report_digest(&eng.run(SimTime::from_secs_f64(horizon)))
    };
    (run_with(None), run_with(Some(FaultSchedule::new(cfg.seed))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExtIncastConfig {
        ExtIncastConfig {
            k: 4,
            protocols: vec![Protocol::Dcqcn],
            sender_counts: vec![32],
            bytes_per_sender: 16_000,
            ..Default::default()
        }
    }

    #[test]
    fn all_flows_complete_and_digest_is_stable() {
        let cfg = small();
        let a = run_cell(&cfg, Protocol::Dcqcn, 32);
        assert_eq!(a.completed, 32, "every response must finish");
        assert!(a.median_fct_ms > 0.0 && a.p99_fct_ms >= a.median_fct_ms);
        assert!(a.events_processed > 1_000, "scale probe must count events");
        let b = run_cell(&cfg, Protocol::Dcqcn, 32);
        assert_eq!(a.digest, b.digest, "same cell must digest identically");
    }

    #[test]
    fn fan_in_contention_grows_with_n() {
        let cfg = small();
        let lo = run_cell(&cfg, Protocol::Dcqcn, 8);
        let hi = run_cell(&cfg, Protocol::Dcqcn, 48);
        assert!(
            hi.p99_fct_ms > lo.p99_fct_ms,
            "48:1 p99 {:.3} ms must exceed 8:1 {:.3} ms",
            hi.p99_fct_ms,
            lo.p99_fct_ms
        );
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical() {
        let (none, empty) = run_zero_fault_identity(&small(), 24);
        assert_eq!(none, empty, "idle fault plane must be invisible");
    }

    fn tmp_store(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ext_incast_store_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn store_serves_cells_bit_identically_on_rerun() {
        use crate::json::ToJson as _;
        let root = tmp_store("hits");
        let mut cfg = small();
        cfg.sender_counts = vec![8, 16];
        let st = store::Store::open(&root).expect("open store");
        let first = run_sweep(&cfg, Some(&st), None);
        assert_eq!(st.counters().hits, 0);
        assert_eq!(first.cells.len(), 2);
        let again = run_sweep(&cfg, Some(&st), None);
        assert_eq!(st.counters().hits, 2, "rerun must be all hits");
        assert_eq!(
            first.to_json().render_pretty(),
            again.to_json().render_pretty(),
            "served cells must be byte-identical to computed ones"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_panic_isolates_to_its_cell() {
        let mut cfg = small();
        cfg.sender_counts = vec![8, 12, 16];
        let res = run_sweep(&cfg, None, Some(1));
        assert_eq!(res.cells.len(), 2, "batchmates must complete");
        assert_eq!(res.failed.len(), 1);
        assert_eq!(res.failed[0].kind, "job_panicked");
        assert_eq!(res.failed[0].n_senders, 12);
        assert!(res.failed[0].error.contains("injected panic"));
        let survivors: Vec<usize> = res.cells.iter().map(|c| c.n_senders).collect();
        assert_eq!(
            survivors,
            vec![8, 16],
            "job order preserved around the hole"
        );
    }

    /// The quarantine notes `run_sweep` left under `root`, parsed.
    fn notes(root: &std::path::Path) -> Vec<faults::SimError> {
        std::fs::read_dir(root.join("quarantine"))
            .map(|dir| {
                dir.map(|e| {
                    let text = std::fs::read_to_string(e.expect("entry").path()).expect("note");
                    faults::SimError::from_json(&text).expect("structured note")
                })
                .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn injected_panic_leaves_a_quarantine_note_and_reruns_clean() {
        let root = tmp_store("panic");
        let mut cfg = small();
        cfg.sender_counts = vec![8, 16];
        let st = store::Store::open(&root).expect("open store");
        let res = run_sweep(&cfg, Some(&st), Some(0));
        assert_eq!(res.failed.len(), 1);
        assert_eq!(res.failed[0].kind, "job_panicked");
        assert_eq!(res.cells.len(), 1);
        assert_eq!(res.cells[0].n_senders, 16);
        assert_eq!(
            notes(&root),
            [faults::SimError::job_panicked(
                0,
                "injected panic in cell 0"
            )],
            "a panic must leave a structured quarantine note"
        );
        // The failed cell has no record, so the next run computes it; its
        // batchmate is served.
        let res2 = run_sweep(&cfg, Some(&st), None);
        assert!(res2.failed.is_empty());
        assert_eq!(res2.cells.len(), 2);
        assert_eq!(st.counters().hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_cell_names_its_sweep_index_not_its_miss_position() {
        let root = tmp_store("index");
        let mut cfg = small();
        let st = store::Store::open(&root).expect("open store");
        cfg.sender_counts = vec![8, 16];
        assert!(run_sweep(&cfg, Some(&st), None).failed.is_empty());
        // Sweep cells 0 (8) and 2 (16) are served; 1 and 3 are the misses,
        // and cell 3 — the second miss — panics.
        cfg.sender_counts = vec![8, 12, 16, 20];
        let res = run_sweep(&cfg, Some(&st), Some(3));
        let want = faults::SimError::job_panicked(3, "injected panic in cell 3");
        assert_eq!(res.failed.len(), 1);
        assert_eq!(res.failed[0].n_senders, 20);
        assert_eq!(res.failed[0].error, want.to_string());
        assert_eq!(notes(&root), [want]);
        let cells: Vec<usize> = res.cells.iter().map(|c| c.n_senders).collect();
        assert_eq!(
            cells,
            [8, 12, 16],
            "served and computed cells in sweep order"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stored_cell_json_round_trips_exactly() {
        use crate::json::ToJson as _;
        let cfg = small();
        let cell = run_cell(&cfg, Protocol::Dcqcn, 8);
        let text = cell.to_json().render_pretty();
        let back = cell_from_stored_json(&text).expect("schema round-trip");
        assert_eq!(back.to_json().render_pretty(), text);
        // Schema drift reads as a miss, not an error.
        assert!(cell_from_stored_json("{\"protocol\": \"dcqcn\"}").is_none());
        assert!(cell_from_stored_json("not json").is_none());
    }

    #[test]
    fn sweep_covers_all_cells_in_order() {
        use crate::json::ToJson as _;
        let mut cfg = small();
        cfg.sender_counts = vec![8, 16];
        let res = run(&cfg);
        assert!(res.failed.is_empty());
        assert!(res.to_json().render_pretty().contains("\"failed\": []"));
        assert_eq!(res.cells.len(), 2);
        assert_eq!(
            (res.cells[0].n_senders, res.cells[1].n_senders),
            (8, 16),
            "cells keep job order regardless of SIM_THREADS"
        );
    }
}

crate::impl_to_json!(ExtIncastConfig {
    k,
    protocols,
    sender_counts,
    bytes_per_sender,
    bandwidth_bps,
    stagger_s,
    seed
});
crate::impl_to_json!(IncastCell {
    protocol,
    n_senders,
    completed,
    median_fct_ms,
    p99_fct_ms,
    goodput_gbps,
    events_processed,
    wall_ms,
    horizon_s,
    digest
});
crate::impl_to_json!(FailedCell {
    protocol,
    n_senders,
    kind,
    error
});
crate::impl_to_json!(CellSpec {
    protocol,
    n_senders,
    k,
    bytes_per_sender,
    bandwidth_bps,
    stagger_s,
    seed
});
crate::impl_to_json!(ExtIncastResult { cells, failed });
