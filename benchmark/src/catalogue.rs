//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and — for per-layer metrics — the end-to-end metric and workload
//! it is predicted to move. `BENCHMARK.json` at the repository root lists the
//! same names; [`validate_manifest`] holds the two together.

use store::json::Value;

/// How long one run measures, in seconds (`run_seconds` of the manifest and
/// the default of `--seconds`): as long as the driver's cap on all its runs
/// allows with four gated workloads and their repeated set-ups. The box's
/// slow states last up to half a minute, so a shorter run can sit wholly
/// inside one (README, "Noise").
pub const RUN_SECONDS: u64 = 22;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// All end-to-end metrics are "lower is better". The time bounds are the
/// widest the contract allows: the shared 2-core reference box has hours in
/// which ten 10-second runs of the same code spread by 0.3 (see README,
/// "Noise"), so a tighter bound would flag the machine, not the code.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "pass_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        // Repeats within 0.03, but a few small allocations that stay live
        // across a pass can stop a large buffer growing in place: the digest
        // pins of seeds 1 and 2 alone add 9 % on `fluid_dde`.
        bound: 0.15,
    },
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// How many times a run repeats its set-up to report the median: three,
    /// but one on `figset_paper`, where three would take the run past its
    /// share of the driver's time cap. Set-up passes are samples of `pass_s`
    /// like any other, so the repeats cost no measuring time.
    pub setup_reps: usize,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds it to the
    /// bounds. The driver's time cap pays for four workloads at
    /// [`RUN_SECONDS`]; the other two run by hand and under `--all`.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "figset_paper",
        why: "regenerates all 24 paper-scale artifacts on min(nproc,4) threads: the end-to-end figure-set time, set by the slowest artifact",
        setup_reps: 1,
        gated: true,
    },
    Workload {
        name: "fluid_dde",
        why: "fluid+models only: batched DCQCN lanes beside the scalar TIMELY / patched / DCQCN+PI integrators, no packet or control work",
        setup_reps: 3,
        gated: true,
    },
    Workload {
        name: "margin_grid",
        why: "control+models only: 27k phase-margin points with Jacobian-cache hits and misses, plus fixed points; invisible in figset_paper",
        setup_reps: 3,
        gated: false,
    },
    Workload {
        name: "packet_longflow",
        why: "netsim per-packet handlers with 10-64 long-lived flows and a tiny event population; bypasses event-queue scale and flow set-up",
        setup_reps: 3,
        gated: true,
    },
    Workload {
        name: "packet_churn",
        why: "the same netsim/desim code at scale: 1024-4096 incast flows on a k=8 fat-tree and web-search flow churn on a dumbbell",
        setup_reps: 3,
        gated: true,
    },
    Workload {
        name: "store_warm",
        why: "store canon/hash/frame/fsync-IO only: record then serve 9 real artifacts (1 KB-3.6 MB), writes beside reads, no simulation",
        setup_reps: 3,
        gated: false,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// `(end-to-end metric, workload)` this metric should move; `None` for
    /// guards and canaries that predict nothing.
    pub moves: Option<(&'static str, &'static str)>,
}

/// The 24 experiment ids of `ecn_delay_core::experiments`, in figure order.
pub const FIGURES: [&str; 24] = [
    "eq14",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "ext_pi_packet",
    "ext_parking_lot",
    "ext_pfc",
    "ext_faults",
    "ext_incast",
    "appendix_b",
];

/// The four long-lived and seven churn cells of the packet workloads.
pub const LONGFLOW_CELLS: [&str; 4] = [
    "long_dcqcn_n10",
    "long_dcqcn_n64",
    "long_timely_n10",
    "long_patched_n10",
];
pub const CHURN_CELLS: [&str; 7] = [
    "incast_dcqcn_n1024",
    "incast_dcqcn_n4096",
    "incast_timely_n1024",
    "incast_patched_n4096",
    "fct_dcqcn",
    "fct_timely",
    "fct_patched",
];

pub fn per_layer() -> Vec<PerLayer> {
    const PASS: &str = "pass_s";
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, moves| {
        out.push(PerLayer {
            name,
            unit,
            better,
            moves,
        })
    };
    let lower = "lower";
    let higher = "higher";

    for id in FIGURES {
        add(
            format!("core.run_s.{id}"),
            "s",
            lower,
            Some((PASS, "figset_paper")),
        );
    }
    add(
        "core.json_render_s".into(),
        "s",
        lower,
        Some((PASS, "figset_paper")),
    );
    add(
        "core.json_mb".into(),
        "MB",
        lower,
        Some((PASS, "figset_paper")),
    );
    add(
        "core.scenario_build_s".into(),
        "s",
        lower,
        Some((PASS, "packet_churn")),
    );

    for model in ["dcqcn", "timely", "patched_timely", "dcqcn_pi"] {
        add(
            format!("models.run_s.{model}"),
            "s",
            lower,
            Some((PASS, "fluid_dde")),
        );
    }
    add(
        "models.fixed_point_s".into(),
        "s",
        lower,
        Some((PASS, "margin_grid")),
    );

    let fluid = Some((PASS, "fluid_dde"));
    add("fluid.steps".into(), "count", lower, fluid);
    add("fluid.steps_per_s".into(), "1/s", higher, fluid);
    add("fluid.integrate_s".into(), "s", lower, fluid);
    add("fluid.locate_s".into(), "s", lower, fluid);
    add("fluid.compact_s".into(), "s", lower, fluid);
    add("fluid.history_compactions".into(), "count", lower, fluid);
    add("fluid.watchdog_trips".into(), "count", lower, None);

    let control = Some((PASS, "margin_grid"));
    add("control.points".into(), "count", lower, control);
    add("control.points_per_s".into(), "1/s", higher, control);
    for grid in ["delay_grid", "gain_grid", "fig11_dense"] {
        add(format!("control.run_s.{grid}"), "s", lower, control);
    }

    let long = Some((PASS, "packet_longflow"));
    let churn = Some((PASS, "packet_churn"));
    add("netsim.run_s".into(), "s", lower, long);
    add("netsim.events".into(), "count", lower, long);
    add("netsim.events_per_s".into(), "1/s", higher, long);
    for cell in LONGFLOW_CELLS {
        add(format!("netsim.ns_per_event.{cell}"), "ns", lower, long);
    }
    for cell in CHURN_CELLS {
        add(format!("netsim.ns_per_event.{cell}"), "ns", lower, churn);
    }
    add("netsim.data_packets".into(), "count", lower, None);
    add("netsim.event_dispatch_s".into(), "s", lower, long);
    add("netsim.ecn_marks".into(), "count", lower, None);
    add("netsim.cnps_sent".into(), "count", lower, None);
    add("netsim.rate_updates".into(), "count", lower, None);
    add("netsim.flows_completed".into(), "count", higher, None);
    add("netsim.topology_build_s".into(), "s", lower, churn);

    add("desim.events_scheduled".into(), "count", lower, churn);
    add("desim.events_popped".into(), "count", lower, churn);
    add("desim.events_cancelled".into(), "count", lower, churn);
    add("desim.wheel_cascades".into(), "count", lower, churn);
    add("desim.cancel_ratio".into(), "ratio", lower, churn);
    let par = Some((PASS, "figset_paper"));
    add("desim.par_efficiency".into(), "ratio", higher, par);
    add("desim.par_tail_s".into(), "s", lower, par);

    // Exact-repeat guards: a simulator speed-up must leave them identical.
    for name in [
        "protocols.dcqcn_cuts",
        "protocols.dcqcn_increases",
        "protocols.timely_gradient_samples",
        "protocols.patched_timely_gradient_samples",
    ] {
        add(name.into(), "count", lower, None);
    }

    add("workload.generate_s".into(), "s", lower, churn);
    add("workload.flows".into(), "count", lower, None);

    let store = Some((PASS, "store_warm"));
    add("store.key_s".into(), "s", lower, store);
    add("store.record_s".into(), "s", lower, store);
    add("store.serve_s".into(), "s", lower, store);
    add("store.write_atomic_s".into(), "s", lower, store);
    add("store.mb".into(), "MB", lower, store);
    add("store.serve_mb_per_s".into(), "MB/s", higher, store);
    add("store.hits".into(), "count", higher, None);
    add("store.misses".into(), "count", lower, None);
    add("store.writes".into(), "count", lower, None);
    add("store.corrupt".into(), "count", lower, None);
    add("store.hit_ratio".into(), "ratio", higher, None);

    // How far to trust the per-layer times, and the noise canaries.
    add("obs.trace_overhead_ratio".into(), "ratio", lower, None);
    add("host.calib_s".into(), "s", lower, None);
    add("host.cpu_s".into(), "s", lower, None);
    add("host.runqueue_wait_s".into(), "s", lower, None);
    out
}

/// A metric, workload or unit name the contract accepts.
pub fn valid_name(name: &str, max_len: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max_len
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// Check `BENCHMARK.json` against the contract's limits and against this
/// catalogue. Returns every problem found; empty means valid.
pub fn validate_manifest(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let list = |key: &str| doc.get(key).and_then(Value::items).unwrap_or(&[]);
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut check_names = |kind: &str, items: &[Value], errs: &mut Vec<String>| {
        for item in items {
            let name = name_of(item);
            if !valid_name(&name, 64, "_.-") {
                errs.push(format!("{kind}: invalid name {name:?}"));
            }
            if !seen.insert(name.clone()) {
                errs.push(format!("{kind}: name {name:?} used twice"));
            }
        }
    };

    if doc.get("run_seconds").and_then(Value::as_u64) != Some(RUN_SECONDS) {
        errs.push(format!(
            "run_seconds differs from the catalogue's {RUN_SECONDS}"
        ));
    }
    let workloads = list("workloads");
    if !(2..=8).contains(&workloads.len()) {
        errs.push(format!("{} workloads, need 2..=8", workloads.len()));
    }
    check_names("workloads", workloads, &mut errs);
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    let expect: Vec<&str> = gated.iter().map(|w| w.name).collect();
    let got: Vec<String> = workloads.iter().map(name_of).collect();
    if got != expect {
        errs.push(format!(
            "workloads {got:?} differ from the catalogue's gated {expect:?}"
        ));
    }
    for (w, want) in workloads.iter().zip(gated) {
        let why = w.get("why").and_then(Value::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errs.push(format!(
                "workload {:?}: why must be one line of 1..=200 chars",
                name_of(w)
            ));
        }
        if why != want.why {
            errs.push(format!(
                "workload {:?}: why differs from the catalogue",
                name_of(w)
            ));
        }
    }

    let e2e = list("end_to_end");
    if !(1..=16).contains(&e2e.len()) {
        errs.push(format!("{} end-to-end metrics, need 1..=16", e2e.len()));
    }
    check_names("end_to_end", e2e, &mut errs);
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let better = m.get("better").and_then(Value::as_str).unwrap_or("");
        if name_of(m) != want.name || unit != want.unit || better != "lower" {
            errs.push(format!(
                "end_to_end {:?} differs from the catalogue",
                name_of(m)
            ));
        }
        // simlint-style exactness is intended: the manifest copies the constant.
        if !(bound > 0.0 && bound <= 0.25) || (bound - want.bound).abs() > 1e-12 {
            errs.push(format!(
                "end_to_end {:?}: bound {bound} (catalogue {})",
                name_of(m),
                want.bound
            ));
        }
    }
    if e2e.len() != END_TO_END.len() {
        errs.push("end_to_end list length differs from the catalogue".to_string());
    }
    if !e2e.iter().any(|m| name_of(m) == "setup_s") {
        errs.push("end_to_end lacks setup_s".to_string());
    }

    let layers = list("per_layer");
    if !(1..=128).contains(&layers.len()) {
        errs.push(format!("{} per-layer metrics, need 1..=128", layers.len()));
    }
    check_names("per_layer", layers, &mut errs);
    let catalogue = per_layer();
    if layers.len() != catalogue.len() {
        errs.push(format!(
            "{} per-layer metrics in the manifest, {} in the catalogue",
            layers.len(),
            catalogue.len()
        ));
    }
    for (m, want) in layers.iter().zip(&catalogue) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let better = m.get("better").and_then(Value::as_str).unwrap_or("");
        if name_of(m) != want.name || unit != want.unit || better != want.better {
            errs.push(format!(
                "per_layer {:?} ({unit}, {better}) differs from the catalogue's {:?} ({}, {})",
                name_of(m),
                want.name,
                want.unit,
                want.better
            ));
        }
        if !valid_name(unit, 16, "_/%.-") {
            errs.push(format!("per_layer {:?}: invalid unit {unit:?}", name_of(m)));
        }
    }
    for m in &catalogue {
        if let Some((metric, workload)) = m.moves {
            if !END_TO_END.iter().any(|e| e.name == metric)
                || !WORKLOADS.iter().any(|w| w.name == workload)
            {
                errs.push(format!(
                    "{}: moves names unknown {metric} on {workload}",
                    m.name
                ));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("netsim.ns_per_event.fct_dcqcn", 64, "_.-"));
        assert!(valid_name("1/s", 16, "_/%.-"));
        assert!(!valid_name("", 64, "_.-"));
        assert!(!valid_name(".hidden", 64, "_.-"));
        assert!(!valid_name("has space", 64, "_.-"));
        assert!(!valid_name("a/b", 64, "_.-"));
        assert!(!valid_name(&"x".repeat(65), 64, "_.-"));
    }

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for n in names {
            assert!(valid_name(n, 64, "_.-"), "{n}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn checked_in_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = store::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(validate_manifest(&doc), Vec::<String>::new());
    }

    #[test]
    fn manifest_validation_names_what_is_wrong() {
        let doc = store::json::parse(
            r#"{"workloads": [{"name": "only one", "why": "x"}],
                "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.5}],
                "per_layer": []}"#,
        )
        .expect("parses");
        let errs = validate_manifest(&doc).join("\n");
        for needle in [
            "need 2..=8",
            "invalid name",
            "bound 0.5",
            "lacks setup_s",
            "need 1..=128",
        ] {
            assert!(errs.contains(needle), "missing {needle:?} in:\n{errs}");
        }
    }
}
