//! Per-layer metrics of one traced pass: the benchmark's own spans, the
//! crates' `obs::metrics` counters and `obs::span` phase totals (switched on
//! through their public `enable()`), and the store's counters. Every name of
//! the catalogue gets a value on every workload; a layer the workload
//! bypasses reads 0, which is the prediction.

use std::collections::BTreeMap;

use crate::span::{self_times_ns, Span};

pub struct PassReadings<'a> {
    /// The spans of this pass only.
    pub spans: &'a [Span],
    /// `obs::span::drain()` taken right after the pass.
    pub phases: Vec<(obs::Phase, u64, u64)>,
    /// Store counter increments over the pass.
    pub store: store::Counters,
    pub wall_s: f64,
    pub threads: usize,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The pass's metrics by catalogue name, plus `info.self_share.<layer>`: the
/// share of all recorded self time spent in each layer's spans.
pub fn pass_metrics(r: &PassReadings) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = crate::catalogue::per_layer()
        .into_iter()
        .map(|p| (p.name, 0.0))
        .collect();
    let named = |name: &'static str| r.spans.iter().filter(move |s| s.name == name);
    let time = |name| named(name).map(Span::dur_s).sum::<f64>();
    let count = |name, key| named(name).map(|s| s.count_of(key)).sum::<u64>() as f64;
    let counter = |name| obs::metrics::counter_value(name) as f64;
    let phase_s = |p: obs::Phase| {
        r.phases
            .iter()
            .find(|(q, _, _)| *q == p)
            .map_or(0.0, |&(_, _, ns)| ns as f64 / 1e9)
    };
    const MB: f64 = 1e6;

    for (name, prefix) in [
        ("core.run", "core.run_s"),
        ("models.run", "models.run_s"),
        ("control.run", "control.run_s"),
    ] {
        for s in named(name) {
            m.insert(format!("{prefix}.{}", s.detail), s.dur_s());
        }
    }
    m.insert("core.json_render_s".into(), time("core.json_render"));
    m.insert(
        "core.json_mb".into(),
        count("core.json_render", "bytes") / MB,
    );
    m.insert("core.scenario_build_s".into(), time("core.scenario_build"));
    m.insert("models.fixed_point_s".into(), time("models.fixed_point"));

    let steps = counter("fluid.dde_steps");
    let integrate_s = phase_s(obs::Phase::Integrate);
    m.insert("fluid.steps".into(), steps);
    m.insert("fluid.steps_per_s".into(), ratio(steps, integrate_s));
    m.insert("fluid.integrate_s".into(), integrate_s);
    m.insert("fluid.locate_s".into(), phase_s(obs::Phase::Locate));
    m.insert("fluid.compact_s".into(), phase_s(obs::Phase::Compact));
    m.insert(
        "fluid.history_compactions".into(),
        counter("fluid.history_compactions"),
    );
    m.insert(
        "fluid.watchdog_trips".into(),
        counter("fluid.watchdog_trips"),
    );

    let points = count("control.run", "points");
    m.insert("control.points".into(), points);
    m.insert(
        "control.points_per_s".into(),
        ratio(points, time("control.run")),
    );

    let (events, run_s) = (count("netsim.run", "events"), time("netsim.run"));
    m.insert("netsim.run_s".into(), run_s);
    m.insert("netsim.events".into(), events);
    m.insert("netsim.events_per_s".into(), ratio(events, run_s));
    for s in named("netsim.run") {
        m.insert(
            format!("netsim.ns_per_event.{}", s.detail),
            ratio(s.dur_s() * 1e9, s.count_of("events") as f64),
        );
    }
    m.insert(
        "netsim.data_packets".into(),
        count("netsim.run", "data_packets"),
    );
    m.insert(
        "netsim.flows_completed".into(),
        count("netsim.run", "flows_completed"),
    );
    m.insert(
        "netsim.event_dispatch_s".into(),
        phase_s(obs::Phase::EventDispatch),
    );
    m.insert(
        "netsim.topology_build_s".into(),
        time("netsim.topology_build"),
    );
    for name in [
        "netsim.ecn_marks",
        "netsim.cnps_sent",
        "netsim.rate_updates",
    ] {
        m.insert(name.into(), counter(name));
    }

    let scheduled = counter("desim.events_scheduled");
    let cancelled = counter("desim.events_cancelled");
    m.insert("desim.events_scheduled".into(), scheduled);
    m.insert("desim.events_popped".into(), counter("desim.events_popped"));
    m.insert("desim.events_cancelled".into(), cancelled);
    m.insert(
        "desim.wheel_cascades".into(),
        counter("desim.wheel_cascades"),
    );
    m.insert("desim.cancel_ratio".into(), ratio(cancelled, scheduled));
    // Work the pool did over the work it could have done; the tail is the
    // wall time lost to threads idling behind the slowest artifact.
    let busy_s = time("artifact");
    let threads = r.threads as f64;
    m.insert(
        "desim.par_efficiency".into(),
        ratio(busy_s, threads * r.wall_s),
    );
    m.insert(
        "desim.par_tail_s".into(),
        if busy_s > 0.0 {
            (r.wall_s - busy_s / threads).max(0.0)
        } else {
            0.0
        },
    );

    for (metric, name) in [
        ("protocols.dcqcn_cuts", "dcqcn.cuts"),
        ("protocols.dcqcn_increases", "dcqcn.increases"),
        (
            "protocols.timely_gradient_samples",
            "timely.gradient_samples",
        ),
        (
            "protocols.patched_timely_gradient_samples",
            "patched_timely.gradient_samples",
        ),
    ] {
        m.insert(metric.into(), counter(name));
    }

    m.insert("workload.generate_s".into(), time("workload.generate"));
    m.insert("workload.flows".into(), count("workload.generate", "flows"));

    let serve_s = time("store.serve");
    m.insert("store.key_s".into(), time("store.key"));
    m.insert("store.record_s".into(), time("store.record"));
    m.insert("store.serve_s".into(), serve_s);
    m.insert("store.write_atomic_s".into(), time("store.write_atomic"));
    m.insert("store.mb".into(), count("store.record", "bytes") / MB);
    m.insert(
        "store.serve_mb_per_s".into(),
        ratio(count("store.serve", "hit_bytes") / MB, serve_s),
    );
    let (hits, misses) = (r.store.hits as f64, r.store.misses as f64);
    m.insert("store.hits".into(), hits);
    m.insert("store.misses".into(), misses);
    m.insert("store.writes".into(), r.store.writes as f64);
    m.insert("store.corrupt".into(), r.store.corrupt as f64);
    m.insert("store.hit_ratio".into(), ratio(hits, hits + misses));

    let self_ns = self_times_ns(r.spans);
    let total: u64 = self_ns.iter().sum();
    for (s, ns) in r.spans.iter().zip(&self_ns) {
        *m.entry(format!("info.self_share.{}", s.layer))
            .or_insert(0.0) += ratio(*ns as f64, total as f64);
    }
    // An empty f64 sum is -0.0; report plain zero.
    m.values_mut().for_each(|v| *v += 0.0);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        detail: &str,
        ns: (u64, u64),
    ) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            layer,
            name,
            detail: detail.to_string(),
            start_ns: ns.0,
            end_ns: ns.1,
            counts: Vec::new(),
        }
    }

    #[test]
    fn every_catalogue_name_gets_a_value_and_spans_land_on_their_metric() {
        let mut run = span(3, 2, "netsim", "netsim.run", "long_dcqcn_n10", (100, 900));
        run.counts = vec![("events", 8), ("data_packets", 5)];
        let spans = [
            span(1, 0, "bench", "pass", "", (0, 1000)),
            span(2, 1, "bench", "artifact", "long_dcqcn_n10", (0, 1000)),
            run,
        ];
        let m = pass_metrics(&PassReadings {
            spans: &spans,
            phases: vec![(obs::Phase::EventDispatch, 8, 600)],
            store: store::Counters::default(),
            wall_s: 1000e-9,
            threads: 1,
        });
        for p in crate::catalogue::per_layer() {
            assert!(m.contains_key(&p.name), "{} has no value", p.name);
        }
        assert_eq!(m["netsim.events"], 8.0);
        assert_eq!(m["netsim.ns_per_event.long_dcqcn_n10"], 100.0);
        assert_eq!(m["netsim.ns_per_event.fct_dcqcn"], 0.0);
        assert!((m["netsim.event_dispatch_s"] - 600e-9).abs() < 1e-15);
        assert!((m["desim.par_efficiency"] - 1.0).abs() < 1e-12);
        assert!((m["info.self_share.netsim"] - 0.8).abs() < 1e-12);
        assert!((m["info.self_share.bench"] - 0.2).abs() < 1e-12);
    }
}
