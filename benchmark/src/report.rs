//! Turns a finished run into its outputs: the metric table on standard
//! output, the `--out` document with every sample, the `--trace-out` span
//! file, and the closing one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ecn_delay_core::json::{Json, ToJson};

use crate::span::Span;
use crate::{catalogue, host, lower_quartile, median, Opts, Pass, Verdict};

pub struct RunData<'a> {
    pub opts: &'a Opts,
    pub workload: &'a str,
    pub threads: usize,
    pub verdict: &'a Verdict,
    pub setup_samples: &'a [f64],
    pub peak_rss_mb: f64,
    pub passes: &'a [Pass],
    pub calib: &'a [f64],
    pub info: BTreeMap<String, f64>,
    pub spans: &'a [Span],
}

type Rows = Vec<(String, f64, &'static str)>;

/// `(name, value, unit)` rows in catalogue order — the end-to-end metrics of
/// an untraced run, or the per-layer metrics of a traced one — and the
/// `info.*` readings of the traced passes.
///
/// `pass_s` is what one pass costs when the box is not in a slow state: the
/// sum over the pass's units of each unit's lower-quartile wall time over the
/// run's untraced passes, set-up passes included. On `figset_paper` the units
/// overlap on the worker threads, so there it is the lower quartile of the
/// whole pass. The box alternates between a usual speed and states a third
/// slower that last up to half a minute, with a rare faster tail: the median
/// follows the slow states and the minimum the tail, the lower quartile
/// neither until three quarters of a run are slow (README, "Noise"). Every
/// sample stays in `--out`.
fn metrics(d: &RunData, untraced: &[f64]) -> (Rows, BTreeMap<String, f64>) {
    if !d.opts.trace {
        let units = unit_samples(d.passes);
        let value = |name| match name {
            "pass_s" if d.threads == 1 => units.iter().map(|(_, s)| lower_quartile(s)).sum(),
            "pass_s" => lower_quartile(untraced),
            "setup_s" => median(d.setup_samples),
            _ => d.peak_rss_mb,
        };
        let rows = catalogue::END_TO_END.iter();
        let rows = rows.map(|m| (m.name.to_string(), value(m.name), m.unit));
        return (rows.collect(), BTreeMap::new());
    }
    let traced: Vec<&Pass> = d.passes.iter().filter(|p| p.traced).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let over_traced = |name: &str| -> f64 {
        median(&traced.iter().map(|p| p.layers[name]).collect::<Vec<f64>>())
    };
    let over_all = |f: fn(&Pass) -> f64| median(&d.passes.iter().map(f).collect::<Vec<_>>());
    let rows = catalogue::per_layer().into_iter().map(|m| {
        let value = match m.name.as_str() {
            "obs.trace_overhead_ratio" => lower_quartile(&traced_walls) / lower_quartile(untraced),
            "host.calib_s" => median(d.calib),
            "host.cpu_s" => over_all(|p| p.cpu_s),
            "host.runqueue_wait_s" => over_all(|p| p.runqueue_wait_s),
            name => over_traced(name),
        };
        (m.name, value, m.unit)
    });
    let info_names = traced.first().into_iter().flat_map(|p| p.layers.keys());
    let info = info_names
        .filter(|name| name.starts_with("info."))
        .map(|name| (name.clone(), over_traced(name)))
        .collect();
    (rows.collect(), info)
}

/// `(unit, [its wall time in each untraced pass])`, units in the order they
/// ran.
fn unit_samples(passes: &[Pass]) -> Vec<(String, Vec<f64>)> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let names = untraced.first().map_or(&[][..], |p| &p.units[..]);
    let column = |i: usize| -> Vec<f64> {
        let at = untraced.iter().filter_map(|p| p.units.get(i));
        at.map(|(_, secs)| *secs).collect()
    };
    let names = names.iter().enumerate();
    names.map(|(i, (id, _))| (id.clone(), column(i))).collect()
}

pub fn report(d: &RunData) -> Result<bool, String> {
    let untraced: Vec<f64> = d
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s)
        .collect();
    let (rows, mut info) = metrics(d, &untraced);
    info.extend(d.info.clone());
    let timed_wall: f64 = d.passes.iter().map(|p| p.wall_s).sum();
    let waited: f64 = d.passes.iter().map(|p| p.runqueue_wait_s).sum();
    let noisy = host::is_noisy(d.calib, waited, timed_wall);
    let mut failures = d.verdict.failures.clone();
    for (name, value, _) in &rows {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    let correct = failures.is_empty();

    println!(
        "\nworkload {}  seed {}  threads {} of {} cores  passes {} ({} untraced, {} set-up)  noisy {noisy}",
        d.workload,
        d.opts.seed,
        d.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        d.passes.len(),
        untraced.len(),
        d.setup_samples.len(),
    );
    for (name, value, unit) in &rows {
        println!("  {name:<46} {value:>18.6} {unit}");
    }
    let (mid, hi) = (
        median(&untraced),
        untraced.iter().copied().fold(0.0, f64::max),
    );
    println!("  {:<46} {mid:>18.6} s", "info.pass_median_s");
    println!("  {:<46} {hi:>18.6} s", "info.pass_max_s");
    for (name, value) in &info {
        println!("  {name:<46} {value:>18.6}");
    }
    for f in &failures {
        println!("  FAILED {f}");
    }

    let metric_obj = |value: f64, unit: &str| {
        Json::Obj(vec![
            (
                "value".to_string(),
                Json::Num(if value.is_finite() { value } else { 0.0 }),
            ),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ])
    };
    if let Some(path) = &d.opts.out {
        let field = |k: &str, v: Json| (k.to_string(), v);
        let doc = Json::Obj(vec![
            field("workload", d.workload.to_json()),
            field("seed", d.opts.seed.to_json()),
            field("trace", d.opts.trace.to_json()),
            field("seconds", d.opts.seconds.to_json()),
            field("threads", d.threads.to_json()),
            field("noisy", noisy.to_json()),
            field("correct", correct.to_json()),
            field("attempted", d.verdict.attempted.to_json()),
            field("failed", (failures.len() as u64).to_json()),
            field("failures", failures.to_json()),
            field(
                "metrics",
                Json::Obj(
                    rows.iter()
                        .map(|(n, v, u)| (n.clone(), metric_obj(*v, u)))
                        .collect(),
                ),
            ),
            field("pass_samples_s", untraced.to_json()),
            field(
                "unit_samples_s",
                Json::Obj(
                    unit_samples(d.passes)
                        .into_iter()
                        .map(|(id, s)| (id, s.to_json()))
                        .collect(),
                ),
            ),
            field("pass_median_s", mid.to_json()),
            field("pass_max_s", hi.to_json()),
            field("setup_samples_s", d.setup_samples.to_json()),
            field("calib_samples_s", d.calib.to_json()),
            field(
                "info",
                Json::Obj(info.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ),
        ]);
        store::write_atomic(path, (doc.render_pretty() + "\n").as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let (Some(path), true) = (&d.opts.trace_out, d.opts.trace) {
        store::write_atomic(path, crate::span::to_jsonl(d.spans).as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        d.verdict.attempted,
        failures.len()
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!("{line}}}}}");
    Ok(correct)
}
