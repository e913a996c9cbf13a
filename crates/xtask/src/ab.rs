//! `xtask ab`: a pre-registered, alternating A/B of the benchmark ruler
//! between a parent commit and the working tree.
//!
//! This module is the arithmetic and the documents; `main.rs` builds the
//! two rulers and runs them. The plan is fixed before the first run and
//! written out: which workload, which end-to-end metrics, how many pairs,
//! and for each pair its seed and which side runs first. Seeds alternate
//! 1, 2, and the order alternates so that each seed sees each side first
//! equally often. Each run yields its last standard-output line (the
//! ruler's one-line JSON result) and its `--out` document's calibration
//! samples. A pair whose two calibration medians differ by more than
//! [`CALIB_TOLERANCE`] ran on a box that changed speed between its runs,
//! and is flagged.
//!
//! The report gives, per metric: both sides' medians and quartiles, the
//! median of the per-pair ratios change / parent with a distribution-free
//! confidence interval ([`median_interval`]), in how many pairs the change
//! read lower, whether the medians differ by more than the parent's
//! interquartile range, and a [`Verdict`] against the metric's bound.

use obs::json::{parse, Value};
use std::fmt::Write as _;

/// Calibration medians of a pair's two runs may differ by this share.
pub const CALIB_TOLERANCE: f64 = 0.10;

/// The coverage the median ratio's interval aims for.
pub const INTERVAL_LEVEL: f64 = 0.95;

/// What an A/B measures, fixed before the first run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The parent commit, as `git rev-parse` resolves it.
    pub parent: String,
    /// The working tree's `HEAD`, with `+dirty` when a tracked file has
    /// changes (an untracked one is not built).
    pub change: String,
    /// The benchmark workload.
    pub workload: String,
    /// Pairs of runs.
    pub pairs: usize,
    /// The ruler's `--seconds`: BENCHMARK.json's `run_seconds`.
    pub seconds: f64,
    /// The end-to-end metrics read from every run, in BENCHMARK.json order.
    pub metrics: Vec<Metric>,
}

/// An end-to-end metric of BENCHMARK.json; every one is lower-is-better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in the ruler's result line.
    pub name: String,
    /// The share by which the change's median may exceed the parent's.
    pub bound: f64,
}

impl Plan {
    /// Pair `i`'s `--seed`: 1, 2, 1, 2, …
    pub fn seed(i: usize) -> u64 {
        1 + (i % 2) as u64
    }

    /// Whether the change runs first in pair `i`: parent, change, change,
    /// parent, and again, so each seed sees each order.
    pub fn change_first(i: usize) -> bool {
        (i + i / 2) % 2 == 1
    }

    /// The pre-registration document.
    pub fn to_json(&self) -> Value {
        let schedule = (0..self.pairs)
            .map(|i| {
                Value::Obj(vec![
                    ("seed".into(), Value::Int(Plan::seed(i).into())),
                    (
                        "first".into(),
                        Value::Str(side(Plan::change_first(i)).into()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("parent".into(), Value::Str(self.parent.clone())),
            ("change".into(), Value::Str(self.change.clone())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("pairs".into(), Value::Int(self.pairs as i128)),
            ("seconds".into(), Value::Num(self.seconds)),
            (
                "metrics".into(),
                Value::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Value::Obj(vec![
                                ("name".into(), Value::Str(m.name.clone())),
                                ("bound".into(), Value::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("calib_tolerance".into(), Value::Num(CALIB_TOLERANCE)),
            ("schedule".into(), Value::Arr(schedule)),
        ])
    }
}

fn side(change: bool) -> &'static str {
    if change {
        "change"
    } else {
        "parent"
    }
}

/// What one ruler run reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// `correct` of the result line.
    pub correct: bool,
    /// `failed` of the result line.
    pub failed: u64,
    /// `attempted` of the result line.
    pub attempted: u64,
    /// Each planned metric's value, in plan order.
    pub values: Vec<f64>,
    /// Median of the `--out` document's `calib_samples_s`.
    pub calib_s: f64,
}

/// Read a run from the ruler's standard output (its last non-empty line is
/// the result) and its `--out` document.
pub fn parse_run(plan: &Plan, stdout: &str, out_doc: &str) -> Result<Run, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the ruler printed nothing")?;
    let result = parse(last).map_err(|e| format!("result line: {e}"))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("result line has no `{key}`"))
    };
    let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
    let values = plan
        .metrics
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("result line has no metric `{}`", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let out = parse(out_doc).map_err(|e| format!("--out document: {e}"))?;
    let calib: Vec<f64> = out
        .get("calib_samples_s")
        .and_then(Value::items)
        .ok_or("--out document has no `calib_samples_s`")?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Ok(Run {
        correct,
        failed: count("failed")?,
        attempted: count("attempted")?,
        values,
        calib_s: median(&calib),
    })
}

/// One pair: both sides' runs under pair `index`'s seed and order.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Position in the plan's schedule.
    pub index: usize,
    /// The parent's run.
    pub parent: Run,
    /// The change's run.
    pub change: Run,
}

impl Pair {
    /// The two calibration medians differ by more than [`CALIB_TOLERANCE`].
    pub fn calib_flagged(&self) -> bool {
        let (a, b) = (self.parent.calib_s, self.change.calib_s);
        a.max(b) / a.min(b) - 1.0 > CALIB_TOLERANCE
    }
}

/// One metric over all pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The metric.
    pub metric: String,
    /// Lower quartile, median and upper quartile over the parent's runs.
    pub parent: [f64; 3],
    /// The same over the change's runs.
    pub change: [f64; 3],
    /// Median over pairs of change / parent.
    pub ratio_median: f64,
    /// A distribution-free interval for the median ratio, and its coverage.
    pub ratio_interval: MedianInterval,
    /// Pairs in which the change read lower.
    pub change_lower: usize,
    /// Pairs run.
    pub pairs: usize,
    /// The metric's bound.
    pub bound: f64,
}

/// What an A/B shows for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change read lower in at least nine pairs of ten, and the medians
    /// differ by more than the parent's interquartile range.
    Gain,
    /// The change's median exceeds the parent's by more than the bound.
    Regressed,
    /// The parent's own interquartile range, as a share of its median, is
    /// wider than the bound: these runs cannot tell.
    Unresolved,
    /// None of the above.
    NoRegression,
}

impl Verdict {
    /// The verdict's name in the records.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NoRegression => "no regression",
        }
    }
}

/// Per metric of `plan`, the summary over `pairs`.
pub fn summarize(plan: &Plan, pairs: &[Pair]) -> Vec<Summary> {
    let column = |m: usize, run: fn(&Pair) -> &Run| -> Vec<f64> {
        pairs.iter().map(|p| run(p).values[m]).collect()
    };
    plan.metrics
        .iter()
        .enumerate()
        .map(|(m, Metric { name, bound })| {
            let (parent, change) = (column(m, |p| &p.parent), column(m, |p| &p.change));
            let ratios: Vec<f64> = change.iter().zip(&parent).map(|(c, p)| c / p).collect();
            Summary {
                metric: name.clone(),
                parent: quartiles(&parent),
                change: quartiles(&change),
                ratio_median: median(&ratios),
                ratio_interval: median_interval(&ratios, INTERVAL_LEVEL),
                change_lower: change.iter().zip(&parent).filter(|(c, p)| c < p).count(),
                pairs: pairs.len(),
                bound: *bound,
            }
        })
        .collect()
}

impl Summary {
    /// The medians differ by more than the parent's interquartile range.
    pub fn beyond_parent_iqr(&self) -> bool {
        (self.change[1] - self.parent[1]).abs() > self.parent[2] - self.parent[0]
    }

    /// The first verdict that holds, in [`Verdict`]'s order.
    pub fn verdict(&self) -> Verdict {
        let ([lo, parent, hi], change) = (self.parent, self.change[1]);
        if 10 * self.change_lower >= 9 * self.pairs && change < parent && self.beyond_parent_iqr() {
            Verdict::Gain
        } else if change > parent * (1.0 + self.bound) {
            Verdict::Regressed
        } else if hi - lo > parent * self.bound {
            Verdict::Unresolved
        } else {
            Verdict::NoRegression
        }
    }
}

/// Lower quartile, median and upper quartile, interpolated linearly between
/// order statistics; NaN for no samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let Some(last) = v.len().checked_sub(1) else {
            return f64::NAN;
        };
        let at = q * last as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
    })
}

/// The median; NaN for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// A confidence interval for a population median from its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedianInterval {
    /// The lower end, an order statistic.
    pub lo: f64,
    /// The upper end, an order statistic.
    pub hi: f64,
    /// The probability that the interval holds the median, for any
    /// continuous distribution of the samples.
    pub coverage: f64,
}

/// The distribution-free interval for the median of `xs`: the order
/// statistics x₍ₖ₎ and x₍ₙ₊₁₋ₖ₎, which hold the median with probability
/// 1 − 2·P(B < k), B ~ binomial(n, ½) (the count of samples below the
/// median). `k` is the largest whose coverage reaches `level`; with too few
/// samples for `level` it is 1, the sample range, at the coverage that has.
/// Ten pairs give x₍₂₎ … x₍₉₎ at 97.9 %. NaN ends for no samples.
pub fn median_interval(xs: &[f64], level: f64) -> MedianInterval {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return MedianInterval {
            lo: f64::NAN,
            hi: f64::NAN,
            coverage: f64::NAN,
        };
    }
    // P(B = k), and P(B < k) summed up while 1 − 2·P(B < k + 1) ≥ level.
    let mut p_k = 0.5f64.powi(n as i32);
    let (mut k, mut below_k) = (1, p_k);
    while k < n.div_ceil(2) {
        p_k *= (n + 1 - k) as f64 / k as f64;
        if 1.0 - 2.0 * (below_k + p_k) < level {
            break;
        }
        below_k += p_k;
        k += 1;
    }
    MedianInterval {
        lo: v[k - 1],
        hi: v[n - k],
        coverage: 1.0 - 2.0 * below_k,
    }
}

/// The JSON record: the plan, every run, and the summary.
pub fn report_json(plan: &Plan, pairs: &[Pair]) -> Value {
    let run = |r: &Run| {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(r.correct)),
            ("attempted".into(), Value::Int(r.attempted.into())),
            ("failed".into(), Value::Int(r.failed.into())),
            ("calib_s".into(), Value::Num(r.calib_s)),
            ("values".into(), Value::Nums(r.values.clone())),
        ])
    };
    let pairs_json = pairs
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("seed".into(), Value::Int(Plan::seed(p.index).into())),
                (
                    "first".into(),
                    Value::Str(side(Plan::change_first(p.index)).into()),
                ),
                ("calib_flagged".into(), Value::Bool(p.calib_flagged())),
                ("parent".into(), run(&p.parent)),
                ("change".into(), run(&p.change)),
            ])
        })
        .collect();
    let summary = summarize(plan, pairs)
        .into_iter()
        .map(|s| {
            Value::Obj(vec![
                ("metric".into(), Value::Str(s.metric.clone())),
                ("parent_quartiles".into(), Value::Nums(s.parent.to_vec())),
                ("change_quartiles".into(), Value::Nums(s.change.to_vec())),
                ("ratio_median".into(), Value::Num(s.ratio_median)),
                (
                    "ratio_interval".into(),
                    Value::Nums(vec![s.ratio_interval.lo, s.ratio_interval.hi]),
                ),
                (
                    "ratio_interval_coverage".into(),
                    Value::Num(s.ratio_interval.coverage),
                ),
                (
                    "beyond_parent_iqr".into(),
                    Value::Bool(s.beyond_parent_iqr()),
                ),
                ("change_lower".into(), Value::Int(s.change_lower as i128)),
                ("bound".into(), Value::Num(s.bound)),
                ("verdict".into(), Value::Str(s.verdict().name().into())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("plan".into(), plan.to_json()),
        ("pairs".into(), Value::Arr(pairs_json)),
        ("summary".into(), Value::Arr(summary)),
    ])
}

/// Per-pair rows the markdown report lists; the JSON has every pair.
const MD_PAIR_ROWS: usize = 40;

/// The markdown report: at most 60 lines.
pub fn report_md(plan: &Plan, pairs: &[Pair]) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# A/B: `{}`, {} pairs\n", plan.workload, pairs.len());
    let _ = writeln!(
        md,
        "Parent `{}`, change `{}`; `--seconds {}`, seeds 1/2 and order alternating (pre-registered).\n",
        plan.parent, plan.change, plan.seconds
    );
    let summaries = summarize(plan, pairs);
    let coverage = summaries
        .first()
        .map_or(f64::NAN, |s| s.ratio_interval.coverage);
    let _ = writeln!(
        md,
        "| metric | parent median [quartiles] | change median [quartiles] | median ratio [{:.1} % interval] | change lower | medians apart by > parent IQR | bound | verdict |",
        coverage * 100.0
    );
    md.push_str("|---|---|---|---|---|---|---|---|\n");
    let q = |[lo, mid, hi]: [f64; 3]| format!("{mid:.4} [{lo:.4}, {hi:.4}]");
    for s in summaries {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {:.3} [{:.3}, {:.3}] | {}/{} | {} | {:.0} % | {} |",
            s.metric,
            q(s.parent),
            q(s.change),
            s.ratio_median,
            s.ratio_interval.lo,
            s.ratio_interval.hi,
            s.change_lower,
            pairs.len(),
            if s.beyond_parent_iqr() { "yes" } else { "no" },
            s.bound * 100.0,
            s.verdict().name()
        );
    }
    let flagged = pairs.iter().filter(|p| p.calib_flagged()).count();
    let wrong = pairs
        .iter()
        .flat_map(|p| [&p.parent, &p.change])
        .filter(|r| !r.correct || r.failed > 0)
        .count();
    let _ = writeln!(
        md,
        "\nCalibration-flagged pairs (medians differ by > {:.0} %): {flagged}. Runs not `correct` or with failures: {wrong}.\n",
        CALIB_TOLERANCE * 100.0
    );
    md.push_str("| pair | seed | first | calib parent / change (ms) |");
    for m in &plan.metrics {
        let _ = write!(md, " `{}` parent → change |", m.name);
    }
    md.push_str("\n|---|---|---|---|");
    md.push_str(&"---|".repeat(plan.metrics.len()));
    md.push('\n');
    for p in pairs.iter().take(MD_PAIR_ROWS) {
        let _ = write!(
            md,
            "| {} | {} | {} | {:.2} / {:.2}{} |",
            p.index,
            Plan::seed(p.index),
            side(Plan::change_first(p.index)),
            p.parent.calib_s * 1e3,
            p.change.calib_s * 1e3,
            if p.calib_flagged() { " (flagged)" } else { "" }
        );
        for (a, b) in p.parent.values.iter().zip(&p.change.values) {
            let _ = write!(md, " {a:.4} → {b:.4} |");
        }
        md.push('\n');
    }
    if pairs.len() > MD_PAIR_ROWS {
        let _ = writeln!(md, "\n(pairs {MD_PAIR_ROWS}… are in the JSON record)");
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(pairs: usize) -> Plan {
        Plan {
            parent: "p".into(),
            change: "c".into(),
            workload: "packet_churn".into(),
            pairs,
            seconds: 22.0,
            metrics: vec![metric("pass_s", 0.25), metric("peak_rss_mb", 0.15)],
        }
    }

    fn metric(name: &str, bound: f64) -> Metric {
        Metric {
            name: name.into(),
            bound,
        }
    }

    fn run(values: [f64; 2], calib_s: f64) -> Run {
        Run {
            correct: true,
            failed: 0,
            attempted: 10,
            values: values.to_vec(),
            calib_s,
        }
    }

    #[test]
    fn each_seed_sees_each_order_equally_often() {
        let cells: Vec<(u64, bool)> = (0..8)
            .map(|i| (Plan::seed(i), Plan::change_first(i)))
            .collect();
        for seed in [1, 2] {
            for first in [false, true] {
                assert_eq!(cells.iter().filter(|&&c| c == (seed, first)).count(), 2);
            }
        }
        assert!(!Plan::change_first(0), "the parent opens");
    }

    #[test]
    fn a_run_reads_the_result_line_and_the_calibration() {
        let stdout = "results -> x\n  pass_s 1.0 s\n{\"correct\": true, \"attempted\": 11, \"failed\": 0, \
            \"metrics\": {\"pass_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 2, \"unit\": \"s\"}, \
            \"peak_rss_mb\": {\"value\": 12.25, \"unit\": \"MB\"}}}\n\n";
        let out = r#"{"calib_samples_s": [0.010, 0.012, 0.011]}"#;
        let r = parse_run(&plan(1), stdout, out).expect("a well-formed run");
        assert_eq!(r, run([1.5, 12.25], 0.011).with_attempted(11));
        assert!(parse_run(&plan(1), "", out).is_err());
        let missing = stdout.replace("peak_rss_mb", "rss");
        assert!(parse_run(&plan(1), &missing, out)
            .unwrap_err()
            .contains("peak_rss_mb"));
        assert!(parse_run(&plan(1), stdout, "{}").is_err());
    }

    impl Run {
        fn with_attempted(mut self, n: u64) -> Self {
            self.attempted = n;
            self
        }
    }

    #[test]
    fn the_summary_takes_medians_of_sides_and_of_ratios() {
        let pairs = vec![
            Pair {
                index: 0,
                parent: run([1.0, 14.5], 0.010),
                change: run([1.2, 12.0], 0.0105),
            },
            Pair {
                index: 1,
                parent: run([2.0, 14.7], 0.010),
                change: run([1.0, 12.2], 0.012),
            },
            Pair {
                index: 2,
                parent: run([1.0, 14.6], 0.010),
                change: run([0.9, 12.1], 0.010),
            },
        ];
        let s = summarize(&plan(3), &pairs);
        assert_eq!((s[0].parent[1], s[0].change[1]), (1.0, 1.0));
        assert_eq!((s[0].parent[0], s[0].parent[2]), (1.0, 1.5));
        assert_eq!(s[0].ratio_median, 0.9);
        assert!(!s[0].beyond_parent_iqr() && s[1].beyond_parent_iqr());
        assert_eq!(s[0].change_lower, 2);
        assert_eq!(s[1].change_lower, 3);
        assert_eq!(
            pairs.iter().map(Pair::calib_flagged).collect::<Vec<_>>(),
            [false, true, false]
        );
        let md = report_md(&plan(3), &pairs);
        assert!(md.lines().count() <= 60, "{md}");
        assert!(md.contains("| median ratio [75.0 % interval] |"), "{md}");
        assert!(
            md.contains("| `peak_rss_mb` | 14.6000 [14.5500, 14.6500] | 12.1000 [12.0500, 12.1500] | 0.829 [0.828, 0.830] | 3/3 | yes | 15 % | gain |"),
            "{md}"
        );
        assert!(md.contains("(flagged)"));
        let json = report_json(&plan(3), &pairs).render_pretty();
        let back = parse(&json).expect("the record parses");
        assert_eq!(
            back.get("pairs").and_then(Value::items).map(<[_]>::len),
            Some(3)
        );
    }

    /// The verdict of ten pairs whose parent reads `parent[i]` and change
    /// `change[i]`, under a 25 % bound.
    fn verdict(parent: [f64; 10], change: [f64; 10]) -> Verdict {
        let pairs: Vec<Pair> = (0..10)
            .map(|i| Pair {
                index: i,
                parent: run([parent[i], 1.0], 0.010),
                change: run([change[i], 1.0], 0.010),
            })
            .collect();
        summarize(&plan(10), &pairs)[0].verdict()
    }

    const STEADY: [f64; 10] = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];

    #[test]
    fn nine_lower_pairs_beyond_the_parent_iqr_are_a_gain() {
        let mut faster = STEADY.map(|x| x * 0.9);
        assert_eq!(verdict(STEADY, faster), Verdict::Gain);
        // Eight of ten lower pairs are not enough.
        faster[0] = 1.1;
        faster[1] = 1.1;
        assert_ne!(verdict(STEADY, faster), Verdict::Gain);
    }

    #[test]
    fn a_median_beyond_the_bound_is_a_regression() {
        assert_eq!(verdict(STEADY, STEADY.map(|x| x * 1.3)), Verdict::Regressed);
        assert_eq!(
            verdict(STEADY, STEADY.map(|x| x * 1.2)),
            Verdict::NoRegression
        );
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0];
        assert_eq!(verdict(noisy, noisy), Verdict::Unresolved);
    }

    #[test]
    fn equal_runs_are_no_regression() {
        assert_eq!(verdict(STEADY, STEADY), Verdict::NoRegression);
    }

    #[test]
    fn the_median_interval_takes_the_binomial_order_statistics() {
        let tenths: Vec<f64> = (1..=10).rev().map(|i| f64::from(i) / 10.0).collect();
        // Ten: P(B < 2) = 11/1024, P(B < 3) = 56/1024 > 2.5 %.
        let ten = median_interval(&tenths, INTERVAL_LEVEL);
        assert_eq!((ten.lo, ten.hi), (0.2, 0.9));
        assert_eq!(ten.coverage, 1.0 - 22.0 / 1024.0);
        // Twenty: P(B < 6) = 21 700 / 2^20, P(B < 7) = 60 460 / 2^20.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let i = median_interval(&twenty, INTERVAL_LEVEL);
        assert_eq!((i.lo, i.hi), (6.0, 15.0));
        assert_eq!(i.coverage, 1.0 - 2.0 * 21_700.0 / 1_048_576.0);
        // Five cannot reach 95 %: the sample range, at 1 − 2/32.
        let five = median_interval(&tenths[..5], INTERVAL_LEVEL);
        assert_eq!((five.lo, five.hi, five.coverage), (0.6, 1.0, 0.9375));
        assert_eq!(median_interval(&[3.0], INTERVAL_LEVEL).coverage, 0.0);
        assert!(median_interval(&[], INTERVAL_LEVEL).lo.is_nan());
        // Ten pairs, nine lower: the interval lies below 1.
        let mut faster = STEADY.map(|x| x * 0.9);
        faster[0] = 1.1;
        let ratios: Vec<f64> = faster.iter().zip(STEADY).map(|(c, p)| c / p).collect();
        assert!(median_interval(&ratios, INTERVAL_LEVEL).hi < 1.0);
    }

    #[test]
    fn quartiles_of_odd_even_and_empty_samples() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn the_markdown_stays_within_sixty_lines_for_many_pairs() {
        let pairs: Vec<Pair> = (0..100)
            .map(|index| Pair {
                index,
                parent: run([1.0, 14.5], 0.010),
                change: run([1.0, 12.0], 0.010),
            })
            .collect();
        assert!(report_md(&plan(100), &pairs).lines().count() <= 60);
    }
}
