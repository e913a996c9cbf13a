//! Figure 16: the bottleneck queue at load 0.8.
//!
//! "The queue length under TIMELY can grow to a very high value, and is
//! highly variable. In contrast the DCQCN queue has a fixed point between
//! the RED thresholds and even in the transient state the queue stays
//! within the bounds."

use crate::experiments::fig14::Runs;
use crate::experiments::fig15::{cells, Fig15Config};
use crate::experiments::{queue_kb, Series};

/// Configuration: Figure 15's cells (load 0.8 in the paper), read for
/// their bottleneck queue.
pub type Fig16Config = Fig15Config;

/// Result.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// Per protocol: bottleneck queue trace in KB.
    pub queues_kb: Vec<(String, Series)>,
    /// Per protocol: (mean KB, p99 KB, max KB) of the queue.
    pub summary: Vec<(String, f64, f64, f64)>,
}

/// Figure 16 read off `runs`, which hold its cells with their bottleneck
/// queue traces.
pub fn view(cfg: &Fig16Config, runs: &Runs) -> Fig16Result {
    let (queues_kb, summary) = cells(cfg)
        .into_iter()
        .map(|cell| {
            let label = cell.protocol.label().to_string();
            let (report, bottleneck) = runs.get(cell);
            let series = queue_kb(report, bottleneck);
            let (mean, p99, max) = summarize(&series);
            ((label.clone(), series), (label, mean, p99, max))
        })
        .unzip();
    Fig16Result { queues_kb, summary }
}

/// Run: every cell once, each keeping its bottleneck queue trace.
pub fn run(cfg: &Fig16Config) -> Fig16Result {
    view(cfg, &Runs::new(cells(cfg), &cells(cfg)))
}

/// `(mean, p99, max)` of a queue trace's values; NaN for each on an empty
/// trace, as [`tail_mean`](crate::experiments::tail_mean) answers. The mean
/// sums the values in sorted order, not in time order.
fn summarize(series: &[(f64, f64)]) -> (f64, f64, f64) {
    let mut vals: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
    vals.sort_by(f64::total_cmp);
    let Some(&max) = vals.last() else {
        return (f64::NAN, f64::NAN, f64::NAN);
    };
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let p99 = vals[((vals.len() as f64 * 0.99) as usize).min(vals.len() - 1)];
    (mean, p99, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Protocol;

    #[test]
    fn an_empty_queue_trace_summarizes_to_nan() {
        let (mean, p99, max) = summarize(&[]);
        assert!(mean.is_nan() && p99.is_nan() && max.is_nan());
    }

    #[test]
    fn one_sample_is_its_own_mean_p99_and_max() {
        assert_eq!(summarize(&[(0.5, 42.0)]), (42.0, 42.0, 42.0));
    }

    #[test]
    fn the_summary_reads_the_sorted_values() {
        // 100 values 1..=100 out of time order: p99 is the 100th (index
        // 99 = min(⌊100 · 0.99⌋, 99)).
        let series: Series = (0..100)
            .map(|i| (i as f64, ((i * 37) % 100 + 1) as f64))
            .collect();
        assert_eq!(summarize(&series), (50.5, 100.0, 100.0));
    }

    #[test]
    fn delay_based_queue_much_larger_and_more_variable() {
        // The paper's Figure 16: the ECN-controlled queue stays within the
        // RED band while the delay-based protocol's queue grows large and
        // variable. In our simulator the uncontrolled-queue behaviour is
        // carried by Patched TIMELY (β = 0.008, the paper's patched
        // parameters); original TIMELY instead under-utilizes (see fig14).
        let cfg = Fig16Config {
            protocols: vec![Protocol::Dcqcn, Protocol::PatchedTimely],
            horizon_s: 0.15,
            seed: 2,
            load: 0.8,
        };
        let res = run(&cfg);
        let (_, _dmean, _dp99, dmax) = res.summary[0];
        let (_, _tmean, tp99, tmax) = res.summary[1];
        assert!(
            tmax > 2.0 * dmax,
            "delay-based max queue {tmax:.0} KB vs DCQCN {dmax:.0} KB"
        );
        // DCQCN stays within the vicinity of the RED band (K_max = 200 KB);
        // allow transient overshoot but not MB-scale buildup.
        assert!(dmax < 450.0, "DCQCN max queue {dmax:.0} KB too large");
        assert!(tp99 > 300.0, "delay-based p99 {tp99:.0} KB should be large");
    }
}

crate::impl_to_json!(Fig16Result { queues_kb, summary });
