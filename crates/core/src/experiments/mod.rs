//! Experiment runners, one module per paper artifact.

pub mod ablations;
pub mod appendix_b;
pub mod eq14;
pub mod ext_faults;
pub mod ext_incast;
pub mod ext_parking_lot;
pub mod ext_pfc;
pub mod ext_pi_packet;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig2;
pub mod fig20;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod thm2;

/// A `(t_or_x, value)` series — the universal currency of figure output.
pub type Series = Vec<(f64, f64)>;

/// A link's queue over time, in KB.
fn queue_kb(report: &netsim::SimReport, link: netsim::LinkId) -> Series {
    report.queue_traces[&link]
        .points()
        .iter()
        .map(|&(t, b)| (t, b / 1000.0))
        .collect()
}

/// A flow's sending rate over time, in Gbps.
fn rate_gbps(report: &netsim::SimReport, flow: usize) -> Series {
    report.rate_traces[flow]
        .iter()
        .map(|&(t, bps)| (t, bps / 1e9))
        .collect()
}

/// Aggregate goodput (Gbps) of a run of `duration_s`: every delivered byte.
pub fn goodput_gbps(report: &netsim::SimReport, duration_s: f64) -> f64 {
    report.delivered_bytes.iter().sum::<u64>() as f64 * 8.0 / duration_s / 1e9
}

/// The values at `t >= from`.
fn tail(series: &[(f64, f64)], from: f64) -> Vec<f64> {
    series
        .iter()
        .filter(|&&(t, _)| t >= from)
        .map(|&(_, v)| v)
        .collect()
}

/// Mean of the values at `from <= t < to`; `None` when there are none.
fn window_mean(series: &[(f64, f64)], from: f64, to: f64) -> Option<f64> {
    let pts: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t >= from && t < to)
        .map(|&(_, v)| v)
        .collect();
    (!pts.is_empty()).then(|| pts.iter().sum::<f64>() / pts.len() as f64)
}

/// Mean of the values at `t >= from`; NaN when there are none.
fn tail_mean(series: &[(f64, f64)], from: f64) -> f64 {
    window_mean(series, from, f64::INFINITY).unwrap_or(f64::NAN)
}

/// Aggregate rate over `from <= t < to`: the sum of each flow's mean rate
/// there. A flow with no point in the window adds nothing.
fn window_agg(rates: &[Series], from: f64, to: f64) -> f64 {
    rates.iter().filter_map(|r| window_mean(r, from, to)).sum()
}

/// Peak-to-peak of the values at `t >= from`.
fn tail_p2p(series: &[(f64, f64)], from: f64) -> f64 {
    let pts = tail(series, from);
    pts.iter().cloned().fold(f64::MIN, f64::max) - pts.iter().cloned().fold(f64::MAX, f64::min)
}

/// Population standard deviation of the values at `t >= from`; 0 below two
/// points.
fn tail_stddev(series: &[(f64, f64)], from: f64) -> f64 {
    let pts = tail(series, from);
    if pts.len() < 2 {
        return 0.0;
    }
    let mean = pts.iter().sum::<f64>() / pts.len() as f64;
    (pts.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / pts.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::tail_mean;

    #[test]
    fn tail_mean_is_nan_on_an_empty_window() {
        assert!(tail_mean(&[], 0.0).is_nan());
        assert!(tail_mean(&[(0.0, 1.0), (1.0, 3.0)], 1.5).is_nan());
    }

    #[test]
    fn tail_mean_includes_the_window_start() {
        let series = [(0.0, 100.0), (1.0, 2.0), (2.0, 4.0)];
        assert_eq!(tail_mean(&series, 1.0), 3.0);
        assert_eq!(tail_mean(&series, 2.0), 4.0);
    }
}
