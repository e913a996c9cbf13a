//! Experiment runners, one module per paper artifact.

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

/// Mean of the values at `t >= from`; NaN when there are none.
fn tail_mean(series: &[(f64, f64)], from: f64) -> f64 {
    let pts: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t >= from)
        .map(|&(_, v)| v)
        .collect();
    if pts.is_empty() {
        return f64::NAN;
    }
    pts.iter().sum::<f64>() / pts.len() as f64
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
