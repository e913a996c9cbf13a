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
