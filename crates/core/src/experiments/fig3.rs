//! Figure 3: DCQCN phase margins.
//!
//! (a) phase margin vs number of flows for several control-loop delays τ*;
//! (b) the stabilizing effect of smaller `R_AI`; (c) of larger `K_max`.
//! The headline: the margin is **non-monotonic** in the number of flows —
//! at high delay it dips (often below zero near N ≈ 10) and recovers for
//! large N, "very different from TCP's behavior".

use models::dcqcn::{DcqcnFluid, DcqcnLinParts, DcqcnParams};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Flow counts to sweep.
    pub flow_counts: Vec<usize>,
    /// Delays (µs) for panel (a).
    pub delays_us: Vec<f64>,
    /// `R_AI` values (Mbps) for panel (b), at `panel_bc_delay_us`.
    pub r_ai_mbps: Vec<f64>,
    /// `K_max` values (KB) for panel (c), at `panel_bc_delay_us`.
    pub kmax_kb: Vec<f64>,
    /// Delay used for panels (b) and (c).
    pub panel_bc_delay_us: f64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            flow_counts: vec![2, 4, 6, 8, 10, 14, 18, 24, 32, 48, 64, 100],
            delays_us: vec![4.0, 20.0, 50.0, 85.0, 100.0],
            r_ai_mbps: vec![10.0, 40.0, 100.0],
            kmax_kb: vec![200.0, 1000.0, 5000.0],
            panel_bc_delay_us: 85.0,
        }
    }
}

/// One margin curve: label plus `(N, phase margin °)` points.
#[derive(Debug, Clone)]
pub struct MarginCurve {
    /// Curve label (e.g. "τ*=85µs").
    pub label: String,
    /// `(n_flows, phase_margin_deg)` points.
    pub points: Vec<(usize, f64)>,
}

/// Full result: panels (a), (b), (c).
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Panel (a): one curve per delay.
    pub by_delay: Vec<MarginCurve>,
    /// Panel (b): one curve per `R_AI`.
    pub by_r_ai: Vec<MarginCurve>,
    /// Panel (c): one curve per `K_max`.
    pub by_kmax: Vec<MarginCurve>,
}

/// Every curve's label and parameter set, panel (a) then (b) then (c).
fn curve_params(cfg: &Fig3Config) -> Vec<(String, DcqcnParams)> {
    let base = DcqcnParams::default_40g();
    let mut curves = Vec::new();
    for &d in &cfg.delays_us {
        let mut p = base.clone();
        p.feedback_delay_us = d;
        curves.push((format!("tau*={d}us"), p));
    }
    for &r in &cfg.r_ai_mbps {
        let mut p = base.clone();
        p.feedback_delay_us = cfg.panel_bc_delay_us;
        p.r_ai_mbps = r;
        curves.push((format!("R_AI={r}Mbps"), p));
    }
    for &k in &cfg.kmax_kb {
        let mut p = base.clone();
        p.feedback_delay_us = cfg.panel_bc_delay_us;
        p.kmax_kb = k;
        curves.push((format!("Kmax={k}KB"), p));
    }
    curves
}

/// Run all three sweeps.
///
/// Every `(curve, N)` grid point is an independent margin computation. The
/// points are grouped by flow count, one [`desim::par::par_map`] job per
/// `N`, and curves are reassembled from the ordered results, so the output
/// is byte-identical to the serial sweep regardless of `SIM_THREADS`.
///
/// Within a group, each distinct [`DcqcnFluid::lin_parts_key`] (compared
/// bit for bit) is linearized once: panels (a) and (c) vary only the delay
/// and RED profile, which the DCQCN linearization never reads, so all their
/// curves share one set of Jacobian blocks per `N`. Equal keys give
/// bitwise-equal parts, so every margin is bitwise that of
/// [`DcqcnFluid::margin_report`].
pub fn run(cfg: &Fig3Config) -> Fig3Result {
    let curves = curve_params(cfg);
    let by_flow: Vec<Vec<f64>> = desim::par::par_map(cfg.flow_counts.clone(), |n: usize| {
        let mut shared: Vec<(Vec<u64>, DcqcnLinParts)> = Vec::new();
        curves
            .iter()
            .map(|(_, p)| {
                let m = DcqcnFluid::new(p.clone(), n);
                let key: Vec<u64> = m.lin_parts_key().iter().map(|v| v.to_bits()).collect();
                let at = match shared.iter().position(|(k, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        shared.push((key, m.lin_parts()));
                        shared.len() - 1
                    }
                };
                m.margin_report_from(&shared[at].1)
                    .phase_margin_deg
                    .unwrap_or(180.0)
            })
            .collect()
    });

    let mut curves: Vec<MarginCurve> = curves
        .into_iter()
        .enumerate()
        .map(|(c, (label, _))| MarginCurve {
            label,
            points: cfg
                .flow_counts
                .iter()
                .zip(&by_flow)
                .map(|(&n, pms)| (n, pms[c]))
                .collect(),
        })
        .collect();

    let by_kmax = curves.split_off(cfg.delays_us.len() + cfg.r_ai_mbps.len());
    let by_r_ai = curves.split_off(cfg.delays_us.len());
    Fig3Result {
        by_delay: curves,
        by_r_ai,
        by_kmax,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> Fig3Config {
        Fig3Config {
            flow_counts: vec![2, 10, 64],
            delays_us: vec![4.0, 85.0],
            r_ai_mbps: vec![10.0, 40.0],
            kmax_kb: vec![200.0, 1000.0],
            panel_bc_delay_us: 85.0,
        }
    }

    #[test]
    fn small_delay_stable_everywhere() {
        let res = run(&quick_cfg());
        let small = &res.by_delay[0]; // 4 µs
        for &(n, pm) in &small.points {
            assert!(pm > 0.0, "N={n} at 4 µs should be stable, pm={pm:.1}");
        }
    }

    #[test]
    fn nonmonotone_dip_at_high_delay() {
        let res = run(&quick_cfg());
        let high = &res.by_delay[1]; // 85 µs
        let pm: Vec<f64> = high.points.iter().map(|&(_, p)| p).collect();
        assert!(
            pm[1] < pm[0] && pm[1] < pm[2],
            "dip at N=10 expected: {pm:?}"
        );
    }

    #[test]
    fn smaller_rai_has_larger_margin_at_dip() {
        // Figure 3(b)'s claim targets the unstable dip region (N ≈ 10 at
        // 85 µs); at very large N the R_AI effect interacts with p* and is
        // not uniformly monotone.
        let res = run(&quick_cfg());
        let small_rai = &res.by_r_ai[0]; // 10 Mbps
        let default_rai = &res.by_r_ai[1]; // 40 Mbps
        let dip = 1; // N = 10 in quick_cfg
        assert!(
            small_rai.points[dip].1 > default_rai.points[dip].1,
            "R_AI=10 must stabilize the dip: {:.1} vs {:.1}",
            small_rai.points[dip].1,
            default_rai.points[dip].1
        );
        // And it must lift the dip out of instability.
        assert!(
            small_rai.points[dip].1 > 0.0,
            "dip should become stable with R_AI=10: {:.1}",
            small_rai.points[dip].1
        );
    }

    #[test]
    fn cached_margins_match_the_uncached_report_bitwise() {
        // Each flow count's curves share their linearizations: panel (a)'s
        // delays and panel (c)'s `K_max` values reuse the same blocks (the
        // linearization reads neither), panel (b)'s `R_AI` values do not
        // (it reads that). Every point of every panel equals a fresh
        // `margin_report` bit for bit.
        let cfg = quick_cfg();
        let res = run(&cfg);
        let curves: Vec<&MarginCurve> = res
            .by_delay
            .iter()
            .chain(&res.by_r_ai)
            .chain(&res.by_kmax)
            .collect();
        let params = curve_params(&cfg);
        assert_eq!(curves.len(), params.len());
        assert_eq!(
            (res.by_delay.len(), res.by_r_ai.len(), res.by_kmax.len()),
            (cfg.delays_us.len(), cfg.r_ai_mbps.len(), cfg.kmax_kb.len())
        );
        for (curve, (label, p)) in curves.into_iter().zip(params) {
            assert_eq!(curve.label, label);
            let flows: Vec<usize> = curve.points.iter().map(|&(n, _)| n).collect();
            assert_eq!(flows, cfg.flow_counts, "{label}");
            for &(n, pm) in &curve.points {
                let solo = DcqcnFluid::new(p.clone(), n)
                    .margin_report()
                    .phase_margin_deg
                    .unwrap_or(180.0);
                assert_eq!(pm.to_bits(), solo.to_bits(), "{label} N={n}");
            }
        }
        // The panels are not copies of one another: the parameter each one
        // varies moves the margin at the dip.
        let dip = |c: &MarginCurve| c.points[1].1.to_bits();
        assert_ne!(dip(&res.by_r_ai[0]), dip(&res.by_r_ai[1]));
        assert_ne!(dip(&res.by_kmax[0]), dip(&res.by_kmax[1]));
        assert_ne!(dip(&res.by_delay[0]), dip(&res.by_delay[1]));
    }

    #[test]
    fn larger_kmax_has_larger_margin_at_dip() {
        let res = run(&quick_cfg());
        let k200 = &res.by_kmax[0];
        let k1000 = &res.by_kmax[1];
        // At the dip (N = 10), the larger K_max must help.
        assert!(
            k1000.points[1].1 > k200.points[1].1,
            "{:.1} vs {:.1}",
            k1000.points[1].1,
            k200.points[1].1
        );
    }
}

crate::impl_to_json!(Fig3Config {
    flow_counts,
    delays_us,
    r_ai_mbps,
    kmax_kb,
    panel_bc_delay_us
});
crate::impl_to_json!(MarginCurve { label, points });
crate::impl_to_json!(Fig3Result {
    by_delay,
    by_r_ai,
    by_kmax
});
