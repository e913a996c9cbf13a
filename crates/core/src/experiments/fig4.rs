//! Figure 4: impact of delay and flow count on DCQCN stability, in the
//! fluid model. Six panels: τ* ∈ {4 µs, 85 µs} × N ∈ {2, 10, 64}; at 85 µs
//! the N = 10 case oscillates while N = 2 and N = 64 settle.

use crate::experiments::Series;
use fluid::Trace;
use models::dcqcn::{DcqcnFluid, DcqcnParams};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Delays (µs).
    pub delays_us: Vec<f64>,
    /// Flow counts.
    pub flow_counts: Vec<usize>,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            delays_us: vec![4.0, 85.0],
            flow_counts: vec![2, 10, 64],
            duration_s: 0.1,
        }
    }
}

/// One panel of the grid.
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// Feedback delay in µs.
    pub delay_us: f64,
    /// Number of flows.
    pub n_flows: usize,
    /// Flow-0 rate (Gbps) over time.
    pub rate_gbps: Series,
    /// Queue (KB) over time.
    pub queue_kb: Series,
    /// Queue oscillation over the tail window, normalized by q*.
    pub queue_oscillation: f64,
    /// Stable per the phase-margin analysis?
    pub predicted_stable: bool,
}

/// Full grid.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// All panels.
    pub panels: Vec<Fig4Panel>,
}

fn make_panel(fluid: DcqcnFluid, d: f64, n: usize, duration_s: f64, trace: &Trace) -> Fig4Panel {
    let fp = fluid.fixed_point();
    let predicted_stable = fluid.margin_report().is_stable();
    let tail = duration_s * 0.6;
    let osc = trace.peak_to_peak_from(0, tail) / fp.q_star_pkts.max(1.0);
    Fig4Panel {
        delay_us: d,
        n_flows: n,
        rate_gbps: fluid.rates_gbps(trace, 0),
        queue_kb: fluid.queue_kb(trace),
        queue_oscillation: osc,
        predicted_stable,
    }
}

/// Run the grid: each `(delay, N)` panel is an independent DDE integration.
///
/// Panels sharing `(N, derived step)` integrate as lanes of one
/// [`DcqcnFluid::simulate_batch`] call — both paper delays derive the same
/// 1 µs step, so the grid batches by flow count — and the batches run
/// through [`desim::par::par_map`] with ordered results. Per-lane results
/// are bit-identical to solo integrations (the `fluid::dde` lane tests).
pub fn run(cfg: &Fig4Config) -> Fig4Result {
    let mut jobs: Vec<(f64, usize)> = Vec::new();
    for &d in &cfg.delays_us {
        for &n in &cfg.flow_counts {
            jobs.push((d, n));
        }
    }

    let model_for = |d: f64, n: usize| {
        let mut params = DcqcnParams::default_40g();
        params.feedback_delay_us = d;
        DcqcnFluid::new(params, n)
    };

    // Group panel indices by (N, step bits): lanes of one batch must
    // share the state dimension and the derived integration step.
    let mut groups: Vec<((usize, u64), Vec<usize>)> = Vec::new();
    for (idx, &(d, n)) in jobs.iter().enumerate() {
        let step_bits = (model_for(d, n).params.feedback_delay_s() / 4.0)
            .min(1e-6)
            .to_bits();
        let key = (n, step_bits);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(idx),
            None => groups.push((key, vec![idx])),
        }
    }
    let duration_s = cfg.duration_s;
    let jobs_ref = &jobs;
    let out = desim::par::par_map(groups, |(_, idxs): ((usize, u64), Vec<usize>)| {
        let models: Vec<DcqcnFluid> = idxs
            .iter()
            .map(|&idx| {
                let (d, n) = jobs_ref[idx];
                model_for(d, n)
            })
            .collect();
        let traces = DcqcnFluid::simulate_batch(models.clone(), duration_s);
        idxs.into_iter()
            .zip(models)
            .zip(traces)
            .map(|((idx, fluid), trace)| {
                let (d, n) = jobs_ref[idx];
                // Like `DcqcnFluid::simulate`, which panics on divergence.
                let trace = trace.unwrap_or_else(|e| panic!("fig4 lane diverged: {e}"));
                (idx, make_panel(fluid, d, n, duration_s, &trace))
            })
            .collect::<Vec<(usize, Fig4Panel)>>()
    });
    let mut slots: Vec<Option<Fig4Panel>> = (0..jobs.len()).map(|_| None).collect();
    for (idx, panel) in out.into_iter().flatten() {
        slots[idx] = Some(panel);
    }
    let panels = slots
        .into_iter()
        // Every input index appears in exactly one group.
        .map(|s| s.expect("panel slot unfilled"))
        .collect();
    Fig4Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_story() {
        let res = run(&Fig4Config {
            duration_s: 0.08,
            ..Default::default()
        });
        let find = |d: f64, n: usize| {
            res.panels
                .iter()
                .find(|p| p.delay_us == d && p.n_flows == n)
                .unwrap()
        };
        // 4 µs: everything calm.
        for &n in &[2usize, 10, 64] {
            let p = find(4.0, n);
            assert!(
                p.queue_oscillation < 0.5,
                "4µs/N={n} should be calm, osc {:.2}",
                p.queue_oscillation
            );
        }
        // 85 µs: N=10 oscillates much more than N=2 and N=64.
        let p2 = find(85.0, 2).queue_oscillation;
        let p10 = find(85.0, 10).queue_oscillation;
        let p64 = find(85.0, 64).queue_oscillation;
        assert!(
            p10 > 2.0 * p2 && p10 > 1.5 * p64,
            "N=10 must be the unstable one: {p2:.2} / {p10:.2} / {p64:.2}"
        );
    }

    #[test]
    fn batched_panels_match_solo_integrations_bitwise() {
        // Two delays at N=2 share (dim, step) → one 2-lane batch; every
        // panel must agree to the bit with the one built from a solo
        // `DcqcnFluid::simulate` of the same configuration.
        let cfg = Fig4Config {
            delays_us: vec![4.0, 85.0],
            flow_counts: vec![2],
            duration_s: 0.005,
        };
        let res = run(&cfg);
        assert_eq!(res.panels.len(), 2);
        for (pa, &d) in res.panels.iter().zip(&cfg.delays_us) {
            let mut params = DcqcnParams::default_40g();
            params.feedback_delay_us = d;
            let mut fluid = DcqcnFluid::new(params, 2);
            let trace = fluid.simulate(cfg.duration_s);
            let pb = make_panel(fluid, d, 2, cfg.duration_s, &trace);
            assert_eq!(pa.delay_us, pb.delay_us);
            assert_eq!(pa.n_flows, pb.n_flows);
            assert_eq!(pa.predicted_stable, pb.predicted_stable);
            assert_eq!(
                pa.queue_oscillation.to_bits(),
                pb.queue_oscillation.to_bits()
            );
            let bits = |s: &Series| -> Vec<(u64, u64)> {
                s.iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
            };
            assert_eq!(bits(&pa.rate_gbps), bits(&pb.rate_gbps));
            assert_eq!(bits(&pa.queue_kb), bits(&pb.queue_kb));
        }
    }

    #[test]
    fn time_domain_agrees_with_frequency_domain() {
        // The phase-margin prediction and observed oscillation must agree
        // on the paper's grid.
        let res = run(&Fig4Config {
            duration_s: 0.08,
            ..Default::default()
        });
        for p in &res.panels {
            if p.predicted_stable {
                assert!(
                    p.queue_oscillation < 1.0,
                    "predicted stable but oscillating: τ*={} N={} osc={:.2}",
                    p.delay_us,
                    p.n_flows,
                    p.queue_oscillation
                );
            } else {
                assert!(
                    p.queue_oscillation > 0.5,
                    "predicted unstable but calm: τ*={} N={} osc={:.2}",
                    p.delay_us,
                    p.n_flows,
                    p.queue_oscillation
                );
            }
        }
    }
}

crate::impl_to_json!(Fig4Config {
    delays_us,
    flow_counts,
    duration_s
});
crate::impl_to_json!(Fig4Panel {
    delay_us,
    n_flows,
    rate_gbps,
    queue_kb,
    queue_oscillation,
    predicted_stable
});
crate::impl_to_json!(Fig4Result { panels });
