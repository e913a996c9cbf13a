//! Figure 20: protocol stability under random feedback-delay jitter.
//!
//! "We inject uniform random jitter to the feedback delay of DCQCN (τ*)
//! and TIMELY (τ′) models. With jitter of \[0,100µs\], TIMELY becomes
//! unstable compared to the same scenario without the jitter. In contrast,
//! the same level of jitter does not impact DCQCN stability." The reason
//! (§5.2): jitter only *delays* the ECN feedback, but it delays *and
//! corrupts* a delay-based feedback signal.
//!
//! We use Patched TIMELY (as in Figure 12a, the paper's jitter baseline is
//! the patched, convergent variant) and compare queue oscillation with and
//! without jitter for both protocols.

use crate::experiments::Series;
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use models::jitter::Jitter;
use models::timely::TimelyFluid;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig20Config {
    /// Jitter amplitude (µs); the paper uses 100.
    pub jitter_us: f64,
    /// Jitter resampling window (µs).
    pub jitter_window_us: f64,
    /// Flows.
    pub n_flows: usize,
    /// Duration (seconds).
    pub duration_s: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for Fig20Config {
    fn default() -> Self {
        Fig20Config {
            jitter_us: 100.0,
            jitter_window_us: 20.0,
            n_flows: 2,
            duration_s: 0.4,
            seed: 7,
        }
    }
}

/// One protocol's jitter contrast.
#[derive(Debug, Clone)]
pub struct JitterPanel {
    /// Protocol label.
    pub protocol: String,
    /// Queue (KB) without jitter.
    pub queue_clean_kb: Series,
    /// Queue (KB) with jitter.
    pub queue_jitter_kb: Series,
    /// Normalized queue oscillation (clean, jittered).
    pub oscillation: (f64, f64),
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig20Result {
    /// DCQCN and (patched) TIMELY panels.
    pub panels: Vec<JitterPanel>,
}

/// Run both protocols with and without jitter: four independent
/// integrations, through [`desim::par::par_map`] with ordered results.
pub fn run(cfg: &Fig20Config) -> Fig20Result {
    let jitter = Jitter::uniform(cfg.jitter_us * 1e-6, cfg.jitter_window_us * 1e-6, cfg.seed);
    let tail = cfg.duration_s * 0.6;
    let dcqcn = DcqcnParams::default_40g();

    // (protocol, jittered) → (queue in KB, queue peak-to-peak over the tail).
    let jobs = vec![(false, false), (false, true), (true, false), (true, true)];
    let runs = desim::par::par_map(jobs, |(is_timely, jittered)| {
        let jitter = jittered.then(|| jitter.clone());
        if is_timely {
            // Patched TIMELY: the convergent baseline of Fig 12a.
            let mut m = TimelyFluid::patched_10g(cfg.n_flows);
            if let Some(j) = jitter {
                m = m.with_jitter(j);
            }
            let tr = m.simulate(cfg.duration_s);
            (m.queue_kb(&tr), tr.peak_to_peak_from(0, tail))
        } else {
            let mut m = DcqcnFluid::new(dcqcn.clone(), cfg.n_flows);
            if let Some(j) = jitter {
                m = m.with_jitter(j);
            }
            let tr = m.simulate(cfg.duration_s);
            (m.queue_kb(&tr), tr.peak_to_peak_from(0, tail))
        }
    });

    // Results come back in job order: each protocol's clean run, then its
    // jittered one.
    // `par_map` returns one result per job, and there are four.
    let [dcqcn_clean, dcqcn_noisy, timely_clean, timely_noisy]: [(Series, f64); 4] =
        runs.try_into().expect("one result per job");
    let panel = |protocol: &str, q_star_pkts: f64, clean: (Series, f64), noisy: (Series, f64)| {
        let ((queue_clean_kb, clean_p2p), (queue_jitter_kb, noisy_p2p)) = (clean, noisy);
        JitterPanel {
            protocol: protocol.into(),
            queue_clean_kb,
            queue_jitter_kb,
            oscillation: (
                clean_p2p / q_star_pkts.max(1.0),
                noisy_p2p / q_star_pkts.max(1.0),
            ),
        }
    };
    let dcqcn_q_star = DcqcnFluid::new(dcqcn.clone(), cfg.n_flows)
        .fixed_point()
        .q_star_pkts;
    let timely_q_star = TimelyFluid::patched_10g(cfg.n_flows).q_star_pkts();
    let panels = vec![
        panel("DCQCN", dcqcn_q_star, dcqcn_clean, dcqcn_noisy),
        panel("PatchedTIMELY", timely_q_star, timely_clean, timely_noisy),
    ];
    Fig20Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_resilient_timely_degraded() {
        let res = run(&Fig20Config {
            duration_s: 0.3,
            ..Default::default()
        });
        let dcqcn = &res.panels[0];
        let timely = &res.panels[1];
        let dcqcn_blowup = dcqcn.oscillation.1 / dcqcn.oscillation.0.max(0.02);
        let timely_blowup = timely.oscillation.1 / timely.oscillation.0.max(0.02);
        assert!(
            timely_blowup > 2.0 * dcqcn_blowup,
            "jitter must hurt the delay-based protocol more: \
             DCQCN ×{dcqcn_blowup:.2}, TIMELY ×{timely_blowup:.2}"
        );
        // DCQCN stays stable in absolute terms too.
        assert!(
            dcqcn.oscillation.1 < 1.0,
            "DCQCN with jitter should remain stable: {:.2}",
            dcqcn.oscillation.1
        );
    }
}

crate::impl_to_json!(Fig20Config {
    jitter_us,
    jitter_window_us,
    n_flows,
    duration_s,
    seed
});
crate::impl_to_json!(JitterPanel {
    protocol,
    queue_clean_kb,
    queue_jitter_kb,
    oscillation
});
crate::impl_to_json!(Fig20Result { panels });
