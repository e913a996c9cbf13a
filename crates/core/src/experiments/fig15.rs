//! Figure 15: CDF of small-flow FCT at load 0.8 — the full distribution
//! behind Figure 14's quantiles, showing TIMELY's heavy tail.

use crate::experiments::fig14::{self, Cell, Runs};
use crate::experiments::Series;
use crate::scenarios::Protocol;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig15Config {
    /// The load factor (0.8 in the paper).
    pub load: f64,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Arrival horizon (seconds).
    pub horizon_s: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig15Config {
    fn default() -> Self {
        Fig15Config {
            load: 0.8,
            protocols: vec![Protocol::Dcqcn, Protocol::Timely, Protocol::PatchedTimely],
            horizon_s: 0.4,
            seed: 1,
        }
    }
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    /// Per protocol: `(fct_ms, cumulative fraction)` CDF of small flows.
    pub cdfs: Vec<(String, Series)>,
}

/// Figure 15's cells: one per protocol at the configured load.
pub fn cells(cfg: &Fig15Config) -> Vec<Cell> {
    fig14::sweep(&cfg.protocols, &[cfg.load], cfg.horizon_s, cfg.seed)
}

/// Figure 15 read off `runs`, which hold its [`cells`].
pub fn view(cfg: &Fig15Config, runs: &Runs) -> Fig15Result {
    let cdf = |cell: Cell| {
        let stats = fig14::fct_stats(runs.get(cell).0);
        let cdf = stats
            .small_cdf()
            .into_iter()
            .map(|(fct_s, p)| (fct_s * 1e3, p));
        (cell.protocol.label().to_string(), cdf.collect())
    };
    Fig15Result {
        cdfs: cells(cfg).into_iter().map(cdf).collect(),
    }
}

/// Run: every cell once, no queue trace kept.
pub fn run(cfg: &Fig15Config) -> Fig15Result {
    view(cfg, &Runs::new(cells(cfg), &[]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_based_tail_heavier_than_dcqcn() {
        let cfg = Fig15Config {
            protocols: vec![Protocol::Dcqcn, Protocol::PatchedTimely],
            horizon_s: 0.15,
            seed: 2,
            load: 0.8,
        };
        let res = run(&cfg);
        let max_fct = |s: &Series| s.iter().map(|&(x, _)| x).fold(0.0, f64::max);
        let dcqcn_max = max_fct(&res.cdfs[0].1);
        let patched_max = max_fct(&res.cdfs[1].1);
        assert!(
            patched_max > dcqcn_max,
            "delay-based max FCT {patched_max:.2} ms vs DCQCN {dcqcn_max:.2} ms"
        );
        // CDFs are valid distributions.
        for (_, cdf) in &res.cdfs {
            assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }
}

crate::impl_to_json!(Fig15Config {
    load,
    protocols,
    horizon_s,
    seed
});
crate::impl_to_json!(Fig15Result { cdfs });
