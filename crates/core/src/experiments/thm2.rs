//! Theorem 2: DCQCN's rates converge exponentially. Figure 6's discrete
//! AIMD runner at two, three and four flows, each measured per-cycle decay
//! beside the theorem's contraction bound.

use crate::experiments::fig6::{self, Fig6Config};

/// Configuration. The three starts and the 80 cycles are fixed, so the
/// spec is empty.
#[derive(Debug, Clone, Default)]
pub struct Thm2Config {}

/// One row per start: `(flows, α*, contraction bound, measured decay)`;
/// Theorem 2 holds where the decay is at most the bound.
pub type Thm2Result = Vec<(usize, f64, f64, f64)>;

/// Run Figure 6's model from each start.
pub fn run(_: &Thm2Config) -> Thm2Result {
    [
        vec![0.9, 0.1],
        vec![0.5, 0.3, 0.2],
        vec![0.4, 0.3, 0.2, 0.1],
    ]
    .into_iter()
    .map(|initial_fractions| {
        let n = initial_fractions.len();
        let res = fig6::run(&Fig6Config {
            initial_fractions,
            cycles: 80,
        });
        (n, res.alpha_star, res.contraction_bound, res.measured_decay)
    })
    .collect()
}

crate::impl_to_json!(Thm2Config {});
