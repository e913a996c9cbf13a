//! # models — the paper's fluid models and discrete analysis
//!
//! Everything analytical in *"ECN or Delay: Lessons Learnt from Analysis of
//! DCQCN and TIMELY"* (CoNEXT 2016) lives here:
//!
//! * [`dcqcn`] — the DCQCN fluid model of Figure 1 (extended per-flow as in
//!   §3.1), its unique fixed point (Theorem 1, Eqs 9–13), the closed-form
//!   approximation of `p*` (Eq 14), and the linearized loop used for the
//!   phase-margin plots of Figure 3; its [`Marking`] is RED (Eq 3) or PI
//!   marking at the switch (Eq 32, Figure 18: fair *and* pinned queue);
//! * [`timely`] — the TIMELY family of Figure 7 (Eqs 20–24) as one model
//!   whose gradient-band rule is a [`TimelyLaw`]: TIMELY as published, with
//!   no fixed point (Theorem 3) and infinitely many under the `≤`→`<`
//!   modification (Theorem 4); Patched TIMELY (Algorithm 2, Eqs 29–31), with
//!   a unique fair fixed point and the linearization behind Figure 11,
//!   including the queue-dependent feedback delay of Eq 24 that caps its
//!   stable range; and Patched TIMELY with an end-host PI (Eq 32, Figure 19:
//!   pinned queue, arbitrary fairness — Theorem 6);
//! * [`pi`] — the PI gains both PI variants use, and where the controller
//!   runs decides what it delivers (Theorem 6);
//! * [`discrete`] — the discrete AIMD model of §3.3 (Eqs 15–19, Appendix B)
//!   proving exponential convergence of DCQCN rates;
//! * [`jitter`] — deterministic piecewise-constant feedback-delay jitter for
//!   the resilience comparison of Figure 20;
//! * [`units`] — conversions between human units (Gbps, KB, µs) and the
//!   model's internal packet units.
//!
//! ## Unit convention
//!
//! All fluid state is expressed in **packets**: queue lengths in packets,
//! rates in packets/second, so the marking exponents `(1−p)^{τ'·R_C}` are
//! dimensionless exactly as written in the paper. Constructors take human
//! units and convert once.

#![deny(missing_docs)]
// The determinism, crash-safety and panic bans (root `clippy.toml`,
// DESIGN.md §8.1); `xtask`'s `headers_deny_what_the_table_demands` test holds
// this header to `xtask::CRATE_LINTS`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod dcqcn;
pub mod discrete;
pub mod jitter;
pub mod pi;
pub mod timely;
pub mod units;

mod patched_timely;

pub use dcqcn::{DcqcnFluid, DcqcnParams, Marking};
pub use timely::{TimelyFluid, TimelyLaw, TimelyParams};
