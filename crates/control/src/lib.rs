//! # control — control-theoretic analysis toolkit
//!
//! The paper's stability results (Figures 3 and 11, Appendix A) come from a
//! classical pipeline: linearize the fluid model around its fixed point,
//! Laplace-transform the linearized delay system, and compute the **phase
//! margin** of the open-loop transfer function (Bode stability criterion).
//!
//! This crate implements that pipeline numerically, avoiding the paper's
//! hand algebra while computing the same quantity:
//!
//! * [`complex`] — a self-contained `Complex64` (the workspace deliberately
//!   owns its numerics; the models need a handful of operations);
//! * [`delay_lti`] — delayed LTI state-space systems with multiple discrete
//!   delays, one allocation-free transfer-function evaluator and the dense
//!   LU solve it runs on;
//! * [`margins`] — the adaptive gain-crossover search and phase margin;
//! * [`linearize`] — central finite-difference Jacobians of a nonlinear
//!   vector function (used to linearize fluid models at the fixed point);
//! * [`roots`] — Brent's scalar root finder for fixed-point equations such
//!   as the paper's Eq 11.

#![deny(missing_docs)]
// Library panic discipline (root `clippy.toml`, DESIGN.md §8.1); `xtask`'s
// `headers_deny_what_the_table_demands` test holds this header to
// `xtask::CRATE_LINTS`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod complex;
pub mod delay_lti;
pub mod linearize;
pub mod margins;
pub mod roots;

pub use complex::Complex64;
pub use delay_lti::{DelayLti, DelayLtiEvaluator};
pub use margins::{phase_margin, MarginReport, NoCrossing};
