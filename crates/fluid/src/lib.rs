//! # fluid — delay-differential-equation integrators
//!
//! The fluid models in the CoNEXT'16 *"ECN or Delay"* paper (Figures 1 and 7)
//! are systems of **delay differential equations** (DDEs): the right-hand
//! sides reference delayed quantities such as the marking probability
//! `p(t − τ*)` and delayed queue lengths `q(t − τ′)`, and for TIMELY the
//! delay itself is state-dependent (`τ′ = q/C + MTU/C + D_prop`, Eq 24).
//!
//! This crate provides what those models need and nothing more:
//!
//! * [`History`] — a dense, linearly interpolated record of the solution,
//!   queried by the model for arbitrary delayed lookups;
//! * [`LaneSystem`] + [`try_integrate`] ([`dde`]) — the one fixed-step RK4
//!   DDE integrator, by the method of steps: delayed values are read from
//!   the accumulated history, whose pre-`t0` segment is the constant
//!   initial state (the paper's "flows start at line rate"). It steps a
//!   slice of lanes in lockstep — one model, or B sweep configs over one
//!   `[state_dim × B]` struct-of-arrays block with per-lane divergence
//!   reporting;
//! * [`StagedLane`] / [`Stages`] — the integrator's stage slots
//!   ([`stage`]): a lane kernel whose delayed lookups depend on `t` alone
//!   builds what it derives from delayed state once per stage *instant* of
//!   an RK4 step (two per step) rather than once per stage (four);
//! * [`FlowClasses`] — flow-class reduction ([`classes`]): flows with
//!   bitwise-identical initial state and parameters carry bitwise-identical
//!   trajectories, so the models integrate one representative per class
//!   ([`FlowClassSystem`], [`try_integrate_classes`]) and show the recorded
//!   trace in the N-flow layout;
//! * [`Trace`] — a recorded solution with per-component series extraction
//!   and decimation, the common currency of every figure runner; it can be
//!   a column view of narrower stored rows, which is how a K-class run is
//!   read in the N-flow layout without an N-wide copy.
//!
//! The integrator is deliberately explicit and fixed-step: the models have
//! modest stiffness, delays of a few microseconds set a natural step-size
//! bound anyway, and bit-for-bit reproducibility matters more than adaptive
//! cleverness here.

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

pub mod classes;
pub mod dde;
pub mod history;
pub mod stage;
pub mod trace;

pub use classes::{try_integrate_classes, FlowClassSystem, FlowClasses, FlowLayout};
pub use dde::{lane_of, pack_lanes, try_integrate, LaneSystem};
pub use history::History;
pub use stage::{StageInstant, StagedLane, Stages};
pub use trace::Trace;
