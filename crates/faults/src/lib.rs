//! Deterministic fault injection and structured simulator errors.
//!
//! The paper's sharpest results are about behavior under stress — PFC pause
//! storms, incast-like collapse with 64 KB bursts (Figure 10), instability
//! windows at awkward flow counts — yet a simulator exercised only on clean
//! topologies never reaches those regimes. This crate provides the two
//! pieces needed to explore them reproducibly:
//!
//! * [`FaultSchedule`]: a typed, seeded schedule of fault events (link
//!   flaps, per-link packet/CNP loss, RTT jitter and delay spikes, PFC
//!   pause storms, mid-run parameter perturbation) that `netsim::Engine`
//!   compiles onto its event queue. All randomness is drawn from
//!   [`SimRng`](desim::SimRng) sub-streams keyed by `(seed, link id)` via
//!   [`link_stream`], so fault runs are byte-identical across `SIM_THREADS`
//!   and unaffected by unrelated schedule entries.
//! * [`SimError`]: the workspace structured-error type. Config and topology
//!   validation reject bad inputs at construction, and the fluid core's
//!   divergence watchdog reports NaN/Inf or exploding state as a
//!   [`SimError::Divergence`] diagnostic instead of aborting, so sweep
//!   drivers record the failed point and continue.
//!
//! Schedules can be built programmatically (builder methods on
//! [`FaultSchedule`]) or parsed from a JSON spec file ([`spec`]), which is
//! what the `ext_faults` binary's `--faults <spec.json>` flag consumes.

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

pub mod error;
pub mod schedule;
pub mod spec;

pub use error::{SimError, SimResult};
pub use schedule::{link_stream, FaultEvent, FaultKind, FaultSchedule, ParamTarget};
pub use spec::parse_schedule;
