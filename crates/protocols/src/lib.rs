//! # protocols — DCQCN, TIMELY and Patched TIMELY endpoints
//!
//! Packet-level implementations of the three protocols analyzed in the
//! paper, as [`netsim::CongestionControl`] state machines:
//!
//! * [`dcqcn`] — the RP (reaction point) of \[31\]: CNP-driven multiplicative
//!   decrease with the DCTCP-style α estimator (Eqs 1–2), QCN-style
//!   recovery through five fast-recovery stages driven by both a byte
//!   counter and a timer, additive increase `R_AI`, optional hyper
//!   increase. Flows start at line rate ("DCQCN does not have slow start");
//! * [`timely`] — Algorithm 1 of \[21\]: per-completion RTT samples, EWMA RTT
//!   gradient, additive increase below `T_low` / on non-positive gradient,
//!   gradient-proportional multiplicative decrease, absolute backoff above
//!   `T_high`, plus the hyperactive-increase (HAI) mode; and, with
//!   [`Band::Patched`] in the gradient band, the paper's Algorithm 2: the
//!   continuous weight `w(g)` and an absolute-RTT error term against
//!   `RTT_ref`.
//!
//! The NP (CNP coalescing with timer τ) and CP (RED marking at egress) live
//! in `netsim`, mirroring where those functions run in real deployments
//! (receiver NIC and switch respectively).

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
mod patched_timely;
pub mod timely;

pub use dcqcn::{DcqcnCc, DcqcnCcParams};
pub use timely::{Band, TimelyCc, TimelyCcParams};
