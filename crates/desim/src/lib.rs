//! # desim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the packet-level simulator used to
//! reproduce the CoNEXT'16 paper *"ECN or Delay: Lessons Learnt from Analysis
//! of DCQCN and TIMELY"*. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation time with
//!   convenient constructors (`SimDuration::micros(50)`) and exact arithmetic,
//!   so event ordering is never subject to floating-point noise;
//! * [`EventQueue`] — a two-level calendar queue (a 64 µs window of 4096
//!   buckets of 16 ns, 4096 half-window buckets reaching ≈ 134 ms beyond
//!   it, a heap past that; two-level occupancy bitmaps, arena-backed
//!   entries) with a monotonically increasing tie-break ticket,
//!   guaranteeing **deterministic** FIFO ordering among simultaneous
//!   events at O(1) push/pop for near-future traffic; entries cannot be
//!   cancelled; the binary-heap queue it replaced survives as test support
//!   (`tests/support/event_ref.rs`), the oracle for the differential
//!   property test;
//! * [`rng::SimRng`] — a small, seedable xoshiro256** generator so every
//!   experiment is exactly reproducible from its seed;
//! * [`stats`] — online statistics (time-weighted averages, percentile
//!   estimation over exact samples, histograms) used for queue occupancy and
//!   flow-completion-time reporting;
//! * [`par`] — deterministic ordered fork-join (`par_map` over scoped
//!   threads) for embarrassingly-parallel sweeps; the only sanctioned use of
//!   `std::thread` in the simulation crates (`SIM_THREADS` pins the worker
//!   count, results always come back in input order).
//!
//! The kernel deliberately contains **no networking concepts**: links,
//! switches and protocols live in the `netsim` and `protocols` crates. This
//! mirrors the separation in mature event-driven stacks (cf. smoltcp's
//! "simplicity and robustness" design goals): the kernel is small enough to
//! be exhaustively tested, and everything above it is pure library code.

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

pub mod event;
pub mod invariants;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
