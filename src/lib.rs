//! # ecn-delay — umbrella crate
//!
//! Facade over the workspace crates so examples and downstream users can
//! reach every layer through one dependency:
//!
//! * [`desim`] — deterministic discrete-event kernel (time, events, RNG);
//! * [`fluid`] — DDE integrators with dense history;
//! * [`control`] — delayed-LTI stability analysis;
//! * [`models`] — the paper's fluid models (DCQCN, TIMELY, Patched TIMELY);
//! * [`netsim`] — the packet-level simulator;
//! * [`protocols`] — end-host congestion control over `netsim`;
//! * [`workload`] — flow-size distributions, arrivals, FCT metrics;
//! * [`experiments`] — the per-figure experiment layer (`ecn-delay-core`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use control;
pub use desim;
pub use ecn_delay_core as experiments;
pub use fluid;
pub use models;
pub use netsim;
pub use protocols;
pub use workload;
