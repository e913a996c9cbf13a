//! # workload — traffic generation and FCT metrics
//!
//! The paper's FCT case study (§5.1, Figures 13–16) uses "long and
//! short-lived flows, between pairs of randomly selected sender and receiver
//! nodes. The flow size distribution is derived from the traffic
//! distribution reported in \[2\] (DCTCP). The interarrival time of flows is
//! picked from an exponential distribution. The load on the bottleneck link
//! is varied by changing the mean of the distribution." This crate
//! implements exactly that generation model:
//!
//! * [`flowsize`] — empirical flow-size CDFs (the DCTCP web-search
//!   distribution and custom tables) with
//!   log-linear interpolation and exact mean computation;
//! * [`arrivals`] — Poisson arrival processes calibrated to a target load
//!   on a bottleneck link;
//! * [`incast`] — synchronized fan-in bursts (N senders → one receiver)
//!   for the datacenter-scale fat-tree scenarios;
//! * [`scenario`] — random sender/receiver pairing on the Figure 13
//!   dumbbell, flow-list generation, and canned [`FaultProfile`]s that
//!   compile to seeded `faults` schedules for degradation studies;
//! * [`fct`] — flow-completion-time statistics: the paper's median and
//!   90th-percentile small-flow metrics (small = < 100 KB, following
//!   pFabric) and full CDFs for Figure 15.

#![deny(missing_docs)]
// Library panic discipline (root `clippy.toml`, DESIGN.md §8.1); `xtask`'s
// `headers_deny_what_the_table_demands` test holds this header to
// `xtask::CRATE_LINTS`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod arrivals;
pub mod fct;
pub mod flowsize;
pub mod incast;
pub mod scenario;

pub use arrivals::PoissonArrivals;
pub use fct::FctStats;
pub use flowsize::FlowSizeDist;
pub use incast::{generate_incast, IncastBurst, IncastConfig};
pub use scenario::{fault_schedule, generate_flows, FaultProfile, FlowDescriptor, ScenarioConfig};
