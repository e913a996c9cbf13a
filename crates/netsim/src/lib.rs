//! # netsim — packet-level discrete-event network simulator
//!
//! The paper validates its fluid models against packet-level NS-3
//! simulations ("Our simulations in NS3 implement all known features of the
//! protocols"). This crate is that substrate, built from scratch on the
//! `desim` kernel:
//!
//! * [`topology`] — hosts, switches, simplex links with bandwidth and
//!   propagation delay, shortest-path routing with deterministic ECMP;
//!   builders for the paper's topologies;
//! * [`config`] — [`EngineConfig`]: RED (Eq 3) or PI (Eq 32) marking, the
//!   marking point, PFC, the fault schedule;
//! * [`engine`] — the event loop, its ticket contract and the per-flow CC
//!   clocks. Each decision it dispatches to has its own private module:
//!   `port` (output-queued store-and-forward ports, control before data,
//!   optional PFC PAUSE/RESUME), `aqm` (mark at egress, §5.2, or ingress,
//!   Figure 17; RED or PI), `host` (per-packet or per-chunk pacing; CNPs
//!   coalesced to τ, RTT-sample ACKs, completions) and `fault_plane` (a
//!   `faults::FaultSchedule`, executed);
//! * [`flow`] — flow specs and pacing models; [`cc`] — the
//!   congestion-control trait the `protocols` crate implements;
//! * [`trace`], [`types`] — per-link queue traces; packets.
//!
//! Everything is deterministic given the configuration and seed.

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

pub mod cc;
pub mod config;
pub mod engine;
pub mod flow;
pub mod topology;
pub mod trace;
pub mod types;

pub use cc::{CcEvent, CcUpdate, CongestionControl};
pub use config::{EngineConfig, MarkingMode, PfcConfig, RedConfig};
pub use engine::{Engine, FctRecord, SimReport};
pub use flow::{FlowSpec, Pacing};
pub use topology::{LinkId, NodeId, Topology};
pub use trace::LinkTraceMap;
pub use types::{Packet, PacketKind};
