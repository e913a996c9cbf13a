//! # netsim — packet-level discrete-event network simulator
//!
//! The paper validates its fluid models against packet-level NS-3
//! simulations ("Our simulations in NS3 implement all known features of the
//! protocols"). This crate is that substrate, built from scratch on the
//! `desim` kernel:
//!
//! * [`topology`] — nodes (hosts/switches), simplex links with bandwidth and
//!   propagation delay, shortest-path static routing; builders for the
//!   paper's two topologies (N-senders-one-switch for validation, the
//!   Figure 13 dumbbell for the FCT study);
//! * switch behaviour inside [`engine`] — output-queued, store-and-
//!   forward forwarding with per-port FIFO data queues, a strict-priority
//!   control queue (CNPs/ACKs are prioritized, as both protocols do for
//!   feedback), shared-buffer accounting, and RED/ECN marking on **egress**
//!   (mark decided when the packet starts transmission, from the queue at
//!   that instant — the behaviour §5.2 identifies as the key ECN advantage)
//!   or optionally on **ingress** (Figure 17's destabilizing variant);
//! * optional PFC-style PAUSE/RESUME per link (an extension; the paper's
//!   analysis assumes ECN triggers before PFC and ignores it);
//! * [`flow`] — sender flows with per-packet pacing (hardware rate limiters,
//!   DCQCN) or per-chunk pacing (TIMELY's burst transmission of 16–64 KB
//!   segments at line rate), receiver-side CNP generation with the `τ`
//!   coalescing timer, and per-chunk RTT completion samples;
//! * [`cc`] — the congestion-control trait implemented by the `protocols`
//!   crate (DCQCN, TIMELY, Patched TIMELY);
//! * [`engine`] — the deterministic event loop plus queue/rate/FCT tracing.
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
pub use config::{MarkingMode, PfcConfig, RedConfig};
pub use engine::{Engine, EngineConfig, FctRecord, SimReport};
pub use flow::{FlowSpec, Pacing};
pub use topology::{LinkId, NodeId, Topology};
pub use trace::LinkTraceMap;
pub use types::{Packet, PacketKind};
