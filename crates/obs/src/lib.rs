//! # obs — zero-cost, deterministic instrumentation
//!
//! The simulator's observability layer (DESIGN.md "Observability model"):
//!
//! * [`metrics`] — a process-global [`metrics::Registry`] of named counters,
//!   gauges and fixed-bucket histograms with a deterministic, name-sorted
//!   JSON snapshot;
//! * [`trace`] — sim-time structured event tracing: typed [`Event`]s
//!   recorded into a bounded per-context ring buffer and exported as JSONL
//!   keyed by *simulation* time only (never wall clock), so traces are
//!   byte-identical across `SIM_THREADS` settings;
//! * [`span`] — wall-clock span timers for bench-phase attribution
//!   (integrate / locate / compact / event-dispatch). This is the module
//!   of the sim layer that reads the wall clock (its two reads carry the
//!   `#[expect]` for the `Instant::now` ban of `clippy.toml`, as
//!   `desim::par` does for the `thread::scope` one);
//! * [`timeseries`] — windowed, downsampled time-series plus log-bucketed
//!   streaming histograms (HDR-style) so queue/rate trajectories and FCT
//!   percentiles at incast scale cost O(windows + buckets), not O(samples);
//! * [`flight`] — the causal flight recorder: a bounded per-context ring of
//!   recent event-core operations with scheduled-by back-pointers, dumped as
//!   JSONL when a `SimError` site calls [`flight::dump_on_error`];
//! * [`json`] — the workspace's one JSON value tree, reader and writers. The
//!   exporters above write through it, and so does every other crate: `obs`
//!   is the bottom of the crate graph.
//!
//! Everything is **off by default**. A disabled instrumentation point costs
//! one relaxed atomic load and a predictable branch — no locks, no
//! allocation, no clock reads — which keeps the overhead on the hot DDE and
//! packet paths under the 1% bench budget. Figure binaries enable the layer
//! via `--trace <path>` / `--metrics <path>` (see `bench::obs_cli`).
//!
//! ## Determinism contract
//!
//! * Trace events carry simulation time (`t_s`, seconds) and are ordered by
//!   `(context, seq)` where `seq` is the record order *within* a context and
//!   a context never spans threads — `desim::par::par_map` jobs each record
//!   under their own context id (input index), so the exported JSONL is
//!   independent of worker count and scheduling.
//! * Counters are commutative sums of per-event increments; their totals do
//!   not depend on thread interleaving.
//! * Gauges are last-write-wins and must only be set from deterministic
//!   (serial or per-context) code.
//! * Wall-clock readings never enter traces or metrics — spans live in a
//!   separate accumulator drained only by the bench harness.

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

pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use span::Phase;
pub use trace::Event;
