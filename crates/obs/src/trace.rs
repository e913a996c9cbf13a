//! Sim-time structured event tracing.
//!
//! Typed [`Event`]s are recorded into a **bounded ring buffer per context**
//! and exported as JSONL sorted by `(ctx, seq)`. The timestamp on every
//! record is *simulation* time in seconds — wall clock never appears — and a
//! context is single-threaded by construction (the main thread records under
//! context 0; `desim::par::par_map` jobs record under `1 + input index` via
//! [`with_context`]), so the export is byte-identical across `SIM_THREADS`
//! settings: same jobs, same per-job event order, same merge order.
//!
//! When a context's ring fills, the **oldest** events are overwritten (the
//! tail of a simulation is usually the interesting part); the number dropped
//! is reported per context by [`dropped_events`] and in the JSONL via each
//! record's monotonically increasing `seq` (a gap from 0 means truncation).

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default per-context ring capacity (events). Each event is a few tens of
/// bytes, so the worst case per context is a few MiB.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The recording context of the current thread; 0 = main/serial.
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// A typed trace event. The variants are the event taxonomy from DESIGN.md
/// "Observability model"; all payload fields are copies, never references,
/// so recording can happen from any layer without lifetime coupling.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A packet was ECN-marked (egress or ingress CE mark).
    EcnMark {
        /// Flow the marked packet belongs to.
        flow: u64,
        /// Link whose queue triggered the mark.
        link: u64,
        /// Queue occupancy (bytes) at mark time.
        queue_bytes: u64,
    },
    /// The receiver emitted a CNP toward a flow's sender.
    CnpSent {
        /// Flow the CNP throttles.
        flow: u64,
    },
    /// A congestion-control update changed a flow's sending rate.
    RateUpdate {
        /// Flow whose rate changed.
        flow: u64,
        /// New rate (bits per second).
        rate_bps: f64,
    },
    /// PFC pause asserted on a link.
    PfcPause {
        /// Paused link.
        link: u64,
    },
    /// PFC pause released on a link.
    PfcResume {
        /// Resumed link.
        link: u64,
    },
    /// TIMELY (or Patched TIMELY) computed a normalized RTT gradient.
    GradientSample {
        /// The normalized gradient `rtt_diff / min_rtt`.
        gradient: f64,
        /// The raw RTT sample that produced it (seconds).
        rtt_s: f64,
    },
    /// One RK4 step of the DDE integrator completed.
    DdeStep {
        /// Step index within the integration (1-based).
        step: u64,
        /// State dimension.
        dim: u64,
    },
    /// `fluid::History` compacted its backing buffer (front-drain).
    HistoryCompaction {
        /// Rows physically dropped by the drain.
        dropped_rows: u64,
        /// Rows retained after the drain.
        retained_rows: u64,
    },
    /// Fault plane: a link went down (link-flap outage start).
    LinkDown {
        /// The downed link.
        link: u64,
    },
    /// Fault plane: a link came back up (link-flap outage end).
    LinkUp {
        /// The restored link.
        link: u64,
    },
    /// Fault plane: a loss window dropped a packet in flight.
    FaultDrop {
        /// Flow the dropped packet belonged to.
        flow: u64,
        /// Link the packet was traversing.
        link: u64,
        /// True if the dropped packet was a control packet (CNP).
        control: bool,
    },
    /// Fault plane: jitter/delay-spike added extra delivery delay.
    FaultDelay {
        /// Link the delayed packet was traversing.
        link: u64,
        /// Extra delay added (seconds).
        extra_s: f64,
    },
    /// Fault plane: a pause-storm tick forced a PFC-style pause on a link.
    FaultPause {
        /// The force-paused link.
        link: u64,
    },
    /// Fault plane: a windowed fault effect started or ended on a link.
    FaultWindow {
        /// The affected link.
        link: u64,
        /// Effect label: `data_loss`, `cnp_loss`, `jitter` or `delay_spike`.
        effect: &'static str,
        /// True at window start, false at window end.
        starting: bool,
    },
    /// Fault plane: a mid-run parameter perturbation was applied.
    ParamPerturbed {
        /// Perturbation target label (e.g. `red_kmax`, `cc_rate_increase`).
        param: &'static str,
        /// Multiplicative factor applied.
        scale: f64,
    },
    /// The fluid-core divergence watchdog tripped and aborted an
    /// integration with a structured error.
    WatchdogTrip {
        /// Failing step index (1-based).
        step: u64,
        /// Max-norm of the state at the trip (NaN serialized as `null`).
        state_norm: f64,
    },
}

impl Event {
    /// The `type` tag used in the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EcnMark { .. } => "EcnMark",
            Event::CnpSent { .. } => "CnpSent",
            Event::RateUpdate { .. } => "RateUpdate",
            Event::PfcPause { .. } => "PfcPause",
            Event::PfcResume { .. } => "PfcResume",
            Event::GradientSample { .. } => "GradientSample",
            Event::DdeStep { .. } => "DdeStep",
            Event::HistoryCompaction { .. } => "HistoryCompaction",
            Event::LinkDown { .. } => "LinkDown",
            Event::LinkUp { .. } => "LinkUp",
            Event::FaultDrop { .. } => "FaultDrop",
            Event::FaultDelay { .. } => "FaultDelay",
            Event::FaultPause { .. } => "FaultPause",
            Event::FaultWindow { .. } => "FaultWindow",
            Event::ParamPerturbed { .. } => "ParamPerturbed",
            Event::WatchdogTrip { .. } => "WatchdogTrip",
        }
    }

    /// Append the payload fields as `"key": value` JSON pairs.
    fn push_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Event::EcnMark {
                flow,
                link,
                queue_bytes,
            } => {
                let _ = write!(
                    out,
                    ", \"flow\": {flow}, \"link\": {link}, \"queue_bytes\": {queue_bytes}"
                );
            }
            Event::CnpSent { flow } => {
                let _ = write!(out, ", \"flow\": {flow}");
            }
            Event::RateUpdate { flow, rate_bps } => {
                let _ = write!(out, ", \"flow\": {flow}, \"rate_bps\": ");
                crate::json::write_f64(out, *rate_bps);
            }
            Event::PfcPause { link } => {
                let _ = write!(out, ", \"link\": {link}");
            }
            Event::PfcResume { link } => {
                let _ = write!(out, ", \"link\": {link}");
            }
            Event::GradientSample { gradient, rtt_s } => {
                out.push_str(", \"gradient\": ");
                crate::json::write_f64(out, *gradient);
                out.push_str(", \"rtt_s\": ");
                crate::json::write_f64(out, *rtt_s);
            }
            Event::DdeStep { step, dim } => {
                let _ = write!(out, ", \"step\": {step}, \"dim\": {dim}");
            }
            Event::HistoryCompaction {
                dropped_rows,
                retained_rows,
            } => {
                let _ = write!(
                    out,
                    ", \"dropped_rows\": {dropped_rows}, \"retained_rows\": {retained_rows}"
                );
            }
            Event::LinkDown { link } => {
                let _ = write!(out, ", \"link\": {link}");
            }
            Event::LinkUp { link } => {
                let _ = write!(out, ", \"link\": {link}");
            }
            Event::FaultDrop {
                flow,
                link,
                control,
            } => {
                let _ = write!(
                    out,
                    ", \"flow\": {flow}, \"link\": {link}, \"control\": {control}"
                );
            }
            Event::FaultDelay { link, extra_s } => {
                let _ = write!(out, ", \"link\": {link}, \"extra_s\": ");
                crate::json::write_f64(out, *extra_s);
            }
            Event::FaultPause { link } => {
                let _ = write!(out, ", \"link\": {link}");
            }
            Event::FaultWindow {
                link,
                effect,
                starting,
            } => {
                let _ = write!(
                    out,
                    ", \"link\": {link}, \"effect\": \"{effect}\", \"starting\": {starting}"
                );
            }
            Event::ParamPerturbed { param, scale } => {
                let _ = write!(out, ", \"param\": \"{param}\", \"scale\": ");
                crate::json::write_f64(out, *scale);
            }
            Event::WatchdogTrip { step, state_norm } => {
                let _ = write!(out, ", \"step\": {step}, \"state_norm\": ");
                crate::json::write_f64(out, *state_norm);
            }
        }
    }
}

/// One recorded event with its ordering key.
#[derive(Debug, Clone)]
struct Record {
    seq: u64,
    t_s: f64,
    event: Event,
}

/// A bounded ring of records for one context.
#[derive(Debug)]
struct ContextBuf {
    ring: VecDeque<Record>,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct Sink {
    capacity: usize,
    contexts: BTreeMap<u64, ContextBuf>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            capacity: DEFAULT_CAPACITY,
            contexts: BTreeMap::new(),
        })
    })
}

fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> R {
    // Poisoning cannot corrupt the ring; recover rather than propagate.
    let mut guard = sink().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Is tracing enabled? One relaxed load; this is the only cost a disabled
/// instrumentation point pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on with the default per-context ring capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turn tracing on with an explicit per-context ring capacity (events).
pub fn enable_with_capacity(capacity: usize) {
    with_sink(|s| s.capacity = capacity.max(1));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off (recordings become no-ops; the buffer is kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discard all recorded events and per-context sequence state.
pub fn reset() {
    with_sink(|s| s.contexts.clear());
}

/// Run `f` with the current thread's recording context set to `ctx`,
/// restoring the previous context afterwards. `desim::par::par_map` job
/// closures use `1 + input index` so per-job event streams merge in input
/// order regardless of which worker ran the job.
pub fn with_context<R>(ctx: u64, f: impl FnOnce() -> R) -> R {
    let prev = CONTEXT.with(|c| c.replace(ctx));
    let out = f();
    CONTEXT.with(|c| c.set(prev));
    out
}

/// The current thread's recording context id.
pub fn current_context() -> u64 {
    CONTEXT.with(|c| c.get())
}

/// Stride between sibling context namespaces when parallel fan-outs nest.
pub const CONTEXT_STRIDE: u64 = 1 << 16;

/// The deterministic recording context for parallel job `index` (0-based)
/// forked from `parent`. Top-level jobs (parent 0) get `1 + index`; nested
/// fan-outs land in disjoint ranges as long as every individual fan-out is
/// narrower than [`CONTEXT_STRIDE`] jobs. Used by `desim::par::par_map`,
/// which derives each job's context from its *input index*, so the merged
/// export is independent of worker count and scheduling.
pub fn child_context(parent: u64, index: u64) -> u64 {
    parent * CONTEXT_STRIDE + 1 + index
}

/// Record `event` at simulation time `t_s` (seconds) under the current
/// context. No-op when tracing is disabled.
#[inline]
pub fn record(t_s: f64, event: Event) {
    if !enabled() {
        return;
    }
    record_always(t_s, event);
}

/// The slow path of [`record`], out of line so the disabled branch stays
/// small at call sites.
fn record_always(t_s: f64, event: Event) {
    let ctx = current_context();
    with_sink(|s| {
        let cap = s.capacity;
        let buf = s.contexts.entry(ctx).or_insert_with(|| ContextBuf {
            ring: VecDeque::with_capacity(cap.min(1024)),
            next_seq: 0,
            dropped: 0,
        });
        if buf.ring.len() == cap {
            buf.ring.pop_front();
            buf.dropped += 1;
        }
        let seq = buf.next_seq;
        buf.next_seq += 1;
        buf.ring.push_back(Record { seq, t_s, event });
    });
}

/// Total events overwritten by ring wrap-around, summed over contexts.
pub fn dropped_events() -> u64 {
    with_sink(|s| s.contexts.values().map(|c| c.dropped).sum())
}

/// Total events currently buffered.
pub fn buffered_events() -> u64 {
    with_sink(|s| s.contexts.values().map(|c| c.ring.len() as u64).sum())
}

/// Export the buffered trace as JSONL: one record per line, ordered by
/// `(ctx, seq)`, each line of the form
/// `{"ctx": 0, "seq": 3, "t_s": 0.00125, "type": "EcnMark", ...payload}`.
pub fn export_jsonl() -> String {
    use std::fmt::Write as _;
    with_sink(|s| {
        let mut out = String::new();
        for (ctx, buf) in &s.contexts {
            for r in &buf.ring {
                let _ = write!(out, "{{\"ctx\": {ctx}, \"seq\": {}, \"t_s\": ", r.seq);
                crate::json::write_f64(&mut out, r.t_s);
                out.push_str(", \"type\": \"");
                out.push_str(r.event.kind());
                out.push('"');
                r.event.push_fields(&mut out);
                out.push_str("}\n");
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Trace state is process-global; tests that toggle it must not
    /// interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_record_is_a_no_op() {
        let _g = serial();
        disable();
        reset();
        record(1.0, Event::CnpSent { flow: 1 });
        assert_eq!(buffered_events(), 0);
        assert!(export_jsonl().is_empty());
    }

    #[test]
    fn records_export_in_ctx_seq_order_with_sim_time() {
        let _g = serial();
        reset();
        enable();
        record(0.5, Event::CnpSent { flow: 7 });
        with_context(2, || {
            record(
                0.25,
                Event::RateUpdate {
                    flow: 7,
                    rate_bps: 5e9,
                },
            )
        });
        record(
            0.75,
            Event::EcnMark {
                flow: 1,
                link: 3,
                queue_bytes: 42,
            },
        );
        disable();
        let out = export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // ctx 0 first (both its events, in record order), then ctx 2.
        assert_eq!(
            lines[0],
            "{\"ctx\": 0, \"seq\": 0, \"t_s\": 0.5, \"type\": \"CnpSent\", \"flow\": 7}"
        );
        assert_eq!(
            lines[1],
            "{\"ctx\": 0, \"seq\": 1, \"t_s\": 0.75, \"type\": \"EcnMark\", \
             \"flow\": 1, \"link\": 3, \"queue_bytes\": 42}"
        );
        assert_eq!(
            lines[2],
            "{\"ctx\": 2, \"seq\": 0, \"t_s\": 0.25, \"type\": \"RateUpdate\", \
             \"flow\": 7, \"rate_bps\": 5000000000.0}"
        );
        reset();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _g = serial();
        reset();
        enable_with_capacity(2);
        for i in 0..5u64 {
            record(i as f64, Event::CnpSent { flow: i });
        }
        disable();
        assert_eq!(buffered_events(), 2);
        assert_eq!(dropped_events(), 3);
        let out = export_jsonl();
        // The newest two survive, with their original seq numbers.
        assert!(out.contains("\"seq\": 3"), "{out}");
        assert!(out.contains("\"seq\": 4"), "{out}");
        assert!(!out.contains("\"seq\": 0,"), "{out}");
        reset();
        with_sink(|s| s.capacity = DEFAULT_CAPACITY);
    }

    #[test]
    fn child_contexts_are_disjoint_across_nesting() {
        // Two sibling top-level jobs with nested fan-outs of up to
        // CONTEXT_STRIDE-1 jobs never collide.
        let a = child_context(0, 0);
        let b = child_context(0, 1);
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_ne!(
            child_context(a, CONTEXT_STRIDE - 2),
            child_context(b, 0),
            "sibling namespaces must not overlap"
        );
        assert_eq!(child_context(a, 0), CONTEXT_STRIDE + 1);
    }

    #[test]
    fn context_nesting_restores() {
        let _g = serial();
        assert_eq!(current_context(), 0);
        with_context(5, || {
            assert_eq!(current_context(), 5);
            with_context(9, || assert_eq!(current_context(), 9));
            assert_eq!(current_context(), 5);
        });
        assert_eq!(current_context(), 0);
    }

    #[test]
    fn all_event_kinds_serialize() {
        let _g = serial();
        reset();
        enable();
        let events = [
            Event::EcnMark {
                flow: 0,
                link: 0,
                queue_bytes: 0,
            },
            Event::CnpSent { flow: 0 },
            Event::RateUpdate {
                flow: 0,
                rate_bps: 1.5,
            },
            Event::PfcPause { link: 2 },
            Event::PfcResume { link: 2 },
            Event::GradientSample {
                gradient: -0.25,
                rtt_s: 60e-6,
            },
            Event::DdeStep { step: 1, dim: 21 },
            Event::HistoryCompaction {
                dropped_rows: 10,
                retained_rows: 90,
            },
            Event::LinkDown { link: 3 },
            Event::LinkUp { link: 3 },
            Event::FaultDrop {
                flow: 1,
                link: 3,
                control: true,
            },
            Event::FaultDelay {
                link: 3,
                extra_s: 25e-6,
            },
            Event::FaultPause { link: 3 },
            Event::FaultWindow {
                link: 3,
                effect: "data_loss",
                starting: true,
            },
            Event::ParamPerturbed {
                param: "red_kmax",
                scale: 0.25,
            },
            Event::WatchdogTrip {
                step: 512,
                state_norm: 3.1e13,
            },
        ];
        for e in events.iter().cloned() {
            record(0.0, e);
        }
        disable();
        let out = export_jsonl();
        for e in &events {
            assert!(out.contains(e.kind()), "missing {}: {out}", e.kind());
        }
        // Every line is a JSON object with balanced braces.
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        reset();
    }
}
