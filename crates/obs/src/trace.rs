//! Sim-time structured event tracing.
//!
//! Typed [`Event`]s are recorded into the current context's bounded ring
//! (the crate's one ring type) and exported as JSONL sorted by `(ctx, seq)`.
//! The timestamp on every record is *simulation* time in seconds — wall
//! clock never appears — and contexts follow job input indices
//! ([`crate::in_context`]), so the export is byte-identical across
//! `SIM_THREADS` settings: same jobs, same per-job event order, same merge
//! order.
//!
//! When a context's ring fills, the **oldest** events are overwritten (the
//! tail of a simulation is usually the interesting part); the number dropped
//! is reported by [`dropped_events`] and in the JSONL via each record's
//! monotonically increasing `seq` (a gap from 0 means truncation).

/// Per-context ring capacity (events). Each event is a few tens of bytes,
/// so the worst case per context is a few MiB.
pub(crate) const CAPACITY: usize = 1 << 18;

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
            Event::PfcPause { link }
            | Event::PfcResume { link }
            | Event::LinkDown { link }
            | Event::LinkUp { link }
            | Event::FaultPause { link } => {
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

/// One recorded event; its `(ctx, seq)` key is the ring's.
pub(crate) struct Record {
    t_s: f64,
    event: Event,
}

/// Is tracing enabled? One relaxed load; this is the only cost a disabled
/// instrumentation point pays.
#[inline(always)]
pub fn enabled() -> bool {
    crate::on(crate::TRACE)
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
    let ctx = crate::current_context();
    crate::with_state(|s| s.trace.push(ctx, Record { t_s, event }));
}

/// Total events overwritten by ring wrap-around, summed over contexts.
pub fn dropped_events() -> u64 {
    crate::with_state(|s| s.trace.dropped())
}

/// Export the buffered trace as JSONL: one record per line, ordered by
/// `(ctx, seq)`, each line of the form
/// `{"ctx": 0, "seq": 3, "t_s": 0.00125, "type": "EcnMark", ...payload}`.
pub fn export_jsonl() -> String {
    crate::with_state(|s| render(&s.trace))
}

fn render(rings: &crate::Rings<Record>) -> String {
    rings.export_jsonl(|out, r| {
        crate::json::write_f64(out, r.t_s);
        out.push_str(", \"type\": \"");
        out.push_str(r.event.kind());
        out.push('"');
        r.event.push_fields(out);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rings;

    fn rec(t_s: f64, event: Event) -> Record {
        Record { t_s, event }
    }

    #[test]
    fn records_export_in_ctx_seq_order_with_sim_time() {
        let mut rings = Rings::new(CAPACITY);
        rings.push(0, rec(0.5, Event::CnpSent { flow: 7 }));
        rings.push(
            2,
            rec(
                0.25,
                Event::RateUpdate {
                    flow: 7,
                    rate_bps: 5e9,
                },
            ),
        );
        rings.push(
            0,
            rec(
                0.75,
                Event::EcnMark {
                    flow: 1,
                    link: 3,
                    queue_bytes: 42,
                },
            ),
        );
        let out = render(&rings);
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
    }

    #[test]
    fn all_event_kinds_serialize() {
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
        let mut rings = Rings::new(CAPACITY);
        for e in events.iter().cloned() {
            rings.push(0, rec(0.0, e));
        }
        let out = render(&rings);
        for e in &events {
            assert!(out.contains(e.kind()), "missing {}: {out}", e.kind());
        }
        // Every line is a JSON object on its own.
        for line in out.lines() {
            assert!(crate::json::parse(line).is_ok(), "{line}");
        }
    }
}
