//! Shared by the engine's integration tests: a digest of everything a run
//! reports, and the small fixtures the scenarios are built from.
#![allow(dead_code)]

use desim::{SimDuration, SimTime};
use netsim::cc::FixedRate;
use netsim::{EngineConfig, FlowSpec, NodeId, Pacing, SimReport};

/// FNV-1a over a sequence of words, as 16 hex digits.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// [`fnv1a`] over everything a run reports.
pub fn digest(report: &SimReport) -> String {
    let mut words = Vec::new();
    for r in &report.fcts {
        words.extend([
            r.flow as u64,
            r.size_bytes,
            r.start_s.to_bits(),
            r.fct_s.to_bits(),
        ]);
    }
    words.extend([
        report.marked_packets,
        report.data_packets,
        report.cnps_sent,
        report.first_mark_time_s.map_or(u64::MAX, f64::to_bits),
        report.pfc_pauses,
        report.pfc_paused_s.to_bits(),
        report.fault_drops,
        report.fault_pauses,
        report.fault_paused_s.to_bits(),
        report.faults_injected,
        report.events_processed,
    ]);
    words.extend(&report.delivered_bytes);
    for (link, trace) in report.queue_traces.iter() {
        words.push(link.0 as u64);
        words.extend(
            trace
                .points()
                .iter()
                .flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]),
        );
    }
    for trace in &report.rate_traces {
        words.push(trace.len() as u64);
        words.extend(trace.iter().flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]));
    }
    fnv1a(words)
}

pub fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

pub fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// A config whose queue traces keep every sample (a change of one enqueue
/// or dequeue instant moves the digest).
pub fn full_trace_config() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.queue_trace_resolution_s = 1e-10;
    cfg.rate_trace_window = Some(us(20));
    cfg
}

pub fn fixed(src: NodeId, dst: NodeId, size: u64, rate_bps: f64, start: SimTime) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        size_bytes: Some(size),
        start,
        pacing: Pacing::PerPacket,
        cc: Box::new(FixedRate { rate_bps }),
        ack_chunk_bytes: 16_000,
    }
}
