//! Flow specs, pacing models and sender flow state (struct-of-arrays).
//!
//! Sender state is stored column-wise: one `Vec` per field, indexed by
//! [`FlowId`]. The engine's hot paths (pacer firings, ACK/CNP handling,
//! completion checks) each touch only two or three fields of a flow, so the
//! columnar layout keeps those accesses on dense, homogeneous cache lines
//! instead of striding over ~130-byte row structs — the difference is
//! measurable once incast workloads push the flow table past a thousand
//! entries. Columns are append-only and grow in lockstep via
//! `SenderFlows::push`; the receiver side's columns live with the engine's
//! host code.

use crate::cc::CongestionControl;
use crate::topology::NodeId;
use crate::types::FlowId;
use desim::SimTime;

/// How the sender spaces its packets (paper §4.2, "Impact of per-burst
/// pacing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Hardware rate limiter: every packet is individually spaced at the
    /// current rate (DCQCN; also TIMELY's "per-packet pacing" mode used for
    /// the model validation).
    PerPacket,
    /// TIMELY's implementation behaviour: chunks of `seg_bytes` go out
    /// back-to-back at line rate, with inter-chunk gaps chosen so the
    /// average equals the target rate.
    PerChunk {
        /// Segment size in bytes (16–64 KB in the paper).
        seg_bytes: u32,
    },
}

/// A flow to inject into the simulation.
#[derive(Debug)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer; `None` = long-lived (runs until sim end).
    pub size_bytes: Option<u64>,
    /// Start time.
    pub start: SimTime,
    /// Pacing model.
    pub pacing: Pacing,
    /// The congestion-control algorithm instance.
    pub cc: Box<dyn CongestionControl>,
    /// Completion-ACK interval in bytes: the receiver acks the last packet
    /// of every `ack_chunk_bytes` window (drives RTT sampling). For DCQCN
    /// this can be large (RTT unused); TIMELY sets it to the segment size.
    pub ack_chunk_bytes: u32,
}

/// Sender-side runtime state, one column per field.
#[derive(Debug, Default)]
pub(crate) struct SenderFlows {
    /// Source host.
    pub(crate) src: Vec<NodeId>,
    /// Destination host.
    pub(crate) dst: Vec<NodeId>,
    /// Total size, if finite.
    pub(crate) size_bytes: Vec<Option<u64>>,
    /// Flow start time.
    pub(crate) start: Vec<SimTime>,
    /// Pacing model.
    pub(crate) pacing: Vec<Pacing>,
    /// Congestion control instances.
    pub(crate) cc: Vec<Box<dyn CongestionControl>>,
    /// Current rate (bps) as last applied from the CC.
    pub(crate) rate_bps: Vec<f64>,
    /// Next payload byte offset to send.
    pub(crate) next_offset: Vec<u64>,
    /// Bytes since the last ACK-requested packet.
    pub(crate) since_ack_request: Vec<u32>,
    /// ACK chunk size.
    pub(crate) ack_chunk_bytes: Vec<u32>,
    /// Completion time (last payload byte arrived at the receiver).
    pub(crate) completed: Vec<Option<SimTime>>,
    /// Deterministic ECMP hash: seeds the per-hop equal-cost path choice on
    /// multipath topologies (fat-trees). Derived from the engine seed and
    /// the flow's endpoints, never from a runtime RNG.
    pub(crate) path_hash: Vec<u64>,
}

impl SenderFlows {
    /// Number of registered flows.
    pub(crate) fn len(&self) -> usize {
        self.src.len()
    }

    /// Append a flow built from `spec`, returning its id. All columns grow
    /// together, so `FlowId(len - 1)` indexes every column.
    pub(crate) fn push(&mut self, spec: FlowSpec, path_hash: u64) -> FlowId {
        let id = FlowId(self.len());
        self.src.push(spec.src);
        self.dst.push(spec.dst);
        self.size_bytes.push(spec.size_bytes);
        self.start.push(spec.start);
        self.pacing.push(spec.pacing);
        self.cc.push(spec.cc);
        self.rate_bps.push(0.0);
        self.next_offset.push(0);
        self.since_ack_request.push(0);
        self.ack_chunk_bytes.push(spec.ack_chunk_bytes.max(1));
        self.completed.push(None);
        self.path_hash.push(path_hash);
        id
    }

    /// Remaining payload bytes of flow `f`, `u64::MAX` for long-lived flows.
    pub(crate) fn remaining(&self, f: FlowId) -> u64 {
        match self.size_bytes[f.0] {
            Some(sz) => sz.saturating_sub(self.next_offset[f.0]),
            None => u64::MAX,
        }
    }

    /// True once every payload byte of flow `f` was handed to the NIC.
    pub(crate) fn fully_sent(&self, f: FlowId) -> bool {
        self.remaining(f) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedRate;

    fn spec(size: Option<u64>) -> FlowSpec {
        FlowSpec {
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            start: SimTime::ZERO,
            pacing: Pacing::PerPacket,
            cc: Box::new(FixedRate { rate_bps: 1e9 }),
            ack_chunk_bytes: 16_000,
        }
    }

    #[test]
    fn remaining_counts_down() {
        let mut flows = SenderFlows::default();
        let f = flows.push(spec(Some(5_000)), 0);
        assert_eq!(flows.remaining(f), 5_000);
        flows.next_offset[f.0] = 4_000;
        assert_eq!(flows.remaining(f), 1_000);
        flows.next_offset[f.0] = 5_000;
        assert!(flows.fully_sent(f));
    }

    #[test]
    fn long_lived_never_finishes() {
        let mut flows = SenderFlows::default();
        let f = flows.push(spec(None), 0);
        flows.next_offset[f.0] = u64::MAX / 2;
        assert!(!flows.fully_sent(f));
    }

    #[test]
    fn columns_grow_in_lockstep() {
        let mut flows = SenderFlows::default();
        let a = flows.push(spec(Some(1)), 7);
        let b = flows.push(spec(Some(2)), 9);
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        assert_eq!(flows.len(), 2);
        assert_eq!(flows.path_hash, vec![7, 9]);
        assert_eq!(flows.completed.len(), 2);
        assert_eq!(flows.ack_chunk_bytes.len(), 2);
    }
}
