//! Core simulator value types: packets, NIC sends and flow identifiers.

use crate::topology::NodeId;
use desim::SimTime;

/// Flow identifier (index into the engine's flow table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// What a packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment carrying `payload` bytes of the flow.
    Data {
        /// Payload bytes in this packet.
        payload: u32,
        /// True when the receiver should emit a completion ACK after this
        /// packet (last packet of a pacing chunk — TIMELY's RTT probe).
        ack_request: bool,
        /// True on the final packet of a finite flow.
        last_of_flow: bool,
        /// When the first byte of this packet's chunk left the sender;
        /// echoed in the completion ACK so the RTT sample spans the whole
        /// chunk (hardware encodes this in the WQE; we carry it inline).
        chunk_sent_at: SimTime,
    },
    /// Completion acknowledgement for a chunk (carries the echoed send
    /// timestamp so the sender can compute the RTT sample).
    Ack {
        /// When the first byte of the acknowledged chunk left the sender.
        chunk_sent_at: SimTime,
    },
    /// Congestion Notification Packet (DCQCN NP → RP).
    Cnp,
}

/// A packet in flight or queued.
///
/// Simulator luxury: metadata that real hardware would encode in headers
/// (timestamps, flow ids) is carried directly; only `size_bytes` affects
/// timing.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Origin host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// The flow's ECMP hash: switches route on the packet alone, as
    /// hardware hashes the header, without reading the sender's state.
    pub path_hash: u64,
    /// Wire size in bytes (headers included).
    pub size_bytes: u32,
    /// Payload kind.
    pub kind: PacketKind,
    /// ECN Congestion-Experienced mark.
    pub ecn_marked: bool,
    /// When its last hop began (its final `Deliver` was scheduled); until
    /// then, when it was created.
    pub last_hop_at: SimTime,
}

impl Packet {
    /// True for CNP/ACK control packets (strict-priority, never marked).
    pub fn is_control(&self) -> bool {
        matches!(self.kind, PacketKind::Ack { .. } | PacketKind::Cnp)
    }

    /// Payload bytes carried (0 for control packets).
    pub fn payload_bytes(&self) -> u64 {
        match self.kind {
            PacketKind::Data { payload, .. } => payload as u64,
            _ => 0,
        }
    }
}

/// A host NIC's work request: one data packet of a flow, as its pacer
/// released it. What a data packet carries beyond this — endpoints, ECMP
/// hash, wire size — is the flow's and the engine's, fixed before release,
/// so the NIC builds the [`Packet`] only when it starts serializing it.
///
/// 16 bytes: the payload's two top bits hold the ACK-request and
/// last-of-flow flags, which is why [`EngineConfig::validate`] keeps the MTU
/// below 2³⁰ bytes and [`Engine::try_add_flow`] the flow index below 2³².
///
/// [`EngineConfig::validate`]: crate::config::EngineConfig::validate
/// [`Engine::try_add_flow`]: crate::engine::Engine::try_add_flow
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Send {
    flow: u32,
    payload: u32,
    /// The release instant: the packet's `chunk_sent_at` and, until its
    /// last hop, its `last_hop_at`.
    pub(crate) released_at: SimTime,
}

impl Send {
    const ACK_REQUEST: u32 = 1 << 31;
    const LAST_OF_FLOW: u32 = 1 << 30;
    /// Payloads stay below this, so the two flag bits are free.
    pub(crate) const MAX_PAYLOAD: u32 = Self::LAST_OF_FLOW;

    pub(crate) fn new(
        flow: FlowId,
        payload: u32,
        ack_request: bool,
        last_of_flow: bool,
        released_at: SimTime,
    ) -> Self {
        debug_assert!(payload < Self::MAX_PAYLOAD && flow.0 <= u32::MAX as usize);
        let flags = if ack_request { Self::ACK_REQUEST } else { 0 }
            | if last_of_flow { Self::LAST_OF_FLOW } else { 0 };
        Send {
            flow: flow.0 as u32,
            payload: payload | flags,
            released_at,
        }
    }

    pub(crate) fn flow(self) -> FlowId {
        FlowId(self.flow as usize)
    }

    pub(crate) fn payload(self) -> u32 {
        self.payload & (Self::MAX_PAYLOAD - 1)
    }

    pub(crate) fn ack_request(self) -> bool {
        self.payload & Self::ACK_REQUEST != 0
    }

    pub(crate) fn last_of_flow(self) -> bool {
        self.payload & Self::LAST_OF_FLOW != 0
    }
}

/// Index handle into a [`PacketArena`]; the currency the engine's event
/// queue and switch port queues trade in instead of 64-byte [`Packet`]
/// values.
///
/// Handles are plain indices (no generation counter): the engine's packet
/// lifecycle is strictly linear — allocated when a NIC starts serializing
/// the packet (a data packet) or when a receiver answers one (a control
/// packet), moved through port queues and `Deliver` events, freed exactly
/// once at host consumption or a fault drop — so a handle can never outlive
/// its slot. Nothing reads a handle's value but the arena: slots are
/// storage, not identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketHandle(u32);

/// Slab allocator for in-flight packets with free-list reuse.
///
/// The arena holds every packet that is on a wire (riding a `Deliver`
/// event), in a switch queue, or a control packet in a host's queue — not
/// the data a host NIC has yet to send, which waits there as [`Send`]s. So
/// its high-water mark follows the network's backlog, not the senders':
/// 42 685 slots on the 64-flow long-lived DCQCN run, ≈ 65 000 on the
/// 1024- and 4096-sender fat-tree incasts (their switch queues), 586–10 993
/// on the web-search FCT runs, and 395 on `ext_pfc`'s PFC-only run, whose
/// paused NICs end it holding 357 240 sends. Slots are recycled in LIFO
/// order — the hottest cache lines get reused first.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// Store `pkt`, reusing a freed slot when one is available.
    pub(crate) fn alloc(&mut self, pkt: Packet) -> PacketHandle {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketHandle(i)
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(pkt);
                PacketHandle(i)
            }
        }
    }

    /// Read access to a live packet.
    pub(crate) fn get(&self, h: PacketHandle) -> &Packet {
        &self.slots[h.0 as usize]
    }

    /// Write access to a live packet (ECN marking mutates in place).
    pub(crate) fn get_mut(&mut self, h: PacketHandle) -> &mut Packet {
        &mut self.slots[h.0 as usize]
    }

    /// Return a slot to the free list. The caller must not use `h` again.
    pub(crate) fn free(&mut self, h: PacketHandle) {
        debug_assert!(self.live > 0, "free on an empty arena");
        self.live -= 1;
        self.free.push(h.0);
    }

    /// The most packets ever live at once: slots are never given back.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_packet(payload: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            path_hash: 0,
            size_bytes: payload + 40,
            kind: PacketKind::Data {
                payload,
                ack_request: false,
                last_of_flow: false,
                chunk_sent_at: SimTime::ZERO,
            },
            ecn_marked: false,
            last_hop_at: SimTime::ZERO,
        }
    }

    /// The size `PacketHandle`'s doc and DESIGN §8.7 quote; §8.7 says why a
    /// smaller packet raises `packet_longflow`'s peak RSS.
    #[test]
    fn a_packet_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 64);
    }

    /// A paused NIC can queue hundreds of thousands of sends.
    #[test]
    fn a_send_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Send>(), 16);
    }

    #[test]
    fn send_flags_leave_the_payload_alone() {
        let t = SimTime::from_nanos(7);
        for (ack, last) in [(false, false), (true, false), (false, true), (true, true)] {
            let s = Send::new(FlowId(3), Send::MAX_PAYLOAD - 1, ack, last, t);
            assert_eq!(s.flow(), FlowId(3));
            assert_eq!(s.payload(), Send::MAX_PAYLOAD - 1);
            assert_eq!((s.ack_request(), s.last_of_flow()), (ack, last));
            assert_eq!(s.released_at, t);
        }
    }

    #[test]
    fn control_classification() {
        let d = data_packet(1000);
        assert!(!d.is_control());
        assert_eq!(d.payload_bytes(), 1000);

        let mut cnp = d;
        cnp.kind = PacketKind::Cnp;
        assert!(cnp.is_control());
        assert_eq!(cnp.payload_bytes(), 0);

        let mut ack = d;
        ack.kind = PacketKind::Ack {
            chunk_sent_at: SimTime::ZERO,
        };
        assert!(ack.is_control());
    }

    #[test]
    fn arena_recycles_slots_lifo() {
        let mut arena = PacketArena::default();
        let a = arena.alloc(data_packet(100));
        let b = arena.alloc(data_packet(200));
        assert_eq!(arena.live, 2);
        assert_eq!(arena.get(a).payload_bytes(), 100);
        arena.free(a);
        assert_eq!(arena.live, 1);
        // The freed slot is reused before the slab grows.
        let c = arena.alloc(data_packet(300));
        assert_eq!(c, a);
        assert_eq!(arena.slots.len(), 2);
        assert_eq!(arena.get(c).payload_bytes(), 300);
        assert_eq!(arena.get(b).payload_bytes(), 200);
    }

    #[test]
    fn arena_get_mut_marks_in_place() {
        let mut arena = PacketArena::default();
        let h = arena.alloc(data_packet(1000));
        assert!(!arena.get(h).ecn_marked);
        arena.get_mut(h).ecn_marked = true;
        assert!(arena.get(h).ecn_marked);
    }
}
