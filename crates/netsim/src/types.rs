//! Core simulator value types: packets, NIC sends and flow identifiers.

use crate::config::EngineConfig;
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

/// A packet in flight or queued: 24 bytes.
///
/// It carries only what varies from packet to packet. What its flow fixes
/// — the endpoints, the ECMP hash, the wire size given the payload — lives
/// in the engine's flow columns, and the engine reads it there when it
/// routes or serializes the packet: [`Packet::wire_bytes`] for the size, the
/// flow's `dst` (data) or `src` (control) and its `path_hash` for the route.
/// `bits` packs the payload (low 27 bits), the ECN mark, the kind and the
/// ACK-request and last-of-flow flags; [`Packet::kind`] decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    flow: u32,
    bits: u32,
    /// Data: when the first byte of its chunk left the sender. ACK: the
    /// same instant, echoed. CNP: zero.
    chunk_sent_at: SimTime,
    /// When its last hop began (its final `Deliver` was scheduled); until
    /// then, when it was created.
    last_hop_at: SimTime,
}

impl Packet {
    /// Payloads stay below this (2²⁷ bytes), so the five flag bits above
    /// them are free; [`EngineConfig::validate`] keeps the MTU below it.
    ///
    /// [`EngineConfig::validate`]: crate::config::EngineConfig::validate
    pub const MAX_PAYLOAD: u32 = Self::ECN;
    const PAYLOAD: u32 = Self::MAX_PAYLOAD - 1;
    const ECN: u32 = 1 << 27;
    const KIND_SHIFT: u32 = 28;
    const ACK: u32 = 1 << Self::KIND_SHIFT;
    const CNP: u32 = 2 << Self::KIND_SHIFT;
    const KIND: u32 = 3 << Self::KIND_SHIFT;
    const LAST_OF_FLOW: u32 = 1 << 30;
    const ACK_REQUEST: u32 = 1 << 31;

    /// An unmarked data packet of `flow` whose chunk left the sender at
    /// `chunk_sent_at`, which is also when it was created.
    pub fn data(
        flow: FlowId,
        payload: u32,
        ack_request: bool,
        last_of_flow: bool,
        chunk_sent_at: SimTime,
    ) -> Self {
        debug_assert!(payload < Self::MAX_PAYLOAD);
        Packet {
            flow: flow_index(flow),
            bits: payload
                | if ack_request { Self::ACK_REQUEST } else { 0 }
                | if last_of_flow { Self::LAST_OF_FLOW } else { 0 },
            chunk_sent_at,
            last_hop_at: chunk_sent_at,
        }
    }

    /// An ACK of `flow` created at `now`, echoing the acknowledged chunk's
    /// `chunk_sent_at`.
    pub fn ack(flow: FlowId, chunk_sent_at: SimTime, now: SimTime) -> Self {
        Packet {
            flow: flow_index(flow),
            bits: Self::ACK,
            chunk_sent_at,
            last_hop_at: now,
        }
    }

    /// A CNP of `flow` created at `now`.
    pub fn cnp(flow: FlowId, now: SimTime) -> Self {
        Packet {
            flow: flow_index(flow),
            bits: Self::CNP,
            chunk_sent_at: SimTime::ZERO,
            last_hop_at: now,
        }
    }

    /// The flow this packet belongs to.
    pub fn flow(&self) -> FlowId {
        FlowId(self.flow as usize)
    }

    /// What the packet is, decoded.
    pub fn kind(&self) -> PacketKind {
        match self.bits & Self::KIND {
            0 => PacketKind::Data {
                payload: self.bits & Self::PAYLOAD,
                ack_request: self.bits & Self::ACK_REQUEST != 0,
                last_of_flow: self.bits & Self::LAST_OF_FLOW != 0,
                chunk_sent_at: self.chunk_sent_at,
            },
            Self::ACK => PacketKind::Ack {
                chunk_sent_at: self.chunk_sent_at,
            },
            _ => PacketKind::Cnp,
        }
    }

    /// True for CNP/ACK control packets (strict-priority, never marked).
    pub fn is_control(&self) -> bool {
        self.bits & Self::KIND != 0
    }

    /// Payload bytes carried (0 for control packets).
    pub fn payload_bytes(&self) -> u64 {
        (self.bits & Self::PAYLOAD) as u64
    }

    /// Wire size in bytes (headers included) under `cfg`: the payload plus
    /// the header for data, the fixed control size for ACKs and CNPs.
    pub fn wire_bytes(&self, cfg: &EngineConfig) -> u32 {
        if self.is_control() {
            cfg.control_packet_bytes
        } else {
            (self.bits & Self::PAYLOAD) + cfg.header_bytes
        }
    }

    /// ECN Congestion-Experienced mark.
    pub fn ecn_marked(&self) -> bool {
        self.bits & Self::ECN != 0
    }

    /// Set the ECN Congestion-Experienced mark.
    pub(crate) fn mark_ecn(&mut self) {
        self.bits |= Self::ECN;
    }

    /// When its last hop began; until then, when it was created.
    pub fn last_hop_at(&self) -> SimTime {
        self.last_hop_at
    }

    pub(crate) fn set_last_hop_at(&mut self, at: SimTime) {
        self.last_hop_at = at;
    }
}

/// `f` as a packet's 32-bit flow index; [`Engine::try_add_flow`] keeps every
/// flow index below 2³².
///
/// [`Engine::try_add_flow`]: crate::engine::Engine::try_add_flow
fn flow_index(f: FlowId) -> u32 {
    debug_assert!(f.0 <= u32::MAX as usize);
    f.0 as u32
}

/// A host NIC's work request: one data packet of a flow, as its pacer
/// released it. What a data packet carries beyond this is when its last hop
/// began, which is the release instant until it has one, so the NIC builds
/// the [`Packet`] only when it starts serializing it.
///
/// 16 bytes: `bits` is the data packet's own, unmarked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Send {
    flow: u32,
    bits: u32,
    /// The release instant: the packet's `chunk_sent_at` and, until its
    /// last hop, its `last_hop_at`.
    pub(crate) released_at: SimTime,
}

impl Send {
    pub(crate) fn new(
        flow: FlowId,
        payload: u32,
        ack_request: bool,
        last_of_flow: bool,
        released_at: SimTime,
    ) -> Self {
        let p = Packet::data(flow, payload, ack_request, last_of_flow, released_at);
        Send {
            flow: p.flow,
            bits: p.bits,
            released_at,
        }
    }

    pub(crate) fn payload(self) -> u32 {
        self.bits & Packet::PAYLOAD
    }

    /// The data packet a NIC puts on the wire for this send: unmarked,
    /// created at its release.
    pub(crate) fn packet(self) -> Packet {
        Packet {
            flow: self.flow,
            bits: self.bits,
            chunk_sent_at: self.released_at,
            last_hop_at: self.released_at,
        }
    }
}

/// Index handle into a [`PacketArena`]; the currency the engine's event
/// queue and switch port queues trade in instead of 24-byte [`Packet`]
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
        Packet::data(FlowId(0), payload, false, false, SimTime::ZERO)
    }

    /// The size `PacketHandle`'s doc and DESIGN §8.7 quote. The arena's
    /// largest buffer follows it, and §8.7 says how that buffer and the JSON
    /// render meet in glibc's mmap threshold.
    #[test]
    fn a_packet_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 24);
    }

    /// A paused NIC can queue hundreds of thousands of sends.
    #[test]
    fn a_send_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Send>(), 16);
    }

    #[test]
    fn send_flags_leave_the_payload_alone() {
        let t = SimTime::from_nanos(7);
        let max = Packet::MAX_PAYLOAD - 1;
        for (ack, last) in [(false, false), (true, false), (false, true), (true, true)] {
            let s = Send::new(FlowId(3), max, ack, last, t);
            assert_eq!(s.payload(), max);
            assert_eq!(s.released_at, t);
            let mut p = s.packet();
            assert_eq!(p, Packet::data(FlowId(3), max, ack, last, t));
            assert_eq!(p.flow(), FlowId(3));
            let want = PacketKind::Data {
                payload: max,
                ack_request: ack,
                last_of_flow: last,
                chunk_sent_at: t,
            };
            assert_eq!(
                (p.kind(), p.ecn_marked(), p.last_hop_at()),
                (want, false, t)
            );
            p.mark_ecn();
            assert_eq!((p.kind(), p.ecn_marked()), (want, true));
        }
    }

    #[test]
    fn control_classification() {
        let cfg = EngineConfig::default();
        let d = data_packet(1000);
        assert!(!d.is_control());
        assert_eq!(d.payload_bytes(), 1000);
        assert_eq!(d.wire_bytes(&cfg), 1000 + cfg.header_bytes);

        let now = SimTime::from_nanos(9);
        let cnp = Packet::cnp(FlowId(5), now);
        assert!(cnp.is_control());
        assert_eq!(
            (cnp.flow(), cnp.kind(), cnp.last_hop_at()),
            (FlowId(5), PacketKind::Cnp, now)
        );
        assert_eq!(cnp.payload_bytes(), 0);
        assert_eq!(cnp.wire_bytes(&cfg), cfg.control_packet_bytes);

        let echoed = SimTime::from_nanos(3);
        let ack_kind = PacketKind::Ack {
            chunk_sent_at: echoed,
        };
        let ack = Packet::ack(FlowId(5), echoed, now);
        assert!(ack.is_control() && !ack.ecn_marked());
        assert_eq!((ack.kind(), ack.payload_bytes()), (ack_kind, 0));
        assert_eq!(ack.wire_bytes(&cfg), cfg.control_packet_bytes);
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
        assert!(!arena.get(h).ecn_marked());
        arena.get_mut(h).mark_ecn();
        assert!(arena.get(h).ecn_marked());
        assert_eq!(arena.get(h).payload_bytes(), 1000);
    }
}
