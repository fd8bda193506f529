//! RaTP wire format, version 2.
//!
//! Every frame carries exactly one packet:
//!
//! ```text
//! byte 0      ver | kind  high nibble: wire version (2); low nibble:
//!                          kind (1 = request fragment, 2 = reply
//!                          fragment, 3 = negative reply: service not
//!                          found, 4 = one-way notify, 5 = liveness
//!                          heartbeat)
//! bytes 1..3  port        destination service (requests) / 0 (replies)
//! bytes 3..11 txn         transaction id (client node id << 32 | counter)
//! bytes 11..13 frag_index fragment number, 0-based
//! bytes 13..15 frag_count total fragments in the message
//! byte 15     flags       bit 0: span-context extension present
//! bytes 16..20 checksum   `lanesum32` (the word-wise sum the log store
//!                          frames its records with;
//!                          [`clouds_simnet::lanesum32_parts`]) of
//!                          bytes 0..16 ‖ bytes 20.. — everything but
//!                          this field, extensions and payload
//!                          included, read once where it lies;
//!                          corrupted frames fail [`Packet::decode`] and
//!                          are re-covered by retransmission
//! bytes 20..44 span ctx   (flag bit 0 only) trace_id, span_id,
//!                          parent_id — the sender's causal identity,
//!                          re-installed by the receiving handler
//! bytes 20/44.. payload   fragment payload
//! ```
//!
//! A message is framed once, by [`encode_message`]: all of its frames
//! are written into one buffer of the message's exact wire size, and
//! each frame goes out as a [`Bytes`] slice of it — one allocation per
//! message, not one per fragment. A frame held for retransmission or
//! replay, or a fragment parked in a [`Reassembly`], therefore keeps
//! the whole message's buffer alive.
//!
//! Versions refuse one another cleanly rather than misparse. Version 1
//! had the same layout with a byte-at-a-time FNV-1a (checksum field
//! zeroed) in bytes 16..20: a v1 frame fails the v2 checksum and, were
//! the sums ever to agree, the version check; a v2 frame fails a v1
//! peer's the same two ways. Version-0 peers (no version nibble) see
//! kind bytes `0x21`–`0x25` and reject them as unknown kinds, as decode
//! here rejects the version-0 byte range.

use bytes::{Bytes, BytesMut};
use clouds_obs::SpanContext;
use clouds_simnet::{lanesum32_parts, MTU};

/// Wire format version carried in the high nibble of byte 0.
pub const WIRE_VERSION: u8 = 2;

/// Bytes of fixed RaTP header per fragment (excludes extensions).
pub const HEADER_LEN: usize = 20;

/// Bytes of the optional span-context extension.
pub const CTX_LEN: usize = 24;

/// Byte offset of the flags field within the header.
const FLAGS_OFFSET: usize = 15;

/// Byte offset of the checksum field, the header's last four bytes.
const CHECKSUM_OFFSET: usize = 16;

/// Flags bit 0: the span-context extension follows the header.
const FLAG_CTX: u8 = 0x01;

/// Maximum payload bytes carried by one fragment. Reserved assuming the
/// context extension is present, so fragmentation geometry — and with
/// it message framing and virtual-time cost — is independent of whether
/// a message happens to be traced.
pub const MAX_FRAGMENT_PAYLOAD: usize = MTU - HEADER_LEN - CTX_LEN;

/// Packet type discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Fragment of a client request.
    Request = 1,
    /// Fragment of a server reply.
    Reply = 2,
    /// Negative reply: no service is registered on the requested port.
    NoService = 3,
    /// Fragment of a one-way notification: applied by the port's notify
    /// handler on the receive path, never answered. Acks use this so a fire-and-forget message costs
    /// exactly its own transmission — a `Request` would make the
    /// receiver synthesize, send and bill a reply nobody is waiting for.
    Notify = 4,
    /// Liveness beacon between data servers: a single unfragmented
    /// packet whose payload is the sender's virtual clock (8 bytes,
    /// little-endian). Handled on the receive path itself — no service, no
    /// handler thread, no reply — so a heartbeat costs exactly one
    /// packet and cannot be delayed by a busy dispatcher.
    Heartbeat = 5,
}

impl PacketKind {
    fn from_u8(v: u8) -> Option<PacketKind> {
        match v {
            1 => Some(PacketKind::Request),
            2 => Some(PacketKind::Reply),
            3 => Some(PacketKind::NoService),
            4 => Some(PacketKind::Notify),
            5 => Some(PacketKind::Heartbeat),
            _ => None,
        }
    }
}

/// One RaTP packet (a single fragment of a message transaction), as
/// [`Packet::decode`] reads it off the wire; [`encode_message`] writes
/// a whole message's packets at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet type.
    pub kind: PacketKind,
    /// Destination service port (meaningful for requests).
    pub port: u16,
    /// Transaction identifier, unique per originating client.
    pub txn: u64,
    /// This fragment's index, `0..frag_count`.
    pub frag_index: u16,
    /// Total number of fragments in the message.
    pub frag_count: u16,
    /// Causal context of the sending span ([`SpanContext::NONE`] when
    /// untraced; carried on the wire only when present).
    pub ctx: SpanContext,
    /// Fragment payload.
    pub payload: Bytes,
}

impl Packet {
    /// Parse from wire bytes; `None` on malformed, corrupted or
    /// version-mismatched input.
    pub fn decode(mut raw: Bytes) -> Option<Packet> {
        if raw.len() < HEADER_LEN {
            return None;
        }
        let (header, body) = raw.split_at(HEADER_LEN);
        let stored = u32::from_le_bytes(header[CHECKSUM_OFFSET..].try_into().ok()?);
        if stored != lanesum32_parts(&header[..CHECKSUM_OFFSET], body) {
            return None; // bit rot in transit; the sender will retransmit
        }
        if header[0] >> 4 != WIRE_VERSION {
            return None; // other wire versions refused, not misparsed
        }
        let kind = PacketKind::from_u8(header[0] & 0x0F)?;
        let port = u16::from_le_bytes([header[1], header[2]]);
        let txn = u64::from_le_bytes(header[3..11].try_into().ok()?);
        let frag_index = u16::from_le_bytes([header[11], header[12]]);
        let frag_count = u16::from_le_bytes([header[13], header[14]]);
        let flags = header[FLAGS_OFFSET];
        if frag_count == 0 || frag_index >= frag_count {
            return None;
        }
        if flags & !FLAG_CTX != 0 {
            return None; // unknown extension bits
        }
        let (ctx, payload_at) = if flags & FLAG_CTX != 0 {
            let ext = body.get(..CTX_LEN)?;
            let ctx = SpanContext {
                trace_id: u64::from_le_bytes(ext[0..8].try_into().ok()?),
                span_id: u64::from_le_bytes(ext[8..16].try_into().ok()?),
                parent_id: u64::from_le_bytes(ext[16..24].try_into().ok()?),
            };
            if !ctx.is_some() {
                return None; // flagged extension must carry a real trace
            }
            (ctx, HEADER_LEN + CTX_LEN)
        } else {
            (SpanContext::NONE, HEADER_LEN)
        };
        raw.advance(payload_at);
        Some(Packet {
            kind,
            port,
            txn,
            frag_index,
            frag_count,
            ctx,
            payload: raw,
        })
    }
}

/// Frame a whole message for transmission: every fragment's header,
/// optional span context, payload and checksum, written into one buffer
/// of exactly the message's wire size and handed out as one [`Bytes`]
/// slice per frame. Fragment *k* carries message bytes
/// `k × MAX_FRAGMENT_PAYLOAD ..` and every frame repeats `ctx`, so
/// reassembly order cannot lose the trace.
///
/// An empty message still produces one (empty) fragment so the receiver
/// learns about the transaction.
///
/// # Panics
///
/// Panics if the message would need more than `u16::MAX` fragments
/// (≈95 MB), far beyond any Clouds transfer.
pub fn encode_message(
    kind: PacketKind,
    port: u16,
    txn: u64,
    message: &[u8],
    ctx: SpanContext,
) -> Vec<Bytes> {
    let frag_count = message.len().div_ceil(MAX_FRAGMENT_PAYLOAD).max(1);
    let count = u16::try_from(frag_count).expect("message too large for RaTP");
    let traced = ctx.is_some();
    let overhead = if traced {
        HEADER_LEN + CTX_LEN
    } else {
        HEADER_LEN
    };
    let total = frag_count * overhead + message.len();
    // Everything but the fragment index and the checksum is the same in
    // every frame.
    let mut head = [0u8; HEADER_LEN + CTX_LEN];
    head[0] = (WIRE_VERSION << 4) | kind as u8;
    head[1..3].copy_from_slice(&port.to_le_bytes());
    head[3..11].copy_from_slice(&txn.to_le_bytes());
    head[13..15].copy_from_slice(&count.to_le_bytes());
    head[FLAGS_OFFSET] = if traced { FLAG_CTX } else { 0 };
    let ext = &mut head[HEADER_LEN..];
    ext[0..8].copy_from_slice(&ctx.trace_id.to_le_bytes());
    ext[8..16].copy_from_slice(&ctx.span_id.to_le_bytes());
    ext[16..24].copy_from_slice(&ctx.parent_id.to_le_bytes());
    let head = &mut head[..overhead];
    let mut buf = Vec::with_capacity(total);
    for index in 0..count {
        let start = usize::from(index) * MAX_FRAGMENT_PAYLOAD;
        let piece = &message[start..(start + MAX_FRAGMENT_PAYLOAD).min(message.len())];
        head[11..13].copy_from_slice(&index.to_le_bytes());
        let at = buf.len();
        buf.extend_from_slice(head);
        buf.extend_from_slice(piece);
        let frame = &mut buf[at..];
        let sum = lanesum32_parts(&frame[..CHECKSUM_OFFSET], &frame[HEADER_LEN..]);
        frame[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }
    debug_assert_eq!(buf.len(), total);
    // Every frame but the last is full, so frame k starts at k × stride.
    let whole = Bytes::from(buf);
    let stride = overhead + MAX_FRAGMENT_PAYLOAD;
    (0..frag_count)
        .map(|k| whole.slice(k * stride..((k + 1) * stride).min(total)))
        .collect()
}

/// Reassembly buffer for one in-flight message.
#[derive(Debug)]
pub struct Reassembly {
    frag_count: u16,
    received: Vec<Option<Bytes>>,
    have: u16,
}

impl Reassembly {
    /// Fresh buffer expecting `frag_count` fragments.
    pub fn new(frag_count: u16) -> Reassembly {
        Reassembly {
            frag_count,
            received: vec![None; frag_count as usize],
            have: 0,
        }
    }

    /// Number of fragments the message has.
    pub(crate) fn frag_count(&self) -> u16 {
        self.frag_count
    }

    /// Insert a fragment; returns the full message when complete.
    /// Duplicate or inconsistent fragments are ignored.
    pub fn insert(&mut self, pkt: Packet) -> Option<Bytes> {
        if pkt.frag_count != self.frag_count
            || pkt.frag_index >= self.frag_count
            || self.received.is_empty()
        {
            // Inconsistent fragment, or a duplicate arriving after the
            // message already completed and the buffer was drained.
            return None;
        }
        // Single-fragment fast path: the fragment's payload *is* the
        // message — hand the arrival buffer through without re-copying
        // (acks, null calls, small arguments and replies; an 8 KB page
        // takes six fragments). Draining the slot vector keeps the
        // duplicate-after-completion guard above working.
        if self.frag_count == 1 {
            self.received.clear();
            self.have = 1;
            return Some(pkt.payload);
        }
        let slot = &mut self.received[pkt.frag_index as usize];
        if slot.is_none() {
            *slot = Some(pkt.payload);
            self.have += 1;
        }
        if self.have == self.frag_count {
            let total: usize = self
                .received
                .iter()
                .map(|p| p.as_ref().map_or(0, Bytes::len))
                .sum();
            let mut whole = BytesMut::with_capacity(total);
            for piece in self.received.drain(..) {
                whole.extend_from_slice(&piece.expect("all fragments present"));
            }
            Some(whole.freeze())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: SpanContext = SpanContext {
        trace_id: 0x1111_2222_3333_4444,
        span_id: 0x5555_6666_7777_8888,
        parent_id: 0x9999_AAAA_BBBB_CCCC,
    };

    /// Frame `message` and decode every frame again.
    fn packets(
        kind: PacketKind,
        port: u16,
        txn: u64,
        message: &[u8],
        ctx: SpanContext,
    ) -> Vec<Packet> {
        encode_message(kind, port, txn, message, ctx)
            .into_iter()
            .map(|frame| Packet::decode(frame).expect("an encoded frame decodes"))
            .collect()
    }

    /// The only frame of a one-fragment message.
    fn single(kind: PacketKind, port: u16, txn: u64, message: &[u8], ctx: SpanContext) -> Bytes {
        let mut frames = encode_message(kind, port, txn, message, ctx);
        assert_eq!(frames.len(), 1);
        frames.remove(0)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg: Vec<u8> = (0..4 * MAX_FRAGMENT_PAYLOAD + 5).map(|i| i as u8).collect();
        for ctx in [SpanContext::NONE, CTX] {
            let frames = encode_message(PacketKind::Request, 42, 0xDEADBEEF, &msg, ctx);
            assert_eq!(frames.len(), 5);
            let ext = if ctx.is_some() { CTX_LEN } else { 0 };
            assert_eq!(frames[2].len(), MTU - CTX_LEN + ext);
            assert_eq!(frames[4].len(), HEADER_LEN + ext + 5);
            let decoded = Packet::decode(frames[2].clone()).unwrap();
            let start = 2 * MAX_FRAGMENT_PAYLOAD;
            assert_eq!(
                decoded,
                Packet {
                    kind: PacketKind::Request,
                    port: 42,
                    txn: 0xDEADBEEF,
                    frag_index: 2,
                    frag_count: 5,
                    ctx,
                    payload: Bytes::copy_from_slice(&msg[start..start + MAX_FRAGMENT_PAYLOAD]),
                }
            );
        }
    }

    #[test]
    fn heartbeat_roundtrip() {
        let beat = 42u64.to_le_bytes();
        let decoded = packets(PacketKind::Heartbeat, 0, 0, &beat, SpanContext::NONE);
        assert_eq!(
            decoded,
            [Packet {
                kind: PacketKind::Heartbeat,
                port: 0,
                txn: 0,
                frag_index: 0,
                frag_count: 1,
                ctx: SpanContext::NONE,
                payload: Bytes::copy_from_slice(&beat),
            }]
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode(Bytes::from_static(b"short")).is_none());
        // Bad kind byte.
        let mut raw = vec![9u8; HEADER_LEN];
        raw[13] = 1; // frag_count = 1
        assert!(Packet::decode(Bytes::from(raw)).is_none());
        // frag_count == 0.
        let mut raw = single(PacketKind::Reply, 0, 1, &[], SpanContext::NONE).to_vec();
        raw[13] = 0;
        raw[14] = 0;
        assert!(Packet::decode(Bytes::from(raw)).is_none());
    }

    /// Rewrite one byte and repair the checksum, isolating the version /
    /// flags checks from corruption detection.
    fn with_patched_byte(wire: &[u8], offset: usize, value: u8) -> Bytes {
        let mut raw = wire.to_vec();
        raw[offset] = value;
        let sum = lanesum32_parts(&raw[..CHECKSUM_OFFSET], &raw[HEADER_LEN..]);
        raw[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        Bytes::from(raw)
    }

    #[test]
    fn decode_rejects_other_wire_versions() {
        let wire = single(PacketKind::Request, 1, 2, b"x", SpanContext::NONE);
        assert_eq!(wire[0] >> 4, WIRE_VERSION);
        // A version-0 peer's kind byte (no version nibble).
        assert!(Packet::decode(with_patched_byte(&wire, 0, PacketKind::Request as u8)).is_none());
        // A version-1 header under a valid version-2 checksum, and a
        // hypothetical version-3 peer.
        assert!(Packet::decode(with_patched_byte(&wire, 0, (1 << 4) | 1)).is_none());
        assert!(Packet::decode(with_patched_byte(&wire, 0, (3 << 4) | 1)).is_none());

        // The same packet as the version-1 encoder framed it (FNV-1a in
        // bytes 16..20), captured at the last commit that had one.
        const V1_FRAME: [u8; 21] = [
            0x11, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 54, 9, 225, 240, b'x',
        ];
        assert_eq!(
            V1_FRAME[..CHECKSUM_OFFSET],
            with_patched_byte(&wire, 0, 0x11)[..CHECKSUM_OFFSET]
        );
        assert_eq!(V1_FRAME[HEADER_LEN..], wire[HEADER_LEN..]);
        assert!(Packet::decode(Bytes::copy_from_slice(&V1_FRAME)).is_none());
        // Nor does its checksum pass for one of ours: relabelled as
        // version 2 it is a corrupted frame.
        let mut relabelled = V1_FRAME;
        relabelled[0] = wire[0];
        assert!(Packet::decode(Bytes::copy_from_slice(&relabelled)).is_none());
    }

    #[test]
    fn decode_rejects_unknown_flags_and_truncated_ctx() {
        let wire = single(PacketKind::Request, 1, 2, &[], SpanContext::NONE);
        // Unknown extension bit.
        assert!(Packet::decode(with_patched_byte(&wire, FLAGS_OFFSET, 0x02)).is_none());
        // Context flag set but no context bytes follow (empty payload,
        // so the frame is exactly HEADER_LEN).
        assert!(Packet::decode(with_patched_byte(&wire, FLAGS_OFFSET, FLAG_CTX)).is_none());
    }

    /// Exhaustive, as the store does for its record frames: a full
    /// fragment, traced and untraced, and a short one whose payload ends
    /// inside the checksum's byte-wise tail.
    fn frames_under_test() -> Vec<Bytes> {
        let full: Vec<u8> = (0..MAX_FRAGMENT_PAYLOAD)
            .map(|i| (i * 7 + 3) as u8)
            .collect();
        [
            (CTX, &full[..]),
            (SpanContext::NONE, &full[..]),
            (CTX, &b"payload under test"[..]),
        ]
        .into_iter()
        .map(|(ctx, payload)| single(PacketKind::Request, 7, 0x0123_4567_89AB_CDEF, payload, ctx))
        .collect()
    }

    #[test]
    fn decode_rejects_any_single_bit_flip() {
        let frames = frames_under_test();
        assert_eq!(frames[0].len(), MTU);
        for wire in frames {
            let mut damaged = wire.to_vec();
            for byte in 0..wire.len() {
                for bit in 0..8 {
                    damaged[byte] ^= 1 << bit;
                    assert!(
                        Packet::decode(Bytes::copy_from_slice(&damaged)).is_none(),
                        "flip of byte {byte} bit {bit} of {} went undetected",
                        wire.len()
                    );
                    damaged[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn decode_rejects_any_truncation() {
        for wire in frames_under_test() {
            for keep in 0..wire.len() {
                assert!(
                    Packet::decode(wire.slice(..keep)).is_none(),
                    "cut at {keep} of {} went undetected",
                    wire.len()
                );
            }
        }
    }

    #[test]
    fn checksum_covers_payload_not_just_header() {
        let mut raw = single(PacketKind::Reply, 0, 3, b"aaaa", SpanContext::NONE).to_vec();
        // Swap the payload wholesale while keeping the header: must fail.
        raw[HEADER_LEN..].copy_from_slice(b"bbbb");
        assert!(Packet::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn empty_message_is_one_empty_fragment() {
        let frags = packets(PacketKind::Request, 1, 7, &[], SpanContext::NONE);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].frag_count, 1);
        assert!(frags[0].payload.is_empty());
    }

    #[test]
    fn fragment_and_reassemble_out_of_order() {
        let msg: Vec<u8> = (0..(3 * MAX_FRAGMENT_PAYLOAD + 17))
            .map(|i| (i % 256) as u8)
            .collect();
        let mut frags = packets(PacketKind::Reply, 0, 9, &msg, CTX);
        assert_eq!(frags.len(), 4);
        for f in &frags {
            assert_eq!(f.ctx, CTX, "every fragment repeats the context");
        }
        frags.reverse();
        let mut re = Reassembly::new(4);
        let mut result = None;
        for f in frags {
            result = re.insert(f);
        }
        assert_eq!(&result.unwrap()[..], &msg[..]);
    }

    #[test]
    fn reassembly_ignores_duplicates() {
        let msg = vec![1u8; 2 * MAX_FRAGMENT_PAYLOAD];
        let frags = packets(PacketKind::Reply, 0, 9, &msg, SpanContext::NONE);
        let mut re = Reassembly::new(2);
        assert!(re.insert(frags[0].clone()).is_none());
        assert!(re.insert(frags[0].clone()).is_none()); // dup
        let whole = re.insert(frags[1].clone()).unwrap();
        assert_eq!(whole.len(), msg.len());
    }

    #[test]
    fn reassembly_ignores_duplicate_after_completion() {
        let frags = packets(PacketKind::Reply, 0, 9, b"done", SpanContext::NONE);
        let mut re = Reassembly::new(1);
        assert!(re.insert(frags[0].clone()).is_some());
        // A straggling duplicate must be ignored, not panic.
        assert!(re.insert(frags[0].clone()).is_none());
    }

    #[test]
    fn fragments_respect_mtu() {
        let frames = encode_message(PacketKind::Request, 3, 11, &[0u8; 50_000], CTX);
        let (last, full) = frames.split_last().unwrap();
        assert!(full.iter().all(|f| f.len() == MTU));
        assert!(last.len() <= MTU);
    }
}
