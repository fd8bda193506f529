//! Property-based tests for the RaTP wire format: the one-buffer
//! encoder must frame every message exactly as the format documents it,
//! fragmentation and reassembly must round-trip arbitrary payloads even
//! when the network reorders and duplicates fragments, and the header
//! checksum must catch arbitrary single-bit corruption. The same
//! generators drive whole transactions: a `call_many` over a lossy,
//! duplicating network answers every call and executes every request
//! exactly once.

use bytes::Bytes;
use clouds_obs::SpanContext;
use clouds_ratp::{
    encode_message, Packet, PacketKind, RatpConfig, RatpNode, Reassembly, Request, HEADER_LEN,
    MAX_FRAGMENT_PAYLOAD,
};
use clouds_simnet::{lanesum32_parts, CostModel, Network, NodeId, SplitMix64, MTU};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A uniform draw from `0..n`, so the shuffle/duplication pattern is
/// reproducible from one u64.
fn below(mix: &mut SplitMix64, n: usize) -> usize {
    mix.next_range(n as u64) as usize
}

/// Fisher–Yates driven by the seed.
fn shuffle<T>(items: &mut [T], mix: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(mix, i + 1));
    }
}

const TRACED: SpanContext = SpanContext {
    trace_id: 0xABCD,
    span_id: 0x1234,
    parent_id: 7,
};

/// Every kind whose messages carry a payload.
const PAYLOAD_KINDS: [PacketKind; 4] = [
    PacketKind::Request,
    PacketKind::Reply,
    PacketKind::Notify,
    PacketKind::Heartbeat,
];

/// One v2 frame as `packet.rs` documents it, built field by field and
/// sharing no code with the crate's encoder: the 20-byte header (version
/// nibble 2 | kind, port, txn, fragment index and count, flags, then the
/// checksum), the span context if traced, the payload, and last the
/// checksum, `lanesum32_parts` of bytes 0..16 and 20.. .
fn reference_frame(pkt: &Packet) -> Vec<u8> {
    let traced = pkt.ctx.is_some();
    let mut frame = vec![(2 << 4) | pkt.kind as u8];
    frame.extend_from_slice(&pkt.port.to_le_bytes());
    frame.extend_from_slice(&pkt.txn.to_le_bytes());
    frame.extend_from_slice(&pkt.frag_index.to_le_bytes());
    frame.extend_from_slice(&pkt.frag_count.to_le_bytes());
    frame.push(u8::from(traced));
    frame.extend_from_slice(&[0; 4]);
    if traced {
        frame.extend_from_slice(&pkt.ctx.trace_id.to_le_bytes());
        frame.extend_from_slice(&pkt.ctx.span_id.to_le_bytes());
        frame.extend_from_slice(&pkt.ctx.parent_id.to_le_bytes());
    }
    frame.extend_from_slice(&pkt.payload);
    let sum = lanesum32_parts(&frame[..16], &frame[HEADER_LEN..]);
    frame[16..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// A message's frames, one fragment at a time: fragment *k* carries
/// bytes `k × MAX_FRAGMENT_PAYLOAD ..` of it, and an empty message is
/// one empty fragment.
fn reference(
    kind: PacketKind,
    port: u16,
    txn: u64,
    message: &[u8],
    ctx: SpanContext,
) -> Vec<Vec<u8>> {
    let count = message.len().div_ceil(MAX_FRAGMENT_PAYLOAD).max(1);
    (0..count)
        .map(|k| {
            let start = k * MAX_FRAGMENT_PAYLOAD;
            let end = (start + MAX_FRAGMENT_PAYLOAD).min(message.len());
            reference_frame(&Packet {
                kind,
                port,
                txn,
                frag_index: u16::try_from(k).unwrap(),
                frag_count: u16::try_from(count).unwrap(),
                ctx,
                payload: Bytes::copy_from_slice(&message[start..end]),
            })
        })
        .collect()
}

/// `encode_message` equals the reference byte for byte, and its frames
/// lie back to back in one buffer: frame *k* + 1 starts where frame *k*
/// ends (the address arithmetic `clouds_codec`'s shared decode uses).
fn check_framing(kind: PacketKind, port: u16, txn: u64, message: &[u8], ctx: SpanContext) {
    let frames = encode_message(kind, port, txn, message, ctx);
    let want = reference(kind, port, txn, message, ctx);
    assert_eq!(
        frames.len(),
        want.len(),
        "frame count for {} bytes",
        message.len()
    );
    for (k, (got, want)) in frames.iter().zip(&want).enumerate() {
        assert!(
            got[..] == want[..],
            "frame {k} of a {}-byte message",
            message.len()
        );
    }
    for pair in frames.windows(2) {
        let end = pair[0].as_ptr() as usize + pair[0].len();
        assert_eq!(
            pair[1].as_ptr() as usize,
            end,
            "frames must share one buffer"
        );
    }
}

fn message_of(len: usize, fill: u64) -> Vec<u8> {
    let mut mix = SplitMix64::new(fill);
    (0..len).map(|_| mix.next_u64() as u8).collect()
}

/// The fragment boundaries, exhaustively, for every kind, traced and not.
#[test]
fn encode_message_matches_the_reference_at_every_boundary() {
    const MAX: usize = MAX_FRAGMENT_PAYLOAD;
    let lengths = [
        0,
        1,
        MAX - 1,
        MAX,
        MAX + 1,
        2 * MAX - 1,
        2 * MAX,
        2 * MAX + 1,
        3 * MAX,
        3 * MAX + 1,
    ];
    for len in lengths {
        let message = message_of(len, len as u64);
        for kind in PAYLOAD_KINDS {
            for ctx in [SpanContext::NONE, TRACED] {
                check_framing(kind, 0x0102, 0x0A0B_0C0D_0E0F_1011, &message, ctx);
            }
        }
    }
    // The refusal carries nothing.
    check_framing(PacketKind::NoService, 9, 3, &[], SpanContext::NONE);
    // Full fragments fill the MTU exactly when traced.
    let frames = encode_message(PacketKind::Request, 1, 2, &[0; MAX], TRACED);
    assert_eq!(frames[0].len(), MTU);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any message length up to three full fragments and one byte, any
    /// kind with a payload, traced or not: the encoder's frames are the
    /// reference's, in one buffer.
    #[test]
    fn encode_message_matches_the_reference(
        len in 0usize..(3 * MAX_FRAGMENT_PAYLOAD + 2),
        fill in any::<u64>(),
        kind in 0usize..4,
        traced in any::<bool>(),
        port in any::<u16>(),
        txn in any::<u64>(),
    ) {
        let ctx = if traced { TRACED } else { SpanContext::NONE };
        check_framing(PAYLOAD_KINDS[kind], port, txn, &message_of(len, fill), ctx);
    }

    /// Any payload survives encode → wire reorder/duplicate → decode →
    /// reassemble, byte for byte.
    #[test]
    fn roundtrip_under_reordering_and_duplication(
        len in 0usize..(3 * MAX_FRAGMENT_PAYLOAD + 37),
        fill in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let message = message_of(len, fill);
        let frames = encode_message(PacketKind::Request, 9, 0xC0FFEE, &message, TRACED);
        prop_assert_eq!(
            frames.len(),
            len.div_ceil(MAX_FRAGMENT_PAYLOAD).max(1),
            "unexpected fragment count for {} bytes", len
        );

        // Put every frame on the wire, duplicating some, then shuffle.
        let mut mix = SplitMix64::new(seed);
        let mut wire: Vec<Bytes> = Vec::new();
        for frame in &frames {
            wire.push(frame.clone());
            if below(&mut mix, 3) == 0 {
                wire.push(frame.clone()); // duplicated in transit
            }
        }
        shuffle(&mut wire, &mut mix);

        let mut re = Reassembly::new(frames.len() as u16);
        let mut completed: Option<Bytes> = None;
        for raw in wire {
            let pkt = Packet::decode(raw).expect("valid frame must decode");
            if let Some(whole) = re.insert(pkt) {
                prop_assert!(completed.is_none(), "message completed twice");
                completed = Some(whole);
            }
        }
        let whole = completed.expect("all fragments delivered");
        prop_assert_eq!(&whole[..], &message[..]);
    }

    /// A single bit flip anywhere in an encoded frame is always caught by
    /// the checksum: decode returns None and the frame is discarded.
    #[test]
    fn single_bit_flip_never_decodes(
        len in 0usize..200,
        fill in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let ctx = if seed % 2 == 0 {
            SpanContext { trace_id: 3, span_id: 5, parent_id: 0 }
        } else {
            SpanContext::NONE
        };
        let wire = encode_message(PacketKind::Reply, 0, 0xFEED, &message_of(len, fill), ctx).remove(0);

        let mut mix = SplitMix64::new(seed);
        let byte = below(&mut mix, wire.len());
        let bit = below(&mut mix, 8);
        let mut damaged = wire.to_vec();
        damaged[byte] ^= 1 << bit;
        prop_assert!(
            Packet::decode(Bytes::from(damaged)).is_none(),
            "flip of byte {} bit {} went undetected", byte, bit
        );
    }

    /// Fragment metadata is self-consistent for every payload size.
    #[test]
    fn fragment_indices_are_dense_and_sized(len in 0usize..(4 * MAX_FRAGMENT_PAYLOAD)) {
        let frames = encode_message(PacketKind::Request, 1, 2, &vec![0xA5u8; len], SpanContext::NONE);
        let count = frames.len() as u16;
        let mut total = 0usize;
        for (i, frame) in frames.into_iter().enumerate() {
            let f = Packet::decode(frame).expect("valid frame must decode");
            prop_assert_eq!(f.frag_index, i as u16);
            prop_assert_eq!(f.frag_count, count);
            prop_assert!(f.payload.len() <= MAX_FRAGMENT_PAYLOAD);
            total += f.payload.len();
        }
        prop_assert_eq!(total, len);
    }

    /// Arbitrary bytes never panic the packet decoder, and a frame it
    /// accepts is exactly the reference framing of what it decoded to.
    #[test]
    fn packet_decode_total(raw in prop::collection::vec(any::<u8>(), 0..1600)) {
        if let Some(packet) = Packet::decode(Bytes::from(raw.clone())) {
            prop_assert_eq!(reference_frame(&packet), raw);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `call_many` over seeded loss and duplication: every call is
    /// answered with its own body, in request order, and each server
    /// executes each body exactly once however often its fragments or
    /// the whole request were repeated.
    #[test]
    fn call_many_executes_every_request_exactly_once_under_loss_and_duplication(
        lens in proptest::collection::vec(0usize..(2 * MAX_FRAGMENT_PAYLOAD + 37), 1..7),
        fill in any::<u64>(),
        seed in any::<u64>(),
    ) {
        const RECORD: u16 = 9;
        let net = Network::with_seed(CostModel::zero(), seed);
        let cfg = RatpConfig {
            retry_interval: Duration::from_millis(4),
            max_retries: 2000,
        };
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), cfg.clone());
        let executed = Arc::new(Mutex::new(Vec::<(u32, Bytes)>::new()));
        let _servers: Vec<Arc<RatpNode>> = [2u32, 3]
            .into_iter()
            .map(|id| {
                let server = RatpNode::spawn(net.register(NodeId(id)).unwrap(), cfg.clone());
                let executed = Arc::clone(&executed);
                server.register_service(RECORD, move |req: Request| {
                    executed.lock().push((id, req.payload.clone()));
                    req.payload
                });
                server
            })
            .collect();

        // Distinct bodies (the index leads), spread over both servers.
        let mut mix = SplitMix64::new(fill);
        let calls: Vec<(NodeId, u16, Bytes)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let mut body = vec![i as u8];
                body.extend((0..len).map(|_| mix.next_u64() as u8));
                (NodeId(2 + below(&mut mix, 2) as u32), RECORD, Bytes::from(body))
            })
            .collect();

        net.set_loss(0.2);
        net.set_duplication(0.3);
        let replies = client.call_many(calls.clone());

        for ((_, _, body), reply) in calls.iter().zip(&replies) {
            prop_assert_eq!(reply.as_ref(), Ok(body));
        }
        let mut ran = executed.lock().clone();
        ran.sort();
        let mut asked: Vec<(u32, Bytes)> =
            calls.iter().map(|(dst, _, body)| (dst.0, body.clone())).collect();
        asked.sort();
        prop_assert_eq!(ran, asked, "a request ran twice, or not at all");
    }
}
