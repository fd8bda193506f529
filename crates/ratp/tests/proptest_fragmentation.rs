//! Property-based tests for the RaTP wire format: fragmentation and
//! reassembly must round-trip arbitrary payloads even when the network
//! reorders and duplicates fragments, and the header checksum must catch
//! arbitrary single-bit corruption. The same generators drive whole
//! transactions: a `call_many` over a lossy, duplicating network answers
//! every call and executes every request exactly once.

use bytes::Bytes;
use clouds_obs::SpanContext;
use clouds_ratp::{
    fragment, Packet, PacketKind, RatpConfig, RatpNode, Reassembly, Request, MAX_FRAGMENT_PAYLOAD,
};
use clouds_simnet::{CostModel, Network, NodeId, SplitMix64};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any payload survives fragment → encode → wire reorder/duplicate →
    /// decode → reassemble, byte for byte.
    #[test]
    fn roundtrip_under_reordering_and_duplication(
        len in 0usize..(3 * MAX_FRAGMENT_PAYLOAD + 37),
        fill in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut mix = SplitMix64::new(fill);
        let message: Vec<u8> = (0..len).map(|_| mix.next_u64() as u8).collect();
        let ctx = SpanContext {
            trace_id: 0xABCD,
            span_id: 0x1234,
            parent_id: 7,
        };
        let frags = fragment(PacketKind::Request, 9, 0xC0FFEE, Bytes::from(message.clone()), ctx);
        prop_assert_eq!(
            frags.len(),
            len.div_ceil(MAX_FRAGMENT_PAYLOAD).max(1),
            "unexpected fragment count for {} bytes", len
        );

        // Put every fragment on the wire, duplicating some, then shuffle.
        let mut mix = SplitMix64::new(seed);
        let mut wire: Vec<Bytes> = Vec::new();
        for f in &frags {
            let encoded = f.encode();
            wire.push(encoded.clone());
            if below(&mut mix, 3) == 0 {
                wire.push(encoded); // duplicated in transit
            }
        }
        shuffle(&mut wire, &mut mix);

        let mut re = Reassembly::new(frags.len() as u16);
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
        let mut mix = SplitMix64::new(fill);
        let message: Vec<u8> = (0..len).map(|_| mix.next_u64() as u8).collect();
        let ctx = if seed % 2 == 0 {
            SpanContext { trace_id: 3, span_id: 5, parent_id: 0 }
        } else {
            SpanContext::NONE
        };
        let frags = fragment(PacketKind::Reply, 0, 0xFEED, Bytes::from(message), ctx);
        let wire = frags[0].encode();

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
        let message = Bytes::from(vec![0xA5u8; len]);
        let frags = fragment(PacketKind::Request, 1, 2, message, SpanContext::NONE);
        let count = frags.len() as u16;
        let mut total = 0usize;
        for (i, f) in frags.iter().enumerate() {
            prop_assert_eq!(f.frag_index, i as u16);
            prop_assert_eq!(f.frag_count, count);
            prop_assert!(f.payload.len() <= MAX_FRAGMENT_PAYLOAD);
            total += f.payload.len();
        }
        prop_assert_eq!(total, len);
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
