//! `clouds-ratp` — the **Ra Transport Protocol**.
//!
//! RaTP is the transport used for *all* communication in Clouds (§4.2
//! "Networking and RaTP"): a connectionless, reliable **message
//! transaction** protocol in the style of Cheriton's VMTP. A transaction
//! is a send/reply pair used for client–server communication — there are
//! no connections, no streams.
//!
//! This implementation runs over [`clouds_simnet`] frames and provides:
//!
//! * **Fragmentation/reassembly** — messages larger than the Ethernet MTU
//!   are split into numbered fragments (an 8 KB page needs 6), all of a
//!   message's frames written into one buffer ([`encode_message`]).
//! * **Retransmission** — the client retransmits the request until the
//!   reply arrives or the retry budget is exhausted.
//! * **Duplicate suppression** — servers remember recently answered
//!   transactions and replay the cached reply instead of re-executing the
//!   handler (at-most-once execution in the absence of cache eviction).
//! * **Service dispatch** — each node exposes numbered ports; the Clouds
//!   system objects (DSM server, object manager, name server, user I/O)
//!   each claim one.
//! * **Notifies** — one-way messages, sent once and never answered,
//!   applied where they land by a handler that may not wait or send
//!   ([`RatpNode::register_notify`]).
//!
//! # Examples
//!
//! ```
//! use clouds_ratp::{RatpConfig, RatpNode, Request};
//! use clouds_simnet::{CostModel, Network, NodeId};
//! use bytes::Bytes;
//!
//! let net = Network::new(CostModel::zero());
//! let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
//! let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
//!
//! const ECHO: u16 = 7;
//! server.register_service(ECHO, |req: Request| req.payload);
//!
//! let reply = client.call(NodeId(2), ECHO, Bytes::from_static(b"hello")).unwrap();
//! assert_eq!(&reply[..], b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod crew;
mod detector;
mod node;
mod packet;

pub use detector::FailureDetector;
pub use node::{CallError, PendingCall, RatpConfig, RatpNode, Request, Service};
pub use packet::{
    encode_message, Packet, PacketKind, Reassembly, HEADER_LEN, MAX_FRAGMENT_PAYLOAD,
};

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "polls for an asynchronous delivery"
)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use clouds_simnet::{CostModel, Network, NodeId, Vt};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const ECHO: u16 = 1;
    const COUNT: u16 = 2;

    fn testbed(cost: CostModel) -> (Network, Arc<RatpNode>, Arc<RatpNode>) {
        let net = Network::new(cost);
        let cfg = RatpConfig {
            retry_interval: Duration::from_millis(10),
            max_retries: 200,
        };
        let a = RatpNode::spawn(net.register(NodeId(1)).unwrap(), cfg.clone());
        let b = RatpNode::spawn(net.register(NodeId(2)).unwrap(), cfg);
        b.register_service(ECHO, |req: Request| req.payload);
        (net, a, b)
    }

    #[test]
    fn null_transaction_round_trip_vt() {
        let (_net, a, _b) = testbed(CostModel::sun3_ethernet());
        let before = a.clock().now();
        a.call(NodeId(2), ECHO, Bytes::new()).unwrap();
        let rtt = a.clock().now() - before;
        // Paper §4.3: the RaTP reliable round trip is 4.8 ms. Small
        // messages: 2 frames + 4 transport packet processing steps.
        assert!(rtt >= Vt::from_micros(4000), "rtt {rtt}");
        assert!(rtt <= Vt::from_micros(5600), "rtt {rtt}");
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let (net, a, _b) = testbed(CostModel::zero());
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let reply = a
            .call(NodeId(2), ECHO, Bytes::from(payload.clone()))
            .unwrap();
        assert_eq!(&reply[..], &payload[..]);
        // 20000 bytes needs at least 14 fragments each way.
        assert!(net.stats().frames_sent >= 28);
    }

    #[test]
    fn empty_and_exact_mtu_boundary_payloads() {
        let (_net, a, _b) = testbed(CostModel::zero());
        for len in [
            0,
            1,
            MAX_FRAGMENT_PAYLOAD - 1,
            MAX_FRAGMENT_PAYLOAD,
            MAX_FRAGMENT_PAYLOAD + 1,
            2 * MAX_FRAGMENT_PAYLOAD,
        ] {
            let payload = vec![0xAB; len];
            let reply = a
                .call(NodeId(2), ECHO, Bytes::from(payload.clone()))
                .unwrap();
            assert_eq!(reply.len(), len, "len {len}");
        }
    }

    #[test]
    fn survives_heavy_loss() {
        let (net, a, _b) = testbed(CostModel::zero());
        net.set_loss(0.3);
        for i in 0..20u8 {
            let reply = a.call(NodeId(2), ECHO, Bytes::from(vec![i; 64])).unwrap();
            assert_eq!(&reply[..], &vec![i; 64][..]);
        }
    }

    #[test]
    fn duplicate_frames_do_not_reexecute_handler() {
        let (net, a, b) = testbed(CostModel::zero());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.register_service(COUNT, move |_req: Request| {
            h.fetch_add(1, Ordering::SeqCst);
            Bytes::new()
        });
        net.set_duplication(1.0);
        for _ in 0..5 {
            a.call(NodeId(2), COUNT, Bytes::new()).unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn call_to_unknown_service_errors() {
        let (_net, a, _b) = testbed(CostModel::zero());
        let err = a.call(NodeId(2), 999, Bytes::new()).unwrap_err();
        assert!(matches!(err, CallError::ServiceNotFound(999)));
    }

    #[test]
    fn call_to_crashed_node_times_out() {
        let (net, a, _b) = testbed(CostModel::zero());
        net.crash(NodeId(2));
        let cfg_limited = a.call_with_budget(NodeId(2), ECHO, Bytes::new(), 3);
        assert!(matches!(cfg_limited, Err(CallError::TimedOut)));
    }

    #[test]
    fn concurrent_calls_multiplex() {
        let (_net, a, _b) = testbed(CostModel::zero());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for i in 0..10u8 {
                    let msg = vec![t, i];
                    let reply = a.call(NodeId(2), ECHO, Bytes::from(msg.clone())).unwrap();
                    assert_eq!(&reply[..], &msg[..]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn services_can_call_other_nodes() {
        // A proxy service on node 2 forwards to the echo on node 3:
        // exercises blocking calls from within a handler (needed by DSM
        // forwarding).
        let net = Network::new(CostModel::zero());
        let a = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let b = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        let c = RatpNode::spawn(net.register(NodeId(3)).unwrap(), RatpConfig::default());
        c.register_service(ECHO, |req: Request| req.payload);
        let b2 = Arc::clone(&b);
        b.register_service(10, move |req: Request| {
            b2.call(NodeId(3), ECHO, req.payload).unwrap()
        });
        let reply = a
            .call(NodeId(2), 10, Bytes::from_static(b"via proxy"))
            .unwrap();
        assert_eq!(&reply[..], b"via proxy");
    }

    #[test]
    fn heartbeats_record_arrival_in_virtual_time() {
        let (_net, a, b) = testbed(CostModel::sun3_ethernet());
        assert!(b.last_heartbeat(NodeId(1)).is_none(), "no beacon yet");
        let sent_at = a.clock().now();
        a.send_heartbeat(NodeId(2));
        let mut heard = None;
        for _ in 0..400 {
            heard = b.last_heartbeat(NodeId(1));
            if heard.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let heard = heard.expect("beacon delivered");
        // The arrival stamp reflects wire time: at least the send time
        // (the receiver's clock advanced to the frame's arrival).
        assert!(heard >= sent_at, "heard {heard} < sent {sent_at}");
        // Heartbeats are fire-and-forget: no pending call, no reply.
        assert!(a.last_heartbeat(NodeId(2)).is_none());
    }

    #[test]
    fn eight_k_page_transfer_vt_matches_paper_shape() {
        let (_net, a, _b) = testbed(CostModel::sun3_ethernet());
        let before = a.clock().now();
        a.call(NodeId(2), ECHO, Bytes::from(vec![0u8; 8192]))
            .unwrap();
        let t = a.clock().now() - before;
        // Paper: reliably transferring an 8K page takes 11.9 ms. Our call
        // echoes the page back, so allow roughly twice that but verify the
        // one-way shape: at least 6 fragments' worth of wire time.
        assert!(t >= Vt::from_millis(12), "t {t}");
        assert!(t <= Vt::from_millis(40), "t {t}");
    }

    /// The model's unit prices, to the nanosecond: what they were before
    /// replies were charged at the caller (E2's 4.72 ms comes from the
    /// first), so any flow with one active thread per node is priced as
    /// it always was.
    #[test]
    fn transaction_virtual_time_is_pinned() {
        let (_net, a, _b) = testbed(CostModel::sun3_ethernet());
        let before = a.clock().now();
        a.call(NodeId(2), ECHO, Bytes::new()).unwrap();
        let null = a.clock().now() - before;
        assert_eq!(null, Vt::from_nanos(4_716_800));
        a.call(NodeId(2), ECHO, Bytes::from(vec![0u8; 8192]))
            .unwrap();
        assert_eq!(a.clock().now() - before - null, Vt::from_nanos(13_046_400));
    }

    /// A fan-out costs its slowest round trip, not the sum: the second
    /// request leaves one packet charge after the first, its reply lands
    /// exactly when the first reply has been processed, and is processed
    /// in turn.
    #[test]
    fn call_many_of_two_null_calls_costs_one_round_trip_plus_one_packet_not_two_round_trips() {
        let cost = CostModel::sun3_ethernet();
        let packet = cost.transport_packet;
        let net = Network::new(cost);
        let spawn = |id| RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default());
        let (a, b, c) = (spawn(1), spawn(2), spawn(3));
        b.register_service(ECHO, |req: Request| req.payload);
        c.register_service(ECHO, |req: Request| req.payload);
        let null = Vt::from_nanos(4_716_800);
        for _ in 0..20 {
            let before = a.clock().now();
            let replies = a.call_many(vec![
                (NodeId(2), ECHO, Bytes::new()),
                (NodeId(3), ECHO, Bytes::new()),
            ]);
            assert!(replies.iter().all(Result::is_ok));
            let spent = a.clock().now() - before;
            // Sent at +1 and +2 packets; replies arrive at null − 1 and
            // null packets and cost one packet each to take.
            assert_eq!(spent, null + packet);
            assert!(spent < null + null);
            // Each server saw one request: its clock is its own.
            assert!(b.clock().now() < a.clock().now());
            assert!(c.clock().now() < a.clock().now());
        }
    }

    /// `call_many` is the same calls made one by one: replies in request
    /// order, and a call that finds no service, no route or no peer is
    /// reported in its own slot without disturbing its neighbours.
    #[test]
    fn call_many_reports_each_call_as_call_would() {
        let net = Network::new(CostModel::zero());
        let cfg = RatpConfig {
            retry_interval: Duration::from_millis(5),
            max_retries: 3,
        };
        let spawn = |id| RatpNode::spawn(net.register(NodeId(id)).unwrap(), cfg.clone());
        let (a, b, _c) = (spawn(1), spawn(2), spawn(3));
        b.register_service(ECHO, |req: Request| req.payload);
        net.crash(NodeId(3));
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let calls = vec![
            (NodeId(2), ECHO, Bytes::from_static(b"first")),
            (NodeId(2), 999, Bytes::new()),
            (NodeId(3), ECHO, Bytes::from_static(b"nobody home")),
            (NodeId(9), ECHO, Bytes::new()),
            (NodeId(2), ECHO, Bytes::from(big.clone())),
            (NodeId(2), ECHO, Bytes::new()),
        ];
        let together = a.call_many(calls.clone());
        assert_eq!(together[0].as_deref(), Ok(&b"first"[..]));
        assert_eq!(together[1], Err(CallError::ServiceNotFound(999)));
        assert_eq!(together[2], Err(CallError::TimedOut));
        assert!(matches!(together[3], Err(CallError::Send(_))));
        assert_eq!(together[4].as_deref(), Ok(&big[..]));
        assert_eq!(together[5].as_deref(), Ok(&b""[..]));
        let one_by_one: Vec<_> = calls
            .into_iter()
            .map(|(dst, port, payload)| a.call(dst, port, payload))
            .collect();
        assert_eq!(together, one_by_one);
        assert!(a.call_many(Vec::new()).is_empty());
    }
}
