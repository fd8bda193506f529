//! RaTP under adversity: loss, duplication, crash-restart, concurrent
//! load, and a property-based echo over every fragmentation regime.

#![allow(
    clippy::disallowed_methods,
    reason = "waits for asynchronous deliveries on a wall-clock deadline"
)]

use bytes::Bytes;
use clouds_ratp::{CallError, RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, FaultPlan, Network, NodeId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ECHO: u16 = 1;

fn bed(seed: u64) -> (Network, Arc<RatpNode>, Arc<RatpNode>) {
    let net = Network::with_seed(CostModel::zero(), seed);
    let cfg = RatpConfig {
        retry_interval: Duration::from_millis(8),
        max_retries: 400,
    };
    let a = RatpNode::spawn(net.register(NodeId(1)).unwrap(), cfg.clone());
    let b = RatpNode::spawn(net.register(NodeId(2)).unwrap(), cfg);
    b.register_service(ECHO, |req: Request| req.payload);
    (net, a, b)
}

#[test]
fn loss_and_duplication_together() {
    let (net, a, _b) = bed(7);
    net.set_loss(0.25);
    net.set_duplication(0.25);
    for i in 0..15u32 {
        let msg = i.to_le_bytes().to_vec();
        let reply = a.call(NodeId(2), ECHO, Bytes::from(msg.clone())).unwrap();
        assert_eq!(&reply[..], &msg[..]);
    }
}

#[test]
fn multi_fragment_messages_survive_loss() {
    let (net, a, _b) = bed(11);
    net.set_loss(0.15);
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
    for _ in 0..5 {
        let reply = a
            .call(NodeId(2), ECHO, Bytes::from(payload.clone()))
            .unwrap();
        assert_eq!(reply.len(), payload.len());
    }
}

#[test]
fn server_crash_mid_conversation_then_restart() {
    let (net, a, b) = bed(13);
    a.call(NodeId(2), ECHO, Bytes::from_static(b"before"))
        .unwrap();

    net.crash(NodeId(2));
    let err = a
        .call_with_budget(NodeId(2), ECHO, Bytes::from_static(b"down"), 3)
        .unwrap_err();
    assert_eq!(err, CallError::TimedOut);

    net.restart(NodeId(2));
    b.reset_volatile_state(); // a rebooted machine forgets protocol state
    let reply = a
        .call(NodeId(2), ECHO, Bytes::from_static(b"after"))
        .unwrap();
    assert_eq!(&reply[..], b"after");
}

#[test]
fn at_most_once_execution_per_transaction_under_faults() {
    // Under pure duplication (no loss), a non-idempotent handler must
    // run exactly once per call.
    let (net, a, b) = bed(17);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    b.register_service(9, move |_req: Request| {
        h.fetch_add(1, Ordering::SeqCst);
        Bytes::new()
    });
    net.set_duplication(0.5);
    for _ in 0..30 {
        a.call(NodeId(2), 9, Bytes::new()).unwrap();
    }
    assert_eq!(hits.load(Ordering::SeqCst), 30);
}

#[test]
fn notify_is_fire_and_forget() {
    let (_net, a, b) = bed(19);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    b.register_notify(5, move |_src, _msg| {
        h.fetch_add(1, Ordering::SeqCst);
    });
    for _ in 0..4 {
        a.notify(NodeId(2), 5, Bytes::from_static(b"ping"));
    }
    // Applied where it lands: on this thread, inside the send.
    assert_eq!(hits.load(Ordering::SeqCst), 4);
}

#[test]
fn heavy_concurrent_load_with_faults() {
    let (net, a, _b) = bed(23);
    net.set_loss(0.1);
    net.set_duplication(0.1);
    let mut handles = Vec::new();
    for t in 0..6u8 {
        let a = Arc::clone(&a);
        handles.push(std::thread::spawn(move || {
            for i in 0..10u8 {
                let msg = vec![t, i, t ^ i];
                let reply = a.call(NodeId(2), ECHO, Bytes::from(msg.clone())).unwrap();
                assert_eq!(&reply[..], &msg[..]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Ports of [`many_fragment_bed`]: a 64 KiB reply to anything, and an
/// empty reply to a request checked to be 256 KiB of its seed byte.
const BIG_REPLY: u16 = 10;
const BIG_REQUEST: u16 = 11;
const REPLY_LEN: usize = 64 << 10;
const REQUEST_LEN: usize = 256 << 10;

/// [`bed`] with the two many-fragment services, each counting its runs
/// in the last of the four.
fn many_fragment_bed(seed: u64) -> (Network, Arc<RatpNode>, Arc<RatpNode>, Arc<AtomicU64>) {
    let (net, a, b) = bed(seed);
    let runs = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&runs);
    b.register_service(BIG_REPLY, move |req: Request| {
        counted.fetch_add(1, Ordering::SeqCst);
        Bytes::from(vec![req.payload[0]; REPLY_LEN])
    });
    let counted = Arc::clone(&runs);
    b.register_service(BIG_REQUEST, move |req: Request| {
        counted.fetch_add(1, Ordering::SeqCst);
        assert_eq!(req.payload.len(), REQUEST_LEN);
        assert!(req.payload.iter().all(|&byte| byte == req.payload[0]));
        Bytes::new()
    });
    (net, a, b, runs)
}

#[test]
fn a_many_fragment_message_is_one_delivery() {
    let (net, a, _b, runs) = many_fragment_bed(29);
    let before = net.stats();
    let reply = a
        .call(NodeId(2), BIG_REPLY, Bytes::from_static(b"r"))
        .unwrap();
    let traffic = net.stats().since(&before);
    assert_eq!(reply, Bytes::from(vec![b'r'; REPLY_LEN]));
    assert!(traffic.frames_sent > 40, "{traffic:?}");
    assert_eq!(traffic.deliveries, 2, "one request, one 64 KiB reply");

    let before = net.stats();
    let reply = a.call(NodeId(2), BIG_REQUEST, Bytes::from(vec![b'q'; REQUEST_LEN]));
    let traffic = net.stats().since(&before);
    assert_eq!(reply, Ok(Bytes::new()));
    assert!(traffic.frames_sent > 170, "{traffic:?}");
    assert_eq!(traffic.deliveries, 2, "one 256 KiB request, one reply");
    assert_eq!(runs.load(Ordering::SeqCst), 2);
}

#[test]
fn many_fragment_messages_complete_once_under_duplication_and_reorder() {
    let (net, a, _b, runs) = many_fragment_bed(31);
    net.set_faults(FaultPlan {
        duplication: 0.2,
        reorder: 0.2,
        ..FaultPlan::none()
    });
    for i in 0..4u8 {
        let reply = a.call(NodeId(2), BIG_REPLY, Bytes::from(vec![i])).unwrap();
        assert_eq!(reply, Bytes::from(vec![i; REPLY_LEN]));
        let reply = a.call(NodeId(2), BIG_REQUEST, Bytes::from(vec![i; REQUEST_LEN]));
        assert_eq!(reply, Ok(Bytes::new()));
    }
    assert_eq!(
        runs.load(Ordering::SeqCst),
        8,
        "a handler ran twice or not at all"
    );
    let faults = net.stats();
    assert!(
        faults.frames_duplicated > 0 && faults.frames_reordered > 0,
        "{faults:?}"
    );
}

proptest! {
    /// Echo correctness over random payload sizes spanning multiple
    /// fragmentation regimes.
    #[test]
    fn echo_roundtrip_any_size(len in 0usize..6000, seed in 0u64..50) {
        let (_net, a, _b) = bed(1000 + seed);
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let reply = a.call(NodeId(2), ECHO, Bytes::from(payload.clone())).unwrap();
        prop_assert_eq!(&reply[..], &payload[..]);
    }
}
