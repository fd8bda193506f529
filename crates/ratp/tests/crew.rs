//! Where handlers run, seen from outside: a synchronous caller runs its
//! own requests' handlers — one call's or a whole batch's — when they
//! arrive whole with their first transmission, a notify is applied on
//! the thread that delivers it,
//! every other request still gets a crew thread of its own however the
//! others block, and a handler that panics takes only its own
//! transaction with it. A notify handler that would wait or send
//! panics in debug builds. (Reuse and shutdown need to see the parked
//! workers: unit tests in `node.rs`.)

use bytes::Bytes;
use clouds_ratp::{CallError, RatpConfig, RatpNode, Request, MAX_FRAGMENT_PAYLOAD};
use clouds_simnet::{CostModel, Disruption, DisruptionKind, FaultSchedule, Network, NodeId, Vt};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Barrier};
use std::thread::ThreadId;
use std::time::Duration;

const ECHO: u16 = 1;

fn node(net: &Network, id: u32) -> Arc<RatpNode> {
    RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default())
}

fn counter(node: &RatpNode, name: &str) -> u64 {
    node.obs().registry().counter_value(name)
}

fn threads_started(node: &RatpNode) -> u64 {
    counter(node, "ratp.handler_threads_started")
}

/// Register a service on `port` that echoes, and reports each request's
/// payload with the thread that handled it.
fn witness(node: &RatpNode, port: u16) -> Receiver<(Bytes, ThreadId)> {
    let (tx, rx) = channel();
    node.register_service(port, move |req: Request| {
        let _ = tx.send((req.payload.clone(), std::thread::current().id()));
        req.payload
    });
    rx
}

fn handled(seen: &Receiver<(Bytes, ThreadId)>) -> (Bytes, ThreadId) {
    seen.recv_timeout(Duration::from_secs(10))
        .expect("the handler ran")
}

#[test]
fn the_crew_never_bounds_concurrency() {
    const N: usize = 16;
    const MEET: u16 = 2;
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    // No handler returns until all N are inside the barrier at once: a
    // bounded pool, or a queue behind a blocked handler, never gets
    // there and the calls time out. `call_async` hands no request off,
    // so all N are the crew's.
    let barrier = Arc::new(Barrier::new(N));
    server.register_service(MEET, move |req: Request| {
        barrier.wait();
        req.payload
    });
    let pending: Vec<_> = (0..N as u8)
        .map(|i| client.call_async(NodeId(2), MEET, Bytes::from(vec![i])))
        .collect();
    for (i, call) in pending.into_iter().enumerate() {
        let reply = call.await_reply().expect("call completes");
        assert_eq!(&reply[..], &[i as u8]);
    }
    assert_eq!(threads_started(&server), N as u64);
}

#[test]
fn a_synchronous_caller_runs_its_own_handler_and_the_crew_runs_the_rest() {
    const NOTIFIED: u16 = 2;
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    let seen = witness(&server, ECHO);
    let me = std::thread::current().id();

    client
        .call(NodeId(2), ECHO, Bytes::from_static(b"call"))
        .unwrap();
    assert_eq!(handled(&seen), (Bytes::from_static(b"call"), me));
    assert_eq!(threads_started(&server), 0, "a call starts no worker");

    // A batch's caller serves every member once all are out: the last
    // first, then the others in reverse order.
    let batch: Vec<_> = [&b"first"[..], b"second", b"last"]
        .into_iter()
        .map(|tag| (NodeId(2), ECHO, Bytes::from_static(tag)))
        .collect();
    let replies = client.call_many(batch);
    assert!(replies.iter().all(Result::is_ok));
    let order: Vec<_> = (0..3).map(|_| handled(&seen)).collect();
    assert_eq!(
        order,
        [&b"last"[..], b"second", b"first"].map(|tag| (Bytes::from_static(tag), me))
    );
    assert_eq!(threads_started(&server), 0, "a batch starts no worker");

    // `call_async` keeps its caller free, so the crew serves it.
    let pending = client.call_async(NodeId(2), ECHO, Bytes::from_static(b"async"));
    let (tag, on) = handled(&seen);
    assert_eq!(tag, Bytes::from_static(b"async"));
    assert_ne!(on, me);
    assert_eq!(&pending.await_reply().unwrap()[..], b"async");

    assert_eq!(counter(&server, "ratp.crew_jobs"), 1, "only the async call");
    let workers = threads_started(&server);

    // A notify is applied where it lands: on its sender's thread, before
    // `notify` returns, and never on the crew.
    let (tx, notified) = channel();
    server.register_notify(NOTIFIED, move |src, msg| {
        let _ = tx.send((src, msg.clone(), std::thread::current().id()));
    });
    client.notify(NodeId(2), NOTIFIED, Bytes::from_static(b"notify"));
    assert_eq!(
        notified
            .try_recv()
            .expect("applied before `notify` returned"),
        (NodeId(1), Bytes::from_static(b"notify"), me)
    );
    assert_eq!(
        threads_started(&server),
        workers,
        "a notify starts no worker"
    );
    assert_eq!(counter(&server, "ratp.crew_jobs"), 1);
}

#[test]
fn a_notify_to_a_port_without_a_notify_handler_is_dropped_and_counted() {
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    // A service on the port is not a notify handler.
    let seen = witness(&server, ECHO);
    for _ in 0..3 {
        client.notify(NodeId(2), ECHO, Bytes::from_static(b"lost"));
    }
    assert_eq!(counter(&server, "ratp.notifies_unhandled"), 3);
    assert!(seen.try_recv().is_err(), "the service saw no notify");
    assert_eq!(counter(&server, "ratp.crew_jobs"), 0);
}

/// A notify handler runs in a no-wait region: waiting on a condvar
/// there panics, on the delivering thread, even though the receive path
/// contains the handler's own panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "no-wait region: condvar wait")]
fn a_notify_handler_that_waits_panics() {
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    server.register_notify(2, |_src, _msg| {
        let (m, cv) = (parking_lot::Mutex::new(()), parking_lot::Condvar::new());
        let mut g = m.lock();
        cv.wait_for(&mut g, Duration::from_millis(1));
    });
    client.notify(NodeId(2), 2, Bytes::new());
}

/// …and so does sending from one: a notify handler is given no node to
/// send with, and one it captures is refused at its first call.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "no-wait region: RatpNode::call")]
fn a_notify_handler_that_calls_back_panics() {
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    client.register_service(ECHO, |req: Request| req.payload);
    let back = Arc::downgrade(&server);
    server.register_notify(2, move |src, msg| {
        let server = back.upgrade().expect("the server is live");
        let _ = server.call(src, ECHO, msg.clone());
    });
    client.notify(NodeId(2), 2, Bytes::new());
}

#[test]
fn a_request_that_loses_a_fragment_is_served_by_the_crew_exactly_once() {
    let cost = CostModel::sun3_ethernet();
    let packet = cost.transport_packet.as_nanos();
    let net = Network::new(cost);
    let cfg = RatpConfig {
        retry_interval: Duration::from_millis(5),
        max_retries: 400,
    };
    let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), cfg.clone());
    let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), cfg);
    let seen = witness(&server, ECHO);
    // A two-fragment request leaves at one and at two packet charges:
    // the second goes into a total-loss window that the retransmission,
    // a packet charge later, closes.
    net.set_schedule(&FaultSchedule {
        seed: 0,
        disruptions: vec![Disruption {
            at: Vt::from_nanos(packet * 3 / 2),
            until: Vt::from_nanos(packet * 5 / 2),
            kind: DisruptionKind::Loss(1.0),
        }],
    });
    let payload = Bytes::from(vec![7u8; MAX_FRAGMENT_PAYLOAD + 1]);
    let reply = client.call(NodeId(2), ECHO, payload.clone()).unwrap();
    assert_eq!(reply, payload);
    assert_eq!(net.stats().frames_dropped, 1);
    let retransmits = client.obs().registry().counter_value("ratp.retransmits");
    assert!(retransmits >= 1);

    let (tag, on) = handled(&seen);
    assert_eq!(tag, payload);
    assert_ne!(
        on,
        std::thread::current().id(),
        "completed by a retransmission"
    );
    assert_eq!(threads_started(&server), 1);
    assert!(seen.try_recv().is_err(), "the handler ran once");
}

#[test]
fn a_batch_member_whose_request_is_lost_is_served_by_the_crew_exactly_once() {
    let cost = CostModel::sun3_ethernet();
    let packet = cost.transport_packet.as_nanos();
    let net = Network::new(cost);
    let cfg = RatpConfig {
        retry_interval: Duration::from_millis(5),
        max_retries: 400,
    };
    let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), cfg.clone());
    let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), cfg);
    let seen = witness(&server, ECHO);
    // The batch's two one-fragment requests leave at one and at two
    // packet charges: the first goes into a total-loss window that its
    // retransmission, later, finds closed.
    net.set_schedule(&FaultSchedule {
        seed: 0,
        disruptions: vec![Disruption {
            at: Vt::from_nanos(packet / 2),
            until: Vt::from_nanos(packet * 3 / 2),
            kind: DisruptionKind::Loss(1.0),
        }],
    });
    let batch: Vec<_> = [&b"lost"[..], b"kept"]
        .into_iter()
        .map(|tag| (NodeId(2), ECHO, Bytes::from_static(tag)))
        .collect();
    let replies = client.call_many(batch);
    let replies: Vec<_> = replies.into_iter().map(Result::unwrap).collect();
    assert_eq!(replies, [&b"lost"[..], b"kept"].map(Bytes::from_static));
    assert_eq!(net.stats().frames_dropped, 1);

    let me = std::thread::current().id();
    let (kept, on) = handled(&seen);
    assert_eq!((kept, on), (Bytes::from_static(b"kept"), me));
    let (lost, on) = handled(&seen);
    assert_eq!(lost, Bytes::from_static(b"lost"));
    assert_ne!(on, me, "completed by a retransmission");
    assert_eq!(counter(&server, "ratp.crew_jobs"), 1);
    assert!(seen.try_recv().is_err(), "each handler ran once");
}

#[test]
fn handlers_nest_both_ways() {
    const OUTER: u16 = 2;
    const BACK: u16 = 3;
    let net = Network::new(CostModel::zero());
    let a = node(&net, 1);
    let b = node(&net, 2);
    // a → b:OUTER → a:BACK → b:ECHO, each handler blocked in a call into
    // the node whose handler is waiting for it. Every one of them is
    // handed off, so the whole chain runs on this thread.
    let (on_tx, on_rx) = channel();
    let report = move || {
        let on = on_tx.clone();
        move || {
            let _ = on.send(std::thread::current().id());
        }
    };
    let echoed = report();
    b.register_service(ECHO, move |req: Request| {
        echoed();
        req.payload
    });
    let (a_again, back) = (Arc::clone(&a), report());
    a.register_service(BACK, move |req: Request| {
        back();
        a_again
            .call(NodeId(2), ECHO, req.payload)
            .expect("innermost call")
    });
    let (b_again, outer) = (Arc::clone(&b), report());
    b.register_service(OUTER, move |req: Request| {
        outer();
        b_again
            .call(NodeId(1), BACK, req.payload)
            .expect("call back into the caller")
    });
    let reply = a
        .call(NodeId(2), OUTER, Bytes::from_static(b"there and back"))
        .unwrap();
    assert_eq!(&reply[..], b"there and back");
    let me = std::thread::current().id();
    assert_eq!(on_rx.try_iter().collect::<Vec<_>>(), vec![me; 3]);
    assert_eq!((threads_started(&a), threads_started(&b)), (0, 0));
    // Clear the handlers' handles on each other so both nodes drop.
    a.unregister_service(BACK);
    b.unregister_service(OUTER);
}

#[test]
fn a_panicking_handler_loses_only_its_own_transaction() {
    const MAYBE: u16 = 2;
    let net = Network::new(CostModel::zero());
    let client = node(&net, 1);
    let server = node(&net, 2);
    server.register_service(MAYBE, |req: Request| {
        assert!(
            req.payload.is_empty(),
            "handler panic (expected by the test)"
        );
        Bytes::from_static(b"served")
    });
    // Nobody answers for the transaction whose handler died…
    let lost = client.call_with_budget(NodeId(2), MAYBE, Bytes::from_static(b"boom"), 3);
    assert_eq!(lost, Err(CallError::TimedOut));
    // …and the port, and the rest of the crew, carry on.
    for _ in 0..3 {
        let reply = client.call(NodeId(2), MAYBE, Bytes::new()).unwrap();
        assert_eq!(&reply[..], b"served");
    }
}
