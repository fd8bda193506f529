//! The handler crew seen from outside: every message still gets a
//! thread of its own, however the others block, and a handler that
//! panics takes only its own transaction with it. (Reuse and shutdown
//! need to see the parked workers: unit tests in `node.rs`.)

use bytes::Bytes;
use clouds_ratp::{CallError, RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};
use std::sync::{Arc, Barrier};

const ECHO: u16 = 1;

fn node(net: &Network, id: u32) -> Arc<RatpNode> {
    RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default())
}

fn threads_started(node: &RatpNode) -> u64 {
    node.obs()
        .registry()
        .counter_value("ratp.handler_threads_started")
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
    // there and the calls time out.
    let barrier = Arc::new(Barrier::new(N));
    server.register_service(MEET, move |req: Request| {
        barrier.wait();
        req.payload
    });
    let callers: Vec<_> = (0..N as u8)
        .map(|i| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.call(NodeId(2), MEET, Bytes::from(vec![i])))
        })
        .collect();
    for (i, caller) in callers.into_iter().enumerate() {
        let reply = caller.join().expect("caller thread").expect("call completes");
        assert_eq!(&reply[..], &[i as u8]);
    }
    assert_eq!(threads_started(&server), N as u64);
}

#[test]
fn handlers_nest_both_ways() {
    const OUTER: u16 = 2;
    const BACK: u16 = 3;
    let net = Network::new(CostModel::zero());
    let a = node(&net, 1);
    let b = node(&net, 2);
    // a → b:OUTER → a:BACK → b:ECHO, each handler blocked in a call into
    // the node whose handler is waiting for it.
    b.register_service(ECHO, |req: Request| req.payload);
    let a_again = Arc::clone(&a);
    a.register_service(BACK, move |req: Request| {
        a_again
            .call(NodeId(2), ECHO, req.payload)
            .expect("innermost call")
    });
    let b_again = Arc::clone(&b);
    b.register_service(OUTER, move |req: Request| {
        b_again
            .call(NodeId(1), BACK, req.payload)
            .expect("call back into the caller")
    });
    let reply = a.call(NodeId(2), OUTER, Bytes::from_static(b"there and back")).unwrap();
    assert_eq!(&reply[..], b"there and back");
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
        assert!(req.payload.is_empty(), "handler panic (expected by the test)");
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
