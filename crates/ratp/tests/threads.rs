//! Thread census. A test binary of its own, with one test: any other
//! test running beside it in the process would move the count.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// Names of this process's threads that start with `ratp-`.
fn ratp_thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .filter(|name| name.starts_with("ratp-"))
        .collect()
}

#[test]
fn a_node_has_no_thread_of_its_own() {
    let net = Network::new(CostModel::zero());
    let before = os_threads();
    let nodes: Vec<_> = (1..=32)
        .map(|id| RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default()))
        .collect();
    assert_eq!(os_threads(), before, "spawning nodes started threads");
    // A call's handler runs on its caller, and a notify's on its
    // sender: calls and notifies start no thread.
    for node in &nodes[1..] {
        node.register_service(7, |req: Request| req.payload);
        node.register_notify(8, |_src, _msg| {});
        nodes[0].call(node.node_id(), 7, Bytes::new()).unwrap();
        nodes[0].notify(node.node_id(), 8, Bytes::new());
    }
    assert_eq!(os_threads(), before, "calls and notifies started threads");
    // A batch's handlers run on its caller too: a `call_many` starts no
    // worker.
    let batch = nodes[1..]
        .iter()
        .map(|node| (node.node_id(), 7, Bytes::new()))
        .collect();
    let replies = nodes[0].call_many(batch);
    assert!(replies.iter().all(Result::is_ok));
    assert_eq!(os_threads(), before, "a `call_many` started threads");
    // `call_async` requests start the crew's workers, one per node that
    // served, and nothing else.
    let pending: Vec<_> = nodes[1..]
        .iter()
        .map(|node| nodes[0].call_async(node.node_id(), 7, Bytes::new()))
        .collect();
    for call in pending {
        call.await_reply().expect("an async call answered");
    }
    assert_eq!(os_threads(), before + 31);
    let names = ratp_thread_names();
    assert_eq!(names.len(), 31, "{names:?}");
    assert!(
        names.iter().all(|name| name.starts_with("ratp-crew-")),
        "{names:?}"
    );
}
