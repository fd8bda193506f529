//! Criterion wall-clock benches for E2: the real cost of RaTP message
//! transactions in the reproduction (virtual-time results live in
//! `paper_tables`).

use bytes::Bytes;
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_ratp(c: &mut Criterion) {
    let net = Network::new(CostModel::zero());
    let a = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
    let b = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
    b.register_service(1, |req: Request| req.payload);
    let b2 = RatpNode::spawn(net.register(NodeId(3)).unwrap(), RatpConfig::default());
    b2.register_service(1, |req: Request| req.payload);

    let mut group = c.benchmark_group("ratp");
    group.sample_size(20);
    group.bench_function("null_transaction", |bch| {
        bch.iter(|| black_box(a.call(NodeId(2), 1, Bytes::new()).unwrap()));
    });
    // Two null calls to two nodes from one thread: the 2PC fan-out's
    // shape. Read against 2 × null_transaction.
    group.bench_function("call_many_2", |bch| {
        bch.iter(|| {
            black_box(a.call_many(vec![
                (NodeId(2), 1, Bytes::new()),
                (NodeId(3), 1, Bytes::new()),
            ]))
        });
    });
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("8k_echo", |bch| {
        let payload = Bytes::from(vec![0u8; 8192]);
        bch.iter(|| black_box(a.call(NodeId(2), 1, payload.clone()).unwrap()));
    });
    group.finish();
}

fn bench_frames(c: &mut Criterion) {
    let net = Network::new(CostModel::zero());
    let a = net.register(NodeId(11)).unwrap();
    let b = net.register(NodeId(12)).unwrap();

    let mut group = c.benchmark_group("simnet");
    group.bench_function("frame_send_recv", |bch| {
        bch.iter(|| {
            a.send(NodeId(12), Bytes::from_static(b"ping")).unwrap();
            black_box(b.recv_timeout(std::time::Duration::from_secs(1)).unwrap());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ratp, bench_frames);
criterion_main!(benches);
