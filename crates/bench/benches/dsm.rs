//! Criterion wall-clock benches for the DSM coherence protocol and the
//! codec (supporting E4 and the parameter-passing path).

use clouds_codec::PageBytes;
use clouds_dsm::{DsmClientPartition, DsmServer};
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use clouds_dsm::proto::{self, ports, DsmReply, DsmRequest, WireInstallAck, WireMode};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn dsm_pair() -> (AddressSpace, AddressSpace, SysName) {
    let net = Network::new(CostModel::zero());
    let ds = RatpNode::spawn(net.register(NodeId(100)).unwrap(), RatpConfig::default());
    let _server = DsmServer::install(&ds);
    let mk = |id| {
        let ratp = RatpNode::spawn(net.register(id).unwrap(), RatpConfig::default());
        let cache = Arc::new(PageCache::new(64));
        DsmClientPartition::install(&ratp, cache, vec![NodeId(100)])
    };
    let a = mk(NodeId(1));
    let b = mk(NodeId(2));
    let seg = SysName::from_parts(9, 9);
    a.create_segment(seg, PAGE_SIZE as u64).unwrap();
    let mut sa = AddressSpace::new(Arc::clone(a.cache()), a as Arc<dyn Partition>);
    let mut sb = AddressSpace::new(Arc::clone(b.cache()), b as Arc<dyn Partition>);
    sa.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
    sb.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
    (sa, sb, seg)
}

fn bench_dsm(c: &mut Criterion) {
    let (sa, sb, _seg) = dsm_pair();
    let mut group = c.benchmark_group("dsm");
    group.sample_size(10);
    group.bench_function("page_ping_pong", |b| {
        let mut i = 0u64;
        b.iter(|| {
            sa.write_u64(0, i).unwrap();
            black_box(sb.read_u64(0).unwrap());
            sb.write_u64(0, i + 1).unwrap();
            black_box(sa.read_u64(0).unwrap());
            i += 2;
        });
    });
    group.bench_function("local_hit_read", |b| {
        sa.write_u64(0, 7).unwrap();
        b.iter(|| black_box(sa.read_u64(0).unwrap()));
    });
    group.finish();
}

/// Batched-paging benches: a cold 1 MiB sequential scan (read-ahead
/// collapses ~128 fetch RPCs into ~17) and a 32-dirty-page commit flush
/// (one coalesced `WriteBackBatch` instead of 32 `WriteBack`s).
fn bench_dsm_batching(c: &mut Criterion) {
    const PAGES: u64 = (1 << 20) / PAGE_SIZE as u64; // 1 MiB of pages
    let net = Network::new(CostModel::zero());
    let ds = RatpNode::spawn(net.register(NodeId(100)).unwrap(), RatpConfig::default());
    let server = DsmServer::install(&ds);

    // Seed the canonical store over the raw wire (written back and
    // released) so scans page from the server, not from another client.
    let raw = RatpNode::spawn(net.register(NodeId(99)).unwrap(), RatpConfig::default());
    let scan_seg = SysName::from_parts(9, 10);
    let call = |req: &DsmRequest| {
        let reply = raw.call(NodeId(100), ports::DSM_SERVER, proto::encode(req)).unwrap();
        assert!(matches!(proto::decode(&reply).unwrap(), DsmReply::Ok));
    };
    call(&DsmRequest::CreateSegment {
        seg: scan_seg,
        len: PAGES * PAGE_SIZE as u64,
    });
    for page in 0..PAGES {
        call(&DsmRequest::WriteBack {
            seg: scan_seg,
            page: page as u32,
            data: PageBytes::from(vec![page as u8; PAGE_SIZE]),
            release: true,
        });
    }

    let mk = |id, frames| {
        let ratp = RatpNode::spawn(net.register(id).unwrap(), RatpConfig::default());
        DsmClientPartition::install(&ratp, Arc::new(PageCache::new(frames)), vec![NodeId(100)])
    };
    let reader = mk(NodeId(1), 2 * PAGES as usize);
    let mut rs = AddressSpace::new(
        Arc::clone(reader.cache()),
        Arc::clone(&reader) as Arc<dyn Partition>,
    );
    rs.map(0, scan_seg, 0, PAGES * PAGE_SIZE as u64, true).unwrap();

    let mut group = c.benchmark_group("dsm");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE as u64));
    group.bench_function("sequential_scan_1mb", |b| {
        // Cold-start every sample: drop the cached frames and the
        // server's memory of them, so each scan demand-pages afresh.
        reader.cache().clear();
        server.clear_directory();
        b.iter(|| {
            for page in 0..PAGES {
                black_box(rs.read_u64(page * PAGE_SIZE as u64).unwrap());
            }
        });
    });

    const DIRTY: u64 = 32;
    let writer = mk(NodeId(2), 64);
    let flush_seg = SysName::from_parts(9, 11);
    writer
        .create_segment(flush_seg, DIRTY * PAGE_SIZE as u64)
        .unwrap();
    let mut ws = AddressSpace::new(
        Arc::clone(writer.cache()),
        Arc::clone(&writer) as Arc<dyn Partition>,
    );
    ws.map(0, flush_seg, 0, DIRTY * PAGE_SIZE as u64, true).unwrap();
    group.throughput(Throughput::Bytes(DIRTY * PAGE_SIZE as u64));
    group.bench_function("commit_flush_32_dirty", |b| {
        // Re-dirty the working set outside the timed region.
        for page in 0..DIRTY {
            ws.write_u64(page * PAGE_SIZE as u64, page).unwrap();
        }
        b.iter(|| ws.flush().unwrap());
    });
    group.finish();
}

/// Four clients scanning four disjoint segments against one data
/// server: every fetch races the others for the coherence directory, so
/// aggregate throughput is governed by how finely the directory locks.
/// The scans drive the server's wire handler in-process (the same
/// decode → directory → grant → encode path RaTP dispatches to) so the
/// directory is the bottleneck rather than transport threads.
fn bench_dsm_concurrent(c: &mut Criterion) {
    const CLIENTS: u64 = 4;
    const PAGES: u32 = 64;
    let net = Network::new(CostModel::zero());
    let ds = RatpNode::spawn(net.register(NodeId(100)).unwrap(), RatpConfig::default());
    let server = DsmServer::install(&ds);

    let seed = |req: &DsmRequest| {
        let reply = server.serve_wire(NodeId(99), &proto::encode(req));
        assert!(matches!(proto::decode(&reply).unwrap(), DsmReply::Ok));
    };
    let seg_of = |i: u64| SysName::from_parts(9, 20 + i);
    for i in 0..CLIENTS {
        seed(&DsmRequest::CreateSegment {
            seg: seg_of(i),
            len: u64::from(PAGES) * PAGE_SIZE as u64,
        });
        for page in 0..PAGES {
            seed(&DsmRequest::WriteBack {
                seg: seg_of(i),
                page,
                data: PageBytes::from(vec![page as u8; PAGE_SIZE]),
                release: true,
            });
        }
    }

    let mut group = c.benchmark_group("dsm");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(
        CLIENTS * u64::from(PAGES) * PAGE_SIZE as u64,
    ));
    group.bench_function("concurrent_scan_4_clients", |b| {
        b.iter(|| {
            // Cold-start every iteration: all four scans demand-page
            // concurrently, acking each grant like a real client.
            server.clear_directory();
            std::thread::scope(|s| {
                for i in 0..CLIENTS {
                    let server = &server;
                    s.spawn(move || {
                        let src = NodeId(1 + i as u32);
                        let seg = seg_of(i);
                        for page in 0..PAGES {
                            let fetch = proto::encode(&DsmRequest::FetchPage {
                                seg,
                                page,
                                mode: WireMode::Read,
                            });
                            let reply = server.serve_wire(src, &fetch);
                            let DsmReply::Page { data, grant_seq, .. } =
                                proto::decode_shared(&reply).unwrap()
                            else {
                                panic!("fetch not granted");
                            };
                            black_box(&data);
                            let ack = proto::encode(&DsmRequest::InstallAckBatch {
                                seg,
                                acks: vec![WireInstallAck {
                                    page,
                                    grant_seq,
                                    installed: true,
                                }],
                            });
                            black_box(server.serve_wire(src, &ack));
                        }
                    });
                }
            });
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    // The message that dominates DSM wire traffic: an 8 KiB page grant.
    // Encode is one length-prefixed memcpy out of the `PageBytes`;
    // decode adopts the payload as a refcounted slice of the reply
    // buffer instead of copying it out field by field.
    let grant = DsmReply::Page {
        data: PageBytes::from(vec![7u8; PAGE_SIZE]),
        version: 9,
        zero_filled: false,
        grant_seq: 42,
    };
    let encoded = proto::encode(&grant);

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(proto::encode(&grant)));
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(proto::decode_shared::<DsmReply>(&encoded).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_dsm, bench_dsm_batching, bench_dsm_concurrent, bench_codec);
criterion_main!(benches);
