//! Layer probes: each times one layer's public call in isolation, on a
//! fixture of its own, and reports the median call. A probe answers
//! "did this layer's own cost move?" when an end-to-end number did.

use crate::metrics::Values;
use crate::objects::{Account, Session};
use crate::stats::quantile_sorted;
use bytes::Bytes;
use clouds::prelude::*;
use clouds::OperationLabel;
use clouds_codec::PageBytes;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_dsm::proto::{self, DsmReply, DsmRequest, WireMode, WireWriteBack};
use clouds_dsm::{DsmClientPartition, DsmServer};
use clouds_obs::NodeObs;
use clouds_ra::sched::{Scheduler, StackKind};
use clouds_ra::{
    AccessMode, AddressSpace, LocalPartition, PageCache, Partition, SegmentStore, SysName,
    PAGE_SIZE,
};
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId, VirtualClock, Vt};
use clouds_store::{LogConfig, LogRecord, LogStore};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls a probe stops at even when its time budget is not used up.
const MAX_CALLS: usize = 20_000;

/// Median nanoseconds of one `f()`, timing batches of `batch` calls
/// (so the two clock reads do not dominate a sub-microsecond call)
/// until `budget` is spent or [`MAX_CALLS`] calls were made.
fn median_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch.min(8) {
        f(); // warm caches and lazy state
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as u64 / batch as u64);
        if started.elapsed() >= budget || samples.len() * batch >= MAX_CALLS {
            break;
        }
    }
    samples.sort_unstable();
    quantile_sorted(&samples, 0.5) as f64
}

fn page_image(byte: u8) -> PageBytes {
    PageBytes::from(vec![byte; PAGE_SIZE])
}

fn ratp_node(net: &Network, id: u32) -> Arc<RatpNode> {
    RatpNode::spawn(
        net.register(NodeId(id)).expect("fresh node id"),
        RatpConfig::default(),
    )
}

fn codec(values: &mut Values, budget: Duration) {
    // The message that dominates DSM wire traffic: an 8 KiB page grant.
    let grant = DsmReply::Page {
        data: page_image(7),
        version: 9,
        zero_filled: false,
        grant_seq: 42,
    };
    let encoded = proto::encode(&grant);
    values.insert(
        "codec.page_encode_ns",
        median_ns(budget, 16, || {
            drop(black_box(proto::encode(black_box(&grant))))
        }),
    );
    values.insert(
        "codec.page_decode_ns",
        median_ns(budget, 16, || {
            drop(black_box(proto::decode_shared::<DsmReply>(black_box(
                &encoded,
            ))));
        }),
    );
    let args = (96u32, 32u32, 0xDEAD_BEEF_u64);
    values.insert(
        "codec.args_roundtrip_ns",
        median_ns(budget, 16, || {
            let bytes = encode_args(black_box(&args)).expect("args encode");
            black_box(decode_args::<(u32, u32, u64)>(&bytes).expect("args decode"));
        }),
    );
}

fn simnet(values: &mut Values, budget: Duration) {
    let net = Network::new(CostModel::sun3_ethernet());
    let a = net.register(NodeId(1)).expect("node");
    let b = net.register(NodeId(2)).expect("node");
    let payload = Bytes::from(vec![0u8; 1456]);
    values.insert(
        "simnet.frame_ns",
        median_ns(budget, 8, || {
            a.send(NodeId(2), payload.clone()).expect("send");
            black_box(b.recv_timeout(Duration::from_secs(1)).expect("recv"));
        }),
    );
}

fn ratp(values: &mut Values, budget: Duration) {
    let net = Network::new(CostModel::sun3_ethernet());
    let server = ratp_node(&net, 100);
    server.register_service(7, |req: Request| req.payload);
    let client = ratp_node(&net, 1);
    for (name, len) in [("ratp.null_call_us", 0), ("ratp.page_call_us", PAGE_SIZE)] {
        let payload = Bytes::from(vec![0u8; len]);
        let ns = median_ns(budget, 1, || {
            black_box(client.call(NodeId(100), 7, payload.clone()).expect("echo"));
        });
        values.insert(name, ns / 1e3);
    }
    server.shutdown();
    client.shutdown();
}

fn ra(values: &mut Values, budget: Duration) {
    let clock = Arc::new(VirtualClock::new());
    let store = SegmentStore::new();
    let seg = SysName::from_parts(0xBE7C, 100);
    const PAGES: u32 = 64;
    store
        .create(seg, u64::from(PAGES) * PAGE_SIZE as u64)
        .expect("segment");
    let partition = LocalPartition::new(store, Arc::clone(&clock), CostModel::sun3_ethernet());

    let hot = PageCache::new(PAGES as usize);
    values.insert(
        "ra.page_hit_ns",
        median_ns(budget, 16, || {
            hot.access((seg, 0), AccessMode::Read, &partition, |f| {
                black_box(f.data[0])
            })
            .expect("hit");
        }),
    );
    // Four frames under a 64-page cyclic walk: every access faults and
    // evicts.
    let cold = PageCache::new(4);
    let mut page = 0u32;
    values.insert(
        "ra.page_fault_ns",
        median_ns(budget, 4, || {
            page = (page + 1) % PAGES;
            cold.access((seg, page), AccessMode::Read, &partition, |f| {
                black_box(f.data[0])
            })
            .expect("fault");
        }),
    );
    // Two IsiBas on one virtual CPU, each yielding to the other once:
    // spawn, dispatch, two context switches, exit.
    let sched = Scheduler::new(1, clock, Vt::from_micros(140));
    let ns = median_ns(budget, 1, || {
        let pair = [(); 2].map(|()| sched.spawn(StackKind::User, |ctx| ctx.yield_now()));
        pair.into_iter().for_each(|h| h.join());
    });
    values.insert("ra.ctx_switch_us", ns / 1e3);
}

fn dsm(values: &mut Values, budget: Duration) {
    const PAGES: u32 = 128;
    let net = Network::new(CostModel::sun3_ethernet());
    let ds = ratp_node(&net, 100);
    let server = DsmServer::install(&ds);
    let src = NodeId(9_999);
    let serve = |req: &DsmRequest| -> DsmReply {
        let reply = server.serve_wire(src, &proto::encode(req));
        proto::decode_shared(&reply).expect("reply decodes")
    };
    let seg = SysName::from_parts(0xBE7C, 200);
    let len = u64::from(PAGES) * PAGE_SIZE as u64;
    assert!(matches!(
        serve(&DsmRequest::CreateSegment { seg, len }),
        DsmReply::Ok
    ));
    let batch = |first: u32| DsmRequest::WriteBackBatch {
        pages: (first..first + 32)
            .map(|page| WireWriteBack {
                seg,
                page,
                data: page_image(page as u8),
            })
            .collect(),
    };
    for first in (0..PAGES).step_by(32) {
        serve(&batch(first)); // materialize: fetches below copy real pages
    }

    let mut page = 0u32;
    let ns = median_ns(budget, 1, || {
        page = (page + 1) % PAGES;
        let DsmReply::Page { grant_seq, .. } = serve(&DsmRequest::FetchPage {
            seg,
            page,
            mode: WireMode::Read,
        }) else {
            panic!("probe fetch not granted");
        };
        serve(&DsmRequest::InstallAck {
            seg,
            page,
            grant_seq,
        });
        serve(&DsmRequest::ReleasePage { seg, page });
    });
    values.insert("dsm.serve_fetch_us", ns / 1e3);

    let mut first = 0u32;
    let ns = median_ns(budget, 1, || {
        first = (first + 32) % PAGES;
        black_box(serve(&batch(first)));
    });
    values.insert("dsm.serve_write_back32_us", ns / 1e3);

    // Through the client partition and RaTP: a cold sequential scan of
    // the same 128 pages (read-ahead on, as the compute servers run it).
    let client = |id: u32, frames: usize| {
        let ratp = ratp_node(&net, id);
        let part =
            DsmClientPartition::install(&ratp, Arc::new(PageCache::new(frames)), vec![NodeId(100)]);
        let mut space = AddressSpace::new(
            Arc::clone(part.cache()),
            Arc::clone(&part) as Arc<dyn Partition>,
        );
        space.map(0, seg, 0, len, true).expect("map");
        (ratp, part, space)
    };
    let (ratp_a, part_a, space_a) = client(1, 2 * PAGES as usize);
    let ns = median_ns(budget, 1, || {
        part_a.cache().clear();
        server.clear_directory();
        for page in 0..u64::from(PAGES) {
            black_box(space_a.read_u64(page * PAGE_SIZE as u64).expect("scan"));
        }
    });
    values.insert("dsm.raw_scan_page_us", ns / 1e3 / f64::from(PAGES));

    // One page bouncing between two writers: four coherence hops.
    part_a.cache().clear();
    server.clear_directory();
    let (ratp_b, _part_b, space_b) = client(2, 64);
    let mut i = 0u64;
    let ns = median_ns(budget, 1, || {
        space_a.write_u64(0, i).expect("write a");
        black_box(space_b.read_u64(0).expect("read b"));
        space_b.write_u64(0, i + 1).expect("write b");
        black_box(space_a.read_u64(0).expect("read a"));
        i += 2;
    });
    values.insert("dsm.ping_pong_us", ns / 1e3);
    for node in [ds, ratp_a, ratp_b] {
        node.shutdown();
    }
}

fn store(values: &mut Values, budget: Duration) {
    const RECORDS: u32 = 1024;
    let seg = SysName::from_parts(0xBE7C, 300);
    let log = LogStore::new(LogConfig::default());
    log.append(LogRecord::SegmentCreate {
        seg,
        len: u64::from(RECORDS) * PAGE_SIZE as u64,
    });
    let mut version = 0u64;
    let mut page = 0u32;
    let ns = median_ns(budget, 1, || {
        page = (page + 1) % RECORDS;
        version += 1;
        log.append(LogRecord::PageWrite {
            seg,
            page,
            version,
            data: vec![page as u8; PAGE_SIZE],
        });
    });
    values.insert("store.append_page_us", ns / 1e3);

    // A log of exactly 1 024 live page records: compaction rewrites all
    // of them, replay scans all of them.
    let log = LogStore::new(LogConfig {
        auto_compact: false,
        ..LogConfig::default()
    });
    log.append(LogRecord::SegmentCreate {
        seg,
        len: u64::from(RECORDS) * PAGE_SIZE as u64,
    });
    for page in 0..RECORDS {
        log.append(LogRecord::PageWrite {
            seg,
            page,
            version: 1,
            data: vec![page as u8; PAGE_SIZE],
        });
    }
    values.insert(
        "store.compact_ms",
        median_ns(budget, 1, || log.compact()) / 1e6,
    );
    let ns = median_ns(budget, 1, || {
        log.crash();
        black_box(log.replay());
    });
    values.insert("store.replay_ms", ns / 1e6);
}

/// naming, core and consistency share one small cluster.
fn cluster_layers(values: &mut Values, budget: Duration) {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(1)
        .build()
        .expect("probe cluster boots");
    cluster.register_class("session", Session).expect("class");
    cluster.register_class("account", Account).expect("class");
    let runtime = ConsistencyRuntime::install(&cluster);
    let session = cluster
        .create_object("session", "probe-session")
        .expect("object");
    let account = cluster
        .create_object("account", "probe-account")
        .expect("object");
    let cs = cluster.compute(0);
    let ws = cluster.workstation(0);
    let unit = encode_args(&()).expect("args");
    let one = encode_args(&1u64).expect("args");

    let us = |ns: f64| ns / 1e3;
    values.insert(
        "naming.lookup_us",
        us(median_ns(budget, 1, || {
            black_box(cluster.naming().lookup("probe-session").expect("lookup"));
        })),
    );
    values.insert(
        "core.invoke_local_us",
        us(median_ns(budget, 1, || {
            black_box(cs.invoke(session, "get", &unit, None).expect("invoke"));
        })),
    );
    values.insert(
        "core.ws_invoke_us",
        us(median_ns(budget, 1, || {
            black_box(ws.run_wait("probe-session", "get", &()).expect("run_wait"));
        })),
    );
    for (name, label) in [
        ("consistency.gcp_local_us", OperationLabel::Gcp),
        ("consistency.lcp_local_us", OperationLabel::Lcp),
    ] {
        let ns = median_ns(budget, 1, || {
            black_box(
                runtime
                    .invoke(cs, label, account, "add", &one, &CpOptions::default())
                    .expect("cp invoke"),
            );
        });
        values.insert(name, us(ns));
    }
    for node in [cs.ratp(), cluster.data_server(0).ratp(), ws.ratp()] {
        node.shutdown();
    }
}

fn obs(values: &mut Values, budget: Duration) {
    let obs = NodeObs::solo(1, Arc::new(VirtualClock::new()));
    let mut trace_id = 0u64;
    values.insert(
        "obs.span_ns",
        median_ns(budget, 16, || {
            trace_id += 1;
            obs.root_span(trace_id, "bench", "probe", "").finish();
        }),
    );
}

/// Run every probe, each within `budget` of wall time.
pub fn run_all(values: &mut Values, budget: Duration) {
    codec(values, budget);
    simnet(values, budget);
    ratp(values, budget);
    ra(values, budget);
    dsm(values, budget);
    store(values, budget);
    cluster_layers(values, budget);
    obs(values, budget);
}
