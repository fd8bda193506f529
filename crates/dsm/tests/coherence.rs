//! Integration tests for one-copy semantics across simulated nodes:
//! the §3.2 "Distributed Shared Memory" box, exercised end to end
//! (client partitions + RaTP + coherence directory).

use clouds_dsm::proto::{self, ports, DsmReply, DsmRequest, RecallReply, WireInstallAck, WireMode};
use clouds_dsm::{DsmClientPartition, DsmServer};
use clouds_obs::NodeObs;
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};
use std::sync::Arc;
use std::time::Duration;

struct Client {
    part: Arc<DsmClientPartition>,
}

impl Client {
    fn space(&self, seg: SysName, pages: u64) -> AddressSpace {
        let mut s = AddressSpace::new(
            Arc::clone(self.part.cache()),
            Arc::clone(&self.part) as Arc<dyn Partition>,
        );
        s.map(0, seg, 0, pages * PAGE_SIZE as u64, true).unwrap();
        s
    }
}

struct Bed {
    net: Network,
    servers: Vec<Arc<DsmServer>>,
    data_nodes: Vec<NodeId>,
}

impl Bed {
    fn new(n_data: u32) -> Bed {
        let net = Network::new(CostModel::zero());
        let mut servers = Vec::new();
        let mut data_nodes = Vec::new();
        for i in 0..n_data {
            let id = NodeId(100 + i);
            let ratp = RatpNode::spawn(net.register(id).unwrap(), RatpConfig::default());
            servers.push(DsmServer::install(&ratp));
            data_nodes.push(id);
        }
        Bed {
            net,
            servers,
            data_nodes,
        }
    }

    fn client(&self, id: u32, cache_frames: usize) -> Client {
        let ratp = RatpNode::spawn(
            self.net.register(NodeId(id)).unwrap(),
            RatpConfig {
                retry_interval: Duration::from_millis(10),
                max_retries: 100,
            },
        );
        let cache = Arc::new(PageCache::new(cache_frames));
        Client {
            part: DsmClientPartition::install(&ratp, cache, self.data_nodes.clone()),
        }
    }
}

/// Counter `name` in `obs`'s node registry.
fn counted(obs: &NodeObs, name: &str) -> u64 {
    obs.registry().counter_value(name)
}

fn seg(n: u64) -> SysName {
    SysName::from_parts(7, n)
}

#[test]
fn write_visible_on_other_node() {
    let bed = Bed::new(1);
    let a = bed.client(1, 64);
    let b = bed.client(2, 64);
    a.part.create_segment(seg(1), 2 * PAGE_SIZE as u64).unwrap();
    let sa = a.space(seg(1), 2);
    let sb = b.space(seg(1), 2);
    sa.write(100, b"from A").unwrap();
    assert_eq!(sb.read(100, 6).unwrap(), b"from A");
}

#[test]
fn ping_pong_ownership_transfer() {
    let bed = Bed::new(1);
    let a = bed.client(1, 64);
    let b = bed.client(2, 64);
    a.part.create_segment(seg(2), PAGE_SIZE as u64).unwrap();
    let sa = a.space(seg(2), 1);
    let sb = b.space(seg(2), 1);
    for round in 0..10u64 {
        sa.write_u64(0, round * 2).unwrap();
        assert_eq!(sb.read_u64(0).unwrap(), round * 2);
        sb.write_u64(0, round * 2 + 1).unwrap();
        assert_eq!(sa.read_u64(0).unwrap(), round * 2 + 1);
    }
    let server = |name| counted(bed.servers[0].obs(), name);
    assert!(server("dsm.server.invalidations") + server("dsm.server.downgrades") >= 10);
}

#[test]
fn concurrent_increments_preserve_total() {
    // Increments are not atomic across nodes without locks, so give each
    // node its own counter in the same page-set and check per-node sums:
    // exercises concurrent exclusive grants without requiring mutual
    // exclusion semantics the DSM layer does not promise.
    let bed = Bed::new(1);
    let s = seg(3);
    let bootstrap = bed.client(99, 16);
    bootstrap
        .part
        .create_segment(s, 4 * PAGE_SIZE as u64)
        .unwrap();
    // Clients outlive their worker threads: a node keeps answering
    // recalls after a thread finishes (dropping it models a crash,
    // which loses dirty data by design).
    let clients: Vec<Client> = (0..4).map(|n| bed.client(n + 1, 16)).collect();
    let mut handles = Vec::new();
    for (n, client) in clients.iter().enumerate() {
        let space = client.space(s, 4);
        handles.push(std::thread::spawn(move || {
            let addr = n as u64 * PAGE_SIZE as u64; // one page per node
            for i in 0..50u64 {
                space.write_u64(addr, i + 1).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let reader = bed.client(50, 16);
    let space = reader.space(s, 4);
    for n in 0..4u64 {
        assert_eq!(space.read_u64(n * PAGE_SIZE as u64).unwrap(), 50);
    }
}

#[test]
fn many_readers_share_then_writer_invalidates() {
    let bed = Bed::new(1);
    let s = seg(4);
    let writer = bed.client(1, 16);
    writer.part.create_segment(s, PAGE_SIZE as u64).unwrap();
    let ws = writer.space(s, 1);
    ws.write(0, b"v1").unwrap();

    let readers: Vec<Client> = (2..6).map(|i| bed.client(i, 16)).collect();
    let spaces: Vec<AddressSpace> = readers.iter().map(|r| r.space(s, 1)).collect();
    for sp in &spaces {
        assert_eq!(sp.read(0, 2).unwrap(), b"v1");
    }
    let invalidations = || counted(bed.servers[0].obs(), "dsm.server.invalidations");
    let before = invalidations();
    ws.write(0, b"v2").unwrap();
    // The writer's upgrade had to invalidate the shared copies.
    assert!(invalidations() > before);
    for sp in &spaces {
        assert_eq!(sp.read(0, 2).unwrap(), b"v2");
    }
}

#[test]
fn eviction_pressure_stays_coherent() {
    let bed = Bed::new(1);
    let s = seg(5);
    let a = bed.client(1, 2); // tiny cache: constant eviction
    let b = bed.client(2, 2);
    a.part.create_segment(s, 8 * PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, 8);
    let sb = b.space(s, 8);
    for page in 0..8u64 {
        sa.write_u64(page * PAGE_SIZE as u64, page + 1000).unwrap();
    }
    for page in 0..8u64 {
        assert_eq!(sb.read_u64(page * PAGE_SIZE as u64).unwrap(), page + 1000);
    }
    // And back: B dirties everything, A re-reads.
    for page in 0..8u64 {
        sb.write_u64(page * PAGE_SIZE as u64, page + 2000).unwrap();
    }
    for page in 0..8u64 {
        assert_eq!(sa.read_u64(page * PAGE_SIZE as u64).unwrap(), page + 2000);
    }
}

#[test]
fn crashed_owner_loses_uncommitted_data() {
    let bed = Bed::new(1);
    let s = seg(6);
    let a = bed.client(1, 16);
    let b = bed.client(2, 16);
    a.part.create_segment(s, PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, 1);
    sa.write(0, b"committed").unwrap();
    sa.flush().unwrap(); // explicit write-through

    sa.write(0, b"dirty-only").unwrap(); // exclusive + dirty, not flushed
    bed.net.crash(NodeId(1));

    // B must still be able to read; the recall to the dead node times
    // out and the data server serves its canonical (committed) copy.
    let sb = b.space(s, 1);
    assert_eq!(sb.read(0, 9).unwrap(), b"committed");
}

#[test]
fn explicit_placement_and_discovery_across_data_servers() {
    let bed = Bed::new(3);
    let s = seg(7);
    let a = bed.client(1, 16);
    // Place explicitly on the *last* data server regardless of hash.
    let home = bed.data_nodes[2];
    a.part.create_segment_at(s, PAGE_SIZE as u64, home).unwrap();
    let sa = a.space(s, 1);
    sa.write(0, b"placed").unwrap();
    sa.flush().unwrap();
    assert!(bed.servers[2].log().segment_len(s).is_some());
    assert!(bed.servers[0].log().segment_len(s).is_none());

    // A different client with no placement knowledge discovers the home.
    let b = bed.client(2, 16);
    let sb = b.space(s, 1);
    assert_eq!(sb.read(0, 6).unwrap(), b"placed");
    assert_eq!(b.part.segment_len(s).unwrap(), PAGE_SIZE as u64);
}

#[test]
fn segment_destroy_propagates() {
    let bed = Bed::new(1);
    let s = seg(8);
    let a = bed.client(1, 16);
    a.part.create_segment(s, PAGE_SIZE as u64).unwrap();
    a.part.destroy_segment(s).unwrap();
    assert!(a.part.segment_len(s).is_err());
    let b = bed.client(2, 16);
    assert!(b.part.segment_len(s).is_err());
}

#[test]
fn server_stats_match_hand_computed_counts() {
    // A fully deterministic single-page scenario whose coherence traffic
    // can be counted by hand from the protocol rules:
    //
    //   1. A writes   — page Idle, granted Exclusive(A).      wg=1
    //   2. B reads    — recall Downgrade to A (dirty copy):
    //                   write-back + downgrade, then grant.    wb=1 dg=1 rg=1
    //   3. B writes   — page Shared{A,B}: Reclaim A's clean
    //                   copy, grant Exclusive(B).              inv=1 wg=2
    //   4. A reads    — recall Downgrade to B (dirty copy).    wb=2 dg=2 rg=2
    let bed = Bed::new(1);
    let s = seg(10);
    let a = bed.client(1, 16);
    let b = bed.client(2, 16);
    a.part.create_segment(s, PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, 1);
    let sb = b.space(s, 1);

    let names = [
        "dsm.server.write_grants",
        "dsm.server.read_grants",
        "dsm.server.downgrades",
        "dsm.server.invalidations",
        "dsm.server.write_backs",
    ];
    let counts = || names.map(|name| counted(bed.servers[0].obs(), name));
    let before = counts();
    sa.write_u64(0, 1).unwrap();
    assert_eq!(sb.read_u64(0).unwrap(), 1);
    sb.write_u64(0, 2).unwrap();
    assert_eq!(sa.read_u64(0).unwrap(), 2);
    let after = counts();

    let grew: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(grew, [2, 2, 2, 1, 2], "{names:?}");
    // Fault-free network: every recall must have been acknowledged.
    assert_eq!(counted(bed.servers[0].obs(), "dsm.server.ack_timeouts"), 0);
}

#[test]
fn randomized_writers_converge_to_one_copy() {
    let bed = Bed::new(2);
    let s = seg(9);
    let clients: Vec<Client> = (1..5).map(|i| bed.client(i, 8)).collect();
    clients[0]
        .part
        .create_segment(s, 4 * PAGE_SIZE as u64)
        .unwrap();
    let spaces: Vec<AddressSpace> = clients.iter().map(|c| c.space(s, 4)).collect();
    let mut rng = clouds_simnet::SplitMix64::new(11);
    let mut expected = [0u64; 4];
    for step in 0..120 {
        let who = rng.next_range(spaces.len() as u64) as usize;
        let page = rng.next_range(4) as usize;
        let value = step as u64 * 10 + who as u64;
        spaces[who]
            .write_u64(page as u64 * PAGE_SIZE as u64, value)
            .unwrap();
        expected[page] = value;
    }
    for sp in &spaces {
        for (page, want) in expected.iter().enumerate() {
            assert_eq!(
                sp.read_u64(page as u64 * PAGE_SIZE as u64).unwrap(),
                *want,
                "page {page}"
            );
        }
    }
}

/// A holder cut off through the whole recall budget is answered as not
/// present, so the reader gets the log's copy — and the timeout is
/// counted, since a partitioned holder is alive and may keep the copy
/// the directory just forgot.
#[test]
fn a_recall_that_times_out_is_counted() {
    let net = Network::new(CostModel::zero());
    let home = NodeId(100);
    // A 1 ms retry interval runs the 40-try recall budget out fast.
    let fast = RatpConfig {
        retry_interval: Duration::from_millis(1),
        ..RatpConfig::default()
    };
    let ratp = RatpNode::spawn(net.register(home).unwrap(), fast);
    let bed = Bed {
        net,
        servers: vec![DsmServer::install(&ratp)],
        data_nodes: vec![home],
    };
    let timeouts = || {
        let registry = bed.servers[0].obs().registry();
        registry.counter_value("dsm.server.recall_timeouts")
    };
    let s = seg(11);
    let a = bed.client(1, 16);
    let b = bed.client(2, 16);
    a.part.create_segment(s, PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, 1);
    sa.write(0, b"dirty-only").unwrap();
    assert_eq!(timeouts(), 0);

    bed.net.partition(&[NodeId(1)], &[home]);
    let sb = b.space(s, 1);
    assert_eq!(sb.read(0, 10).unwrap(), [0; 10], "A's write is lost");
    assert_eq!(timeouts(), 1);
    bed.net.heal();
}

/// One DSM request over the raw wire, decoded.
fn wire_call(client: &Arc<RatpNode>, server: NodeId, req: &DsmRequest) -> DsmReply {
    let reply = client
        .call(server, ports::DSM_SERVER, proto::encode(req))
        .unwrap();
    proto::decode(&reply).unwrap()
}

/// A one-page fetch of `page` in `mode`, releasing nothing.
fn fetch_one(seg: SysName, page: u32, mode: WireMode) -> DsmRequest {
    DsmRequest::FetchPages {
        seg,
        first: page,
        count: 1,
        mode,
        release: Vec::new(),
    }
}

/// A transition waiting on a recall holds up no other page. Raw client
/// A holds page 0 exclusively and sits on the recall until the test
/// lets it answer; B's write fault on page 0 waits in that recall, and
/// C's fetch of page 1 from the same server is served meanwhile. The
/// directory lock is dropped across the recall — only page 0's `busy`
/// flag spans it — so one lock for the whole directory costs a slow
/// holder's neighbours nothing.
#[test]
fn a_transition_waiting_on_a_recall_holds_up_no_other_page() {
    let bed = Bed::new(1);
    let home = bed.data_nodes[0];
    let s = seg(12);
    let raw = |id| RatpNode::spawn(bed.net.register(NodeId(id)).unwrap(), RatpConfig::default());
    let (a, b, c) = (raw(1), raw(2), raw(3));
    let (recalled_tx, recalled) = crossbeam::channel::bounded(1);
    // A's recall service returns once `release` is dropped.
    let (release, released) = crossbeam::channel::bounded::<()>(1);
    a.register_service(ports::DSM_CLIENT, move |_: Request| {
        let _ = recalled_tx.try_send(());
        let _ = released.recv();
        proto::encode(&RecallReply::Clean)
    });
    let create = DsmRequest::CreateSegment {
        seg: s,
        len: 2 * PAGE_SIZE as u64,
    };
    assert!(matches!(wire_call(&a, home, &create), DsmReply::Ok));
    let DsmReply::Pages { pages, .. } = wire_call(&a, home, &fetch_one(s, 0, WireMode::Write))
    else {
        panic!("A was not granted page 0");
    };
    let ack = WireInstallAck {
        page: 0,
        grant_seq: pages[0].grant_seq,
        installed: true,
    };
    wire_call(
        &a,
        home,
        &DsmRequest::InstallAckBatch {
            seg: s,
            acks: vec![ack],
        },
    );

    let spawn_fetch = |node: &Arc<RatpNode>, page, mode| {
        let (done_tx, done) = crossbeam::channel::bounded(1);
        let node = Arc::clone(node);
        let thread = std::thread::spawn(move || {
            let _ = done_tx.send(wire_call(&node, home, &fetch_one(s, page, mode)));
        });
        (thread, done)
    };
    let (b_thread, b_done) = spawn_fetch(&b, 0, WireMode::Write);
    recalled
        .recv_timeout(Duration::from_secs(10))
        .expect("B's write fault never recalled A's copy");
    let (c_thread, c_done) = spawn_fetch(&c, 1, WireMode::Read);
    let c_reply = c_done.recv_timeout(Duration::from_secs(5));
    let b_waited = b_done.is_empty();
    // Let A answer whatever happened, so no thread is left blocked.
    drop(release);
    let b_reply = b_done.recv_timeout(Duration::from_secs(10));
    b_thread.join().unwrap();
    c_thread.join().unwrap();

    let c_reply = c_reply.expect("C's fetch of page 1 waited on page 0's recall");
    assert!(
        matches!(c_reply, DsmReply::Pages { first: 1, .. }),
        "{c_reply:?}"
    );
    assert!(
        b_waited,
        "B's write fault finished before A answered its recall"
    );
    let b_reply = b_reply.expect("B's write fault never finished");
    assert!(
        matches!(b_reply, DsmReply::Pages { first: 0, .. }),
        "{b_reply:?}"
    );
    assert_eq!(bed.servers[0].copyset(s, 0), [NodeId(2)]);
    assert_eq!(bed.servers[0].copyset(s, 1), [NodeId(3)]);
}
