//! Property test pinning the tentpole equivalence: a replicated segment
//! that loses its primary mid-sequence and fails over to a backup
//! serves **byte-identical** pages to a plain single-home segment that
//! saw the same writes with no crash at all. Mirrored write-back plus
//! promotion must be invisible to the paging client. A table test
//! below pins the page versions that make it so, over the wire.

use clouds_codec::PageBytes;
use clouds_dsm::proto::{self, DsmReply, DsmRequest, WireError, WireMode, WireWriteBack};
use clouds_dsm::{ports, DsmClientPartition, DsmServer};
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const PAGES: u64 = 4;
const SLOTS: u64 = 8;

fn seg() -> SysName {
    SysName::from_parts(88, 1)
}

fn cfg() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_millis(5),
        max_retries: 120,
    }
}

fn spawn_server(net: &Network, id: u32) -> Arc<DsmServer> {
    let ratp = RatpNode::spawn(net.register(NodeId(id)).unwrap(), cfg());
    DsmServer::install(&ratp)
}

fn client(net: &Network, id: u32, servers: &[u32]) -> Arc<DsmClientPartition> {
    let ratp = RatpNode::spawn(net.register(NodeId(id)).unwrap(), cfg());
    DsmClientPartition::install(
        &ratp,
        Arc::new(PageCache::new(16)),
        servers.iter().map(|&n| NodeId(n)).collect(),
    )
}

fn space(part: &Arc<DsmClientPartition>) -> AddressSpace {
    let mut s = AddressSpace::new(
        Arc::clone(part.cache()),
        Arc::clone(part) as Arc<dyn Partition>,
    );
    s.map(0, seg(), 0, PAGES * PAGE_SIZE as u64, true).unwrap();
    s
}

/// Apply `(page, slot, value)` writes through a space, flushing each so
/// every write is a *confirmed* (and, when replicated, mirrored)
/// write-back before the next step.
fn apply(sp: &AddressSpace, writes: &[(u64, u64, u64)]) {
    for &(page, slot, value) in writes {
        sp.write_u64(page * PAGE_SIZE as u64 + slot * 8, value)
            .unwrap();
        sp.flush().unwrap();
    }
}

/// Every slot of every page, as served to a client with no cached state.
fn dump(part: &Arc<DsmClientPartition>) -> Vec<u64> {
    let sp = space(part);
    let mut out = Vec::new();
    for page in 0..PAGES {
        for slot in 0..SLOTS {
            out.push(sp.read_u64(page * PAGE_SIZE as u64 + slot * 8).unwrap());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn failover_is_invisible_to_the_paging_client(
        writes in prop::collection::vec((0u64..PAGES, 0u64..SLOTS, any::<u64>()), 1..20),
        crash_at in 0usize..20,
    ) {
        let k = crash_at.min(writes.len());

        // Reference: the same writes against a plain single-home
        // segment, no faults.
        let reference = {
            let net = Network::new(CostModel::zero());
            let _server = spawn_server(&net, 100);
            let writer = client(&net, 1, &[100]);
            writer
                .create_segment_at(seg(), PAGES * PAGE_SIZE as u64, NodeId(100))
                .unwrap();
            apply(&space(&writer), &writes);
            dump(&client(&net, 2, &[100]))
        };

        // Replicated: primary 100 crashes after `k` confirmed writes,
        // the first backup (101) is promoted — duplicate promotion
        // included, it must be a no-op — and the remaining writes land
        // on the new primary.
        let net = Network::new(CostModel::zero());
        let servers: Vec<Arc<DsmServer>> =
            [100, 101, 102].map(|id| spawn_server(&net, id)).into();
        let writer = client(&net, 1, &[100, 101, 102]);
        let members = [NodeId(100), NodeId(101), NodeId(102)];
        writer
            .create_replicated_segment(seg(), PAGES * PAGE_SIZE as u64, &members)
            .unwrap();
        let sp = space(&writer);
        apply(&sp, &writes[..k]);

        // Crash the primary as `DataServer::crash` does: off the
        // network, its DRAM wiped.
        net.crash(NodeId(100));
        servers[0].crash();

        servers[1].promote_segment(seg(), 2).unwrap();
        servers[1].promote_segment(seg(), 2).unwrap(); // duplicate: no-op
        let rehomed = (vec![NodeId(101), NodeId(102), NodeId(100)], 2);
        prop_assert_eq!(servers[1].replica_view(seg()), Some(rehomed.clone()));

        // Restart the ex-primary as `DataServer::restart` does: replay
        // its log, then resync its view (here by hand, not from the
        // naming directory) so mirrors reach it again.
        net.restart(NodeId(100));
        servers[0].recover_from_log();
        servers[0].adopt_replica_config(seg(), rehomed.0.clone(), rehomed.1);
        servers[0].finish_recovery();

        apply(&sp, &writes[k..]);

        // The promoted backup now homes the segment and serves pages
        // byte-identical to the crash-free single-home run.
        let reader = client(&net, 2, &[100, 101, 102]);
        prop_assert_eq!(reader.home_of(seg()).unwrap(), NodeId(101));
        prop_assert_eq!(dump(&reader), reference);
    }
}

/// `req` as server `node` answers it.
fn ask(client: &Arc<RatpNode>, node: u32, req: &DsmRequest) -> DsmReply {
    let reply = client.call(NodeId(node), ports::DSM_SERVER, proto::encode(req));
    proto::decode(&reply.unwrap()).unwrap()
}

/// `n` servers on nodes 10, 11, … with a one-page segment
/// replicated on all of them in node order, and a client on node 1.
/// The servers retry every millisecond, so a mirror push to a
/// backup that cannot be reached fails within a second.
fn replicated(n: u32) -> (Network, Vec<Arc<DsmServer>>, Arc<RatpNode>, SysName) {
    let net = Network::new(CostModel::zero());
    let spawn = |id, retry_interval| {
        let cfg = RatpConfig {
            retry_interval,
            ..RatpConfig::default()
        };
        RatpNode::spawn(net.register(NodeId(id)).unwrap(), cfg)
    };
    let servers = (10..10 + n)
        .map(|id| DsmServer::install(&spawn(id, Duration::from_millis(1))))
        .collect();
    let client = spawn(1, RatpConfig::default().retry_interval);
    let seg = SysName::from_parts(1, 8);
    let (len, members) = (PAGE_SIZE as u64, (10..10 + n).collect());
    let create = DsmRequest::CreateReplicated { seg, len, members };
    assert!(matches!(ask(&client, 10, &create), DsmReply::Ok));
    (net, servers, client, seg)
}

/// A page has one version on every replica: a promoted backup B
/// writes above every image it ever applied, and a replica applies a
/// push at the version of its own image, so B's ack survives B's
/// replay and no other replica drops it as a duplicate. Row (a), two
/// replicas: B's pushes were overtaken by v5; B writes, crashes,
/// replays and serves the page. Row (b), three: v2 overtook v1 at
/// both backups; B writes, C is promoted and serves the page. Row
/// (c), two: primary A logged a write of 1 while cut off from B, so
/// it was refused; B writes at the same version, and A, promoted
/// back, serves the page. Row (d): as (c), but A also crashes and
/// replays before the partition heals. Each push carries page 0
/// filled with its version, as node 10's mirror plane would send it.
#[test]
fn a_promoted_backup_writes_above_every_version_it_mirrored() {
    let rows = [
        (2, vec![5], None),
        (3, vec![2, 1], None),
        (2, vec![], Some(false)),
        (2, vec![], Some(true)),
    ];
    let rows = rows.map(|(n, versions, a_refused)| {
        let (net, servers, client, seg) = replicated(n);
        for backup in &servers[1..] {
            for &version in &versions {
                let data = PageBytes::from(vec![version as u8; PAGE_SIZE]);
                let members = (10..10 + n).collect();
                let push = DsmRequest::MirrorWrite {
                    seg,
                    page: 0,
                    data,
                    version,
                    members,
                    epoch: 1,
                };
                let reply = backup.serve_wire(NodeId(10), &proto::encode(&push));
                assert!(matches!(proto::decode(&reply).unwrap(), DsmReply::Ok));
            }
        }
        let write = |node, fill| {
            let data = PageBytes::from(vec![fill; PAGE_SIZE]);
            let write = DsmRequest::WriteBackBatch {
                pages: vec![WireWriteBack { seg, page: 0, data }],
            };
            let DsmReply::WriteBackResults { mut results } = ask(&client, node, &write) else {
                panic!("no write-back results");
            };
            results.remove(0)
        };
        if let Some(a_crashes) = a_refused {
            net.partition(&[NodeId(10)], &[NodeId(11)]);
            let refused = write(10, 1);
            assert!(
                matches!(refused, Err(WireError::ReplicaUnavailable(_))),
                "{refused:?}"
            );
            if a_crashes {
                servers[0].crash();
                servers[0].recover_from_log();
                servers[0].finish_recovery();
            }
            net.heal();
        }
        let b = &servers[1];
        b.promote_segment(seg, 2).unwrap();
        let acked = write(11, 9);
        let reader = match servers.get(2) {
            _ if a_refused.is_some() => {
                servers[0].promote_segment(seg, 3).unwrap();
                10
            }
            Some(c) => {
                c.promote_segment(seg, 3).unwrap();
                12
            }
            None => {
                b.crash();
                b.recover_from_log();
                b.finish_recovery();
                11
            }
        };
        let read = DsmRequest::FetchPage {
            seg,
            page: 0,
            mode: WireMode::Read,
        };
        let DsmReply::Page { data, .. } = ask(&client, reader, &read) else {
            panic!("no page");
        };
        (acked, data[0])
    });
    assert_eq!(
        rows,
        [(Ok(6), 9), (Ok(3), 9), (Ok(1), 9), (Ok(1), 9)],
        "per row: B's ack of 9, the page served"
    );
}
