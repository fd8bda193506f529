//! Property test pinning the tentpole equivalence: a replicated segment
//! that loses its primary mid-sequence and fails over to a backup
//! serves **byte-identical** pages to a plain single-home segment that
//! saw the same writes with no crash at all. Mirrored write-back plus
//! promotion must be invisible to the paging client.

use clouds_dsm::{DsmClientPartition, DsmServer};
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
        sp.write_u64(page * PAGE_SIZE as u64 + slot * 8, value).unwrap();
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
