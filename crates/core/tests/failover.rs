//! End-to-end failover of replicated segment homes: heartbeats flow
//! between data servers, the first backup detects a crashed primary,
//! verifies, promotes itself, re-homes the segment in the naming
//! directory — and in-flight client traffic lands on the new primary
//! with the committed bytes intact.

#![allow(
    clippy::disallowed_methods,
    reason = "detection and promotion run on real-time monitor ticks"
)]

use clouds::node::DataServer;
use clouds::FailoverConfig;
use clouds_dsm::DsmClientPartition;
use clouds_naming::NameClient;
use clouds_obs::TraceSink;
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId, Vt};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seg(n: u64) -> SysName {
    SysName::from_parts(9, n)
}

/// Counter `name` in `ds`'s node registry.
fn counted(ds: &DataServer, name: &str) -> u64 {
    ds.dsm().obs().registry().counter_value(name)
}

fn ratp_cfg() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_millis(5),
        max_retries: 60,
    }
}

struct Bed {
    net: Network,
    datas: Vec<DataServer>,
    nodes: Vec<NodeId>,
    config: FailoverConfig,
}

/// Three data servers (`100` hosts naming) with failover monitors
/// beaconing each other.
fn bed() -> Bed {
    let net = Network::new(CostModel::zero());
    let nodes: Vec<NodeId> = (100..103).map(NodeId).collect();
    let sink = Arc::new(TraceSink::default());
    let datas: Vec<DataServer> = nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| DataServer::boot(&net, node, ratp_cfg(), i == 0, &sink))
        .collect();
    // Zero-cost network: frames arrive without delay, so the only
    // "jitter" is beacon/tick interleaving — half a beacon is plenty.
    let config = FailoverConfig::for_jitter(Vt::from_micros(2_500));
    for (i, ds) in datas.iter().enumerate() {
        let peers: Vec<NodeId> = nodes.iter().copied().filter(|&n| n != nodes[i]).collect();
        ds.start_failover(peers, nodes[0], config);
    }
    Bed {
        net,
        datas,
        nodes,
        config,
    }
}

struct Client {
    part: Arc<DsmClientPartition>,
}

impl Client {
    fn new(bed: &Bed, id: u32) -> Client {
        let ratp = RatpNode::spawn(bed.net.register(NodeId(id)).unwrap(), ratp_cfg());
        Client {
            part: DsmClientPartition::install(
                &ratp,
                Arc::new(PageCache::new(16)),
                bed.nodes.clone(),
            ),
        }
    }

    fn space(&self, seg: SysName, pages: u64) -> AddressSpace {
        let mut s = AddressSpace::new(
            Arc::clone(self.part.cache()),
            Arc::clone(&self.part) as Arc<dyn Partition>,
        );
        s.map(0, seg, 0, pages * PAGE_SIZE as u64, true).unwrap();
        s
    }
}

/// Detection and promotion are driven by real-time monitor ticks, so
/// these tests are timing sensitive: run in parallel, one bed's nine
/// monitor/beacon threads can starve another's detector past the
/// client's failover-retry budget. Each test holds this guard to run
/// alone. A failed test poisons it, and the next test takes it anyway,
/// so one failure does not fail the rest.
#[expect(
    clippy::disallowed_types,
    reason = "held across every call of a test, which parking_lot's lock discipline refuses"
)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Poll `check` until it passes or `deadline` elapses.
fn wait_for(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn primary_crash_promotes_backup_and_re_homes() {
    let _serial = serial();
    let bed = bed();
    let s = seg(1);
    // Primary on 101 so the naming host (100) stays up through the crash.
    let members = [bed.nodes[1], bed.nodes[2], bed.nodes[0]];
    let writer = Client::new(&bed, 1);
    writer
        .part
        .create_replicated_segment(s, PAGE_SIZE as u64, &members)
        .unwrap();
    let directory = NameClient::new(writer.part.ratp(), bed.nodes[0]);
    directory
        .register_replicas(s, members[0], &members[1..])
        .unwrap();

    let ws = writer.space(s, 1);
    ws.write(0, b"survives").unwrap();
    ws.flush().unwrap(); // confirmed: on the primary and both backups

    bed.datas[1].crash(&bed.net);

    // A fresh client (no cached home) must read the committed bytes:
    // its home probes ride through detection + promotion and land on
    // the promoted backup (102).
    let reader = Client::new(&bed, 2);
    let rs = reader.space(s, 1);
    assert_eq!(rs.read(0, 8).unwrap(), b"survives");

    // The naming directory re-homed the segment at the bumped epoch.
    assert!(
        wait_for(Duration::from_secs(10), || {
            bed.datas[0]
                .naming()
                .unwrap()
                .replica_set(s)
                .is_some_and(|set| set.primary_node() == bed.nodes[2] && set.epoch == 2)
        }),
        "directory never re-homed: {:?}",
        bed.datas[0].naming().unwrap().replica_set(s)
    );

    // The promoting backup measured the availability gap: bounded by
    // the detector budget, plus one verification window (a preceding
    // verify call can delay the detection tick by its full wall time),
    // plus a few beacon quanta of scan granularity.
    let gap = bed.datas[2]
        .ratp()
        .obs()
        .registry()
        .histogram_summary("core.failover.gap");
    assert_eq!(gap.count, 1, "exactly one promotion: {gap:?}");
    let verify_window = Vt::from_nanos(ratp_cfg().retry_interval.as_nanos() as u64)
        .mul(u64::from(FailoverConfig::VERIFY_RETRIES));
    let bound =
        bed.config.detector().budget() + verify_window + FailoverConfig::BEACON_INTERVAL.mul(4);
    assert!(gap.max <= bound, "gap {} > bound {bound}", gap.max);

    // The restarted ex-primary resyncs from the directory into its
    // demoted role and catches up via mirror pushes on the next write.
    bed.datas[1].restart(&bed.net);
    let expected = (vec![bed.nodes[2], bed.nodes[0], bed.nodes[1]], 2u64);
    assert_eq!(bed.datas[1].dsm().replica_view(s), Some(expected.clone()));
    assert_eq!(bed.datas[2].dsm().replica_view(s), Some(expected));

    let applied = || counted(&bed.datas[1], "dsm.server.mirror_applies");
    let applied_before = applied();
    ws.write(0, b"rejoined").unwrap();
    ws.flush().unwrap();
    assert!(applied() > applied_before);
    // Coherence grants are as volatile as the directory that issued
    // them: `reader`'s pre-write copy may be stale (exactly as after a
    // crash+restart of an unreplicated home), so the one-copy check
    // uses a client with no cached state.
    let fresh = Client::new(&bed, 3);
    assert_eq!(fresh.space(s, 1).read(0, 8).unwrap(), b"rejoined");
}

/// A rebooted ex-primary that cannot reach the naming directory must
/// NOT resume serving on its stale pre-crash view (in which it is still
/// primary) — that is the split brain the recovery fence exists to
/// prevent. It stays fenced, and the failover monitor's per-tick retry
/// lifts the fence once the directory is reachable again.
#[test]
fn restart_with_unreachable_directory_stays_fenced_until_resync() {
    let _serial = serial();
    let bed = bed();
    let s = seg(3);
    let members = [bed.nodes[1], bed.nodes[2], bed.nodes[0]];
    let writer = Client::new(&bed, 1);
    writer
        .part
        .create_replicated_segment(s, PAGE_SIZE as u64, &members)
        .unwrap();
    let directory = NameClient::new(writer.part.ratp(), bed.nodes[0]);
    directory
        .register_replicas(s, members[0], &members[1..])
        .unwrap();
    let ws = writer.space(s, 1);
    ws.write(0, b"fenced!!").unwrap();
    ws.flush().unwrap();

    bed.datas[1].crash(&bed.net);
    assert!(
        wait_for(Duration::from_secs(10), || {
            bed.datas[0]
                .naming()
                .unwrap()
                .replica_set(s)
                .is_some_and(|set| set.primary_node() == bed.nodes[2] && set.epoch == 2)
        }),
        "directory never re-homed after the primary crash"
    );

    // Cut the naming host off, then restart the demoted ex-primary: its
    // resync cannot learn of the demotion, so serving must stay fenced.
    bed.net.crash(bed.nodes[0]);
    bed.datas[1].restart(&bed.net);
    assert!(
        bed.datas[1].dsm().is_recovering(),
        "resumed serving on a stale pre-crash view with the directory unreachable"
    );

    // Directory back: the monitor's per-tick retry finishes the resync,
    // adopting the demoted view before the fence lifts.
    bed.net.restart(bed.nodes[0]);
    assert!(
        wait_for(Duration::from_secs(10), || {
            !bed.datas[1].dsm().is_recovering()
        }),
        "fence never lifted after the directory became reachable"
    );
    assert_eq!(
        bed.datas[1].dsm().replica_view(s),
        Some((vec![bed.nodes[2], bed.nodes[0], bed.nodes[1]], 2))
    );
    // And the committed bytes are still served by the promoted backup.
    let fresh = Client::new(&bed, 4);
    assert_eq!(fresh.space(s, 1).read(0, 8).unwrap(), b"fenced!!");
}

#[test]
fn healthy_primary_is_never_deposed() {
    let _serial = serial();
    let bed = bed();
    let s = seg(2);
    let members = [bed.nodes[1], bed.nodes[2], bed.nodes[0]];
    let client = Client::new(&bed, 1);
    client
        .part
        .create_replicated_segment(s, PAGE_SIZE as u64, &members)
        .unwrap();
    let directory = NameClient::new(client.part.ratp(), bed.nodes[0]);
    directory
        .register_replicas(s, members[0], &members[1..])
        .unwrap();

    // Let many detection windows elapse with everyone alive.
    std::thread::sleep(Duration::from_millis(400));

    for ds in &bed.datas {
        assert_eq!(
            counted(ds, "dsm.server.promotions"),
            0,
            "node {}",
            ds.node_id().0
        );
    }
    let set = bed.datas[0].naming().unwrap().replica_set(s).unwrap();
    assert_eq!((set.primary_node(), set.epoch), (members[0], 1));
    // Beacons actually flowed while nothing was promoted.
    let heard = bed.datas[2].ratp().last_heartbeat(bed.nodes[1]);
    assert!(heard.is_some(), "no beacon from the primary ever arrived");
}
