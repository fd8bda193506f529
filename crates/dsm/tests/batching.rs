//! Batched paging: multi-page grants, read-ahead, coalesced write-back.
//!
//! Covers the perf-opt protocol extensions end to end: a `FetchPages`
//! batch must be indistinguishable from per-page fetches (same bytes,
//! same versions), read-ahead must collapse a sequential scan's RPC
//! count — in a full cache too, where it first makes room and ships the
//! releases on the fetch — a commit flush must coalesce into one
//! `WriteBackBatch` per home, and none of it may weaken the coherence
//! protocol — a recall landing mid-batch never loses a dirty page, one
//! racing an eviction never orphans a copy.

#![allow(
    clippy::disallowed_methods,
    reason = "waits for the recall on a wall-clock deadline"
)]

use clouds_codec::PageBytes;
use clouds_dsm::proto::{
    self, ports, DsmReply, DsmRequest, WireInstallAck, WireMode, WirePageGrant,
};
use clouds_dsm::{DsmClientConfig, DsmClientPartition, DsmServer};
use clouds_obs::NodeObs;
use clouds_ra::{AccessMode, AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use proptest::prelude::*;
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

    fn client_with_config(&self, id: u32, cache_frames: usize, config: DsmClientConfig) -> Client {
        let ratp = RatpNode::spawn(
            self.net.register(NodeId(id)).unwrap(),
            RatpConfig {
                retry_interval: Duration::from_millis(10),
                max_retries: 100,
            },
        );
        let cache = Arc::new(PageCache::new(cache_frames));
        Client {
            part: DsmClientPartition::install_with_config(
                &ratp,
                cache,
                self.data_nodes.clone(),
                config,
            ),
        }
    }

    fn client(&self, id: u32, cache_frames: usize) -> Client {
        self.client_with_config(id, cache_frames, DsmClientConfig::default())
    }

    /// Create `s` on the first data server and stamp page `p` with
    /// `p + 7` straight into the server's log (written back and
    /// released over the raw wire), so a scan pages data "from the data
    /// server where it resides" rather than recalling another client's
    /// exclusive copies.
    fn prefill(&self, s: SysName, pages: u64) {
        let raw = RatpNode::spawn(
            self.net.register(NodeId(90)).unwrap(),
            RatpConfig::default(),
        );
        let home = self.data_nodes[0];
        wire_call(
            &raw,
            home,
            &DsmRequest::CreateSegment {
                seg: s,
                len: pages * PAGE_SIZE as u64,
            },
        );
        for page in 0..pages {
            let mut data = vec![0u8; PAGE_SIZE];
            data[..8].copy_from_slice(&(page + 7).to_le_bytes());
            wire_call(
                &raw,
                home,
                &DsmRequest::WriteBack {
                    seg: s,
                    page: page as u32,
                    data: PageBytes::from(data),
                    release: true,
                },
            );
        }
    }
}

fn seg(n: u64) -> SysName {
    SysName::from_parts(8, n)
}

/// Counter `name` in `obs`'s node registry.
fn counted(obs: &NodeObs, name: &str) -> u64 {
    obs.registry().counter_value(name)
}

/// Acceptance bar: a 128-page sequential read costs at most 20
/// fetch RPCs (vs 128 unbatched), asserted from both sides of the wire.
#[test]
fn sequential_scan_128_pages_in_at_most_20_rpcs() {
    const PAGES: u64 = 128;
    let bed = Bed::new(1);
    let s = seg(1);
    bed.prefill(s, PAGES);

    let reader = bed.client(2, 256);
    let rs = reader.space(s, PAGES);
    for page in 0..PAGES {
        assert_eq!(rs.read_u64(page * PAGE_SIZE as u64).unwrap(), page + 7);
    }

    let fetch_rpcs = counted(reader.part.obs(), "dsm.client.fetch_rpcs");
    assert!(
        fetch_rpcs <= 20,
        "client issued {fetch_rpcs} fetch RPCs for a {PAGES}-page scan"
    );
    let pages_granted = counted(reader.part.obs(), "dsm.client.pages_granted");
    assert!(pages_granted > fetch_rpcs, "no fetch granted a window");
    let prefetch_hits = reader.part.cache().stats().prefetch_hits;
    assert!(
        prefetch_hits >= PAGES - fetch_rpcs,
        "{prefetch_hits} prefetch hits"
    );
    // The server saw the same picture (writer RPCs included there, so
    // bound only the batching-side counters).
    let server = bed.servers[0].obs();
    assert!(counted(server, "dsm.server.batch_fetches") >= 1);
    assert!(counted(server, "dsm.server.prefetch_pages_granted") >= PAGES - 20);
}

/// An install ack is a notify, applied on the home's receive path while
/// its sender's `notify` runs: a windowed scan runs no handler on either
/// node's crew, and no fetch finds an ack of the one before it still
/// outstanding, so every window is whole.
#[test]
fn a_windowed_scan_runs_no_crew_job_and_fetches_whole_windows() {
    const PAGES: u64 = 64;
    let window = u64::from(DsmClientConfig::default().read_ahead_window);
    let bed = Bed::new(1);
    let s = seg(12);
    bed.prefill(s, PAGES);
    let reader = bed.client(2, 256);
    let rs = reader.space(s, PAGES);
    for page in 0..PAGES {
        assert_eq!(rs.read_u64(page * PAGE_SIZE as u64).unwrap(), page + 7);
    }
    let crew_jobs = |obs: &clouds_obs::NodeObs| obs.registry().counter_value("ratp.crew_jobs");
    assert_eq!(
        crew_jobs(reader.part.obs()),
        0,
        "the reader's crew ran a job"
    );
    assert_eq!(
        crew_jobs(bed.servers[0].obs()),
        0,
        "the home's crew ran a job"
    );
    // The first fault starts no run and fetches its page alone; every
    // later fetch is a whole window, or the rest of the segment.
    let client = |name| counted(reader.part.obs(), name);
    assert_eq!(
        client("dsm.client.fetch_rpcs"),
        1 + (PAGES - 1).div_ceil(window)
    );
    assert_eq!(client("dsm.client.pages_granted"), PAGES);
}

#[test]
fn read_ahead_disabled_by_config_fetches_per_page() {
    const PAGES: u64 = 16;
    let bed = Bed::new(1);
    let reader = bed.client_with_config(
        1,
        64,
        DsmClientConfig {
            read_ahead_window: 1,
        },
    );
    let s = seg(2);
    reader
        .part
        .create_segment(s, PAGES * PAGE_SIZE as u64)
        .unwrap();
    let rs = reader.space(s, PAGES);
    let calls = || reader.part.obs().registry().counter_value("ratp.calls");
    let before = calls();
    for page in 0..PAGES {
        rs.read_u64(page * PAGE_SIZE as u64).unwrap();
    }
    assert_eq!(counted(reader.part.obs(), "dsm.client.fetch_rpcs"), PAGES);
    assert_eq!(
        counted(reader.part.obs(), "dsm.client.pages_granted"),
        PAGES
    );
    assert_eq!(reader.part.cache().stats().prefetch_installs, 0);
    assert_eq!(calls() - before, PAGES, "a call besides the fetches");
    // Read-ahead off is the same protocol: every fault is a `FetchPages`.
    let server = |name| counted(bed.servers[0].obs(), name);
    assert_eq!(
        server("dsm.server.batch_fetches"),
        server("dsm.server.fetch_rpcs")
    );
}

/// Write faults in a full cache take their victims' releases along on
/// the fetch, as read faults do: the only calls are the fetches, and
/// every one of them is a `FetchPages` — one per page without
/// read-ahead, one per window with it, whose room's victims ride along
/// too.
#[test]
fn write_faults_in_a_full_cache_release_their_victims_on_the_fetch() {
    const FRAMES: usize = 4;
    const PAGES: u32 = 16;
    for (window, want_fetches) in [(1, u64::from(PAGES)), (8, 5)] {
        let bed = Bed::new(1);
        let config = DsmClientConfig {
            read_ahead_window: window,
        };
        let c = bed.client_with_config(1, FRAMES, config);
        let s = seg(4);
        c.part
            .create_segment(s, u64::from(PAGES) * PAGE_SIZE as u64)
            .unwrap();
        let client = |name| counted(c.part.obs(), name);
        let (fetches_before, piggybacked_before, calls_before) = (
            client("dsm.client.fetch_rpcs"),
            client("dsm.client.releases_piggybacked"),
            client("ratp.calls"),
        );
        for page in 0..PAGES {
            // Exclusive access that leaves the frame clean, so each
            // victim has nothing to write back and costs only its
            // release.
            c.part
                .cache()
                .access(
                    (s, page),
                    AccessMode::Write,
                    &*c.part as &dyn Partition,
                    |_| (),
                )
                .unwrap();
        }
        let fetches = client("dsm.client.fetch_rpcs") - fetches_before;
        assert_eq!(fetches, want_fetches, "window {window}");
        assert_eq!(
            client("ratp.calls") - calls_before,
            fetches,
            "window {window}: a call besides the fetches"
        );
        let server = |name| counted(bed.servers[0].obs(), name);
        assert_eq!(
            server("dsm.server.batch_fetches"),
            server("dsm.server.fetch_rpcs")
        );
        assert_eq!(server("dsm.server.write_grants"), u64::from(PAGES));
        // Every page came in once and is either still resident or was
        // evicted and released on a fetch.
        let evictions = c.part.cache().stats().evictions;
        let resident = c.part.cache().resident() as u32;
        assert_eq!(evictions + u64::from(resident), u64::from(PAGES));
        assert_eq!(
            client("dsm.client.releases_piggybacked") - piggybacked_before,
            evictions,
            "window {window}"
        );
        // The server's copysets agree with the cache.
        for page in 0..PAGES {
            let held = if page < PAGES - resident {
                vec![]
            } else {
                vec![NodeId(1)]
            };
            assert_eq!(
                bed.servers[0].copyset(s, page),
                held,
                "window {window}, page {page}"
            );
        }
    }
}

/// Acceptance bar: a 32-dirty-page flush to one home costs at most
/// 2 write-back RPCs (one `WriteBackBatch` in practice).
#[test]
fn commit_flush_32_dirty_pages_in_at_most_2_rpcs() {
    const PAGES: u64 = 32;
    let bed = Bed::new(1);
    let c = bed.client(1, 64);
    let s = seg(3);
    c.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sp = c.space(s, PAGES);
    for page in 0..PAGES {
        sp.write_u64(page * PAGE_SIZE as u64, page + 500).unwrap();
    }
    sp.flush().unwrap();

    let client = |name| counted(c.part.obs(), name);
    let rpcs = client("dsm.client.batch_write_back_rpcs");
    assert!(rpcs <= 2, "flush used {rpcs} write-back RPCs");
    assert_eq!(client("dsm.client.pages_written_batched"), PAGES);
    let server = |name| counted(bed.servers[0].obs(), name);
    assert!(server("dsm.server.batch_write_backs") <= 2);
    assert_eq!(server("dsm.server.write_backs"), PAGES);
    // Every page reached the log.
    for page in 0..PAGES {
        assert_eq!(stored_u64(&bed.servers[0], s, page), page + 500);
    }
    // Frames stay resident and clean: a second flush ships nothing.
    sp.flush().unwrap();
    assert_eq!(client("dsm.client.pages_written_batched"), PAGES);
}

/// A commit flush spanning several home servers ships one batch per
/// home (pipelined), not one RPC per page.
#[test]
fn flush_across_homes_is_one_rpc_per_server() {
    let bed = Bed::new(3);
    let c = bed.client(1, 64);
    let mut segs = Vec::new();
    for (i, &home) in bed.data_nodes.iter().enumerate() {
        let s = seg(40 + i as u64);
        c.part
            .create_segment_at(s, 4 * PAGE_SIZE as u64, home)
            .unwrap();
        segs.push(s);
    }
    let spaces: Vec<AddressSpace> = segs.iter().map(|&s| c.space(s, 4)).collect();
    for (i, sp) in spaces.iter().enumerate() {
        for page in 0..4u64 {
            sp.write_u64(page * PAGE_SIZE as u64, (i as u64 + 1) * 10 + page)
                .unwrap();
        }
    }
    // One flush of the shared cache moves all 12 dirty pages.
    c.part.cache().flush(&*c.part as &dyn Partition).unwrap();
    assert_eq!(counted(c.part.obs(), "dsm.client.batch_write_back_rpcs"), 3);
    assert_eq!(
        counted(c.part.obs(), "dsm.client.pages_written_batched"),
        12
    );
    for (i, server) in bed.servers.iter().enumerate() {
        assert_eq!(
            counted(server.obs(), "dsm.server.write_backs"),
            4,
            "server {i}"
        );
    }
}

/// A dirty eviction costs one round trip of its own: a one-page
/// `WriteBackBatch`. Its release rides on the fetch the eviction made
/// room for, and nothing else goes on the wire.
#[test]
fn dirty_eviction_is_single_round_trip() {
    let bed = Bed::new(1);
    let c = bed.client(1, 1); // capacity 1: every new page evicts
    let s = seg(5);
    c.part.create_segment(s, 4 * PAGE_SIZE as u64).unwrap();
    let sp = c.space(s, 4);
    sp.write_u64(0, 111).unwrap();
    let names = [
        "dsm.client.batch_write_back_rpcs",
        "dsm.client.pages_written_batched",
        "dsm.client.fetch_rpcs",
        "dsm.client.releases_piggybacked",
        "ratp.calls",
    ];
    let before = names.map(|name| counted(c.part.obs(), name));
    // Faulting page 1 evicts dirty page 0.
    sp.read_u64(PAGE_SIZE as u64).unwrap();
    let after = names.map(|name| counted(c.part.obs(), name));
    let grew: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // One write-back of one page and one fetch carrying its release:
    // two calls, nothing else on the wire.
    assert_eq!(grew, [1, 1, 1, 1, 2], "{names:?}");
    assert!(bed.servers[0].copyset(s, 0).is_empty());
    assert_eq!(stored_u64(&bed.servers[0], s, 0), 111);
}

/// Coherence: a batch grant run must stop at a page someone else holds
/// exclusively — the scan then demand-faults it through the normal
/// downgrade recall and the dirty data survives.
#[test]
fn read_ahead_stops_at_exclusive_page_and_recall_keeps_dirty_data() {
    const PAGES: u64 = 8;
    let bed = Bed::new(1);
    let a = bed.client(1, 64);
    let b = bed.client(2, 64);
    let s = seg(6);
    a.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, PAGES);
    let sb = b.space(s, PAGES);

    // A holds page 5 exclusive and dirty — unflushed.
    sa.write_u64(5 * PAGE_SIZE as u64, 0xD1147).unwrap();

    // B scans the whole segment sequentially with read-ahead on. The
    // batch starting at page 1 may grant at most up to page 4; page 5
    // must come through a full transition that downgrades A.
    for page in 0..PAGES {
        let want = if page == 5 { 0xD1147 } else { 0 };
        assert_eq!(
            sb.read_u64(page * PAGE_SIZE as u64).unwrap(),
            want,
            "page {page}"
        );
    }
    // The downgrade wrote A's dirty page through to the log.
    assert_eq!(stored_u64(&bed.servers[0], s, 5), 0xD1147);
    assert_eq!(counted(bed.servers[0].obs(), "dsm.server.downgrades"), 1);
    assert!(b.part.cache().stats().prefetch_installs >= 1);
    // A's copy is still resident (shared, clean) and readable.
    assert_eq!(sa.read_u64(5 * PAGE_SIZE as u64).unwrap(), 0xD1147);
}

/// Coherence under contention: a writer keeps re-dirtying pages while a
/// scanner with read-ahead sweeps the segment; every sweep must observe
/// the writer's latest flushed-or-dirtier state and the final store must
/// converge to the last written values.
#[test]
fn writer_vs_sequential_scanner_stays_coherent() {
    const PAGES: u64 = 8;
    let bed = Bed::new(1);
    let w = bed.client(1, 64);
    let r = bed.client(2, 64);
    let s = seg(7);
    w.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sw = w.space(s, PAGES);
    let sr = r.space(s, PAGES);

    for round in 1..=5u64 {
        for page in 0..PAGES {
            sw.write_u64(page * PAGE_SIZE as u64, round * 100 + page)
                .unwrap();
        }
        // Scan: every page was last written by this round, and reading
        // it downgrades the writer's exclusive dirty copy.
        for page in 0..PAGES {
            assert_eq!(
                sr.read_u64(page * PAGE_SIZE as u64).unwrap(),
                round * 100 + page,
                "round {round} page {page}"
            );
        }
    }
    sw.flush().unwrap();
    for page in 0..PAGES {
        assert_eq!(stored_u64(&bed.servers[0], s, page), 500 + page);
    }
    assert_eq!(counted(bed.servers[0].obs(), "dsm.server.ack_timeouts"), 0);
}

/// Acceptance bar for read-ahead in a full cache: scanning an
/// object four times the cache, each 32 pages of steady state cost at
/// most 5 fetch RPCs and nothing else on the wire — every eviction's
/// release rides on a fetch, every granted page is installed and then
/// read, none is declined or evicted unused.
#[test]
fn cache_bound_scan_fetches_only_what_fits_and_releases_on_the_fetch() {
    const FRAMES: usize = 32;
    const PAGES: u64 = 4 * FRAMES as u64;
    let bed = Bed::new(1);
    let s = seg(10);
    bed.prefill(s, PAGES);
    let reader = bed.client(2, FRAMES);
    let rs = reader.space(s, PAGES);
    let scan = |pages: std::ops::Range<u64>| {
        for page in pages {
            assert_eq!(rs.read_u64(page * PAGE_SIZE as u64).unwrap(), page + 7);
        }
    };
    let names = [
        "dsm.client.fetch_rpcs",
        "ratp.calls",
        "dsm.client.pages_granted",
        "dsm.client.releases_piggybacked",
    ];
    let counts = || names.map(|name| counted(reader.part.obs(), name));

    // Two cache-fulls bring the cache to its steady, full state.
    scan(0..64);
    let (before, cache_before) = (counts(), reader.part.cache().stats());
    scan(64..96);
    let (after, cache) = (counts(), reader.part.cache().stats());
    let [fetches, calls, granted, piggybacked] = [0, 1, 2, 3].map(|i| after[i] - before[i]);

    assert!(fetches <= 5, "{fetches} fetch RPCs for 32 pages");
    assert_eq!(
        calls, fetches,
        "something besides the fetches went on the wire (ReleasePage?)"
    );
    assert_eq!(granted, 32);
    assert_eq!(
        cache.prefetch_installs - cache_before.prefetch_installs,
        32 - fetches,
        "a granted read-ahead page was declined: {cache:?}"
    );
    assert_eq!(
        cache.prefetch_hits - cache_before.prefetch_hits,
        32 - fetches,
        "{cache:?}"
    );
    assert_eq!(cache.prefetch_wasted, 0, "{cache:?}");
    assert_eq!(piggybacked, 32);
    assert_eq!(reader.part.cache().resident(), FRAMES);
    // The server's copysets agree with the cache: evicted pages are
    // forgotten, resident ones are held.
    assert!(bed.servers[0].copyset(s, 0).is_empty());
    assert!(bed.servers[0].copyset(s, 63).is_empty());
    assert_eq!(bed.servers[0].copyset(s, 95), [NodeId(2)]);
}

/// A dirty frame among the victims `make_room` picks for the read-ahead
/// tail reaches the store, in one `WriteBackBatch`, before the fetch
/// that reuses its frame is even sent; its release then rides on that
/// fetch with the clean victim's.
#[test]
fn dirty_victim_in_the_make_room_set_reaches_the_store_before_its_frame_is_reused() {
    const PAGES: u64 = 16;
    let bed = Bed::new(1);
    let c = bed.client(1, 8);
    let s = seg(11);
    c.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sp = c.space(s, PAGES);
    sp.write_u64(0, 0xD127).unwrap();
    // Page 2 does not continue page 0's run, so it comes alone.
    sp.read_u64(2 * PAGE_SIZE as u64).unwrap();
    // Page 3 is a sequential fault with room for itself but not for its
    // window: the make-room pass takes the two resident frames, the
    // dirty one first.
    let names = [
        "dsm.client.batch_write_back_rpcs",
        "dsm.client.pages_written_batched",
        "dsm.client.releases_piggybacked",
        "dsm.client.fetch_rpcs",
        "ratp.calls",
        "dsm.client.pages_granted",
    ];
    let before = names.map(|name| counted(c.part.obs(), name));
    sp.read_u64(3 * PAGE_SIZE as u64).unwrap();
    let after = names.map(|name| counted(c.part.obs(), name));
    let grew: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // One write-back of the dirty victim, one fetch of the window that
    // carries both releases, and no other call.
    assert_eq!(grew, [1, 1, 2, 1, 2, 8], "{names:?}");
    assert_eq!(stored_u64(&bed.servers[0], s, 0), 0xD127);
    assert!(bed.servers[0].copyset(s, 0).is_empty());
    assert_eq!(sp.read_u64(0).unwrap(), 0xD127);
}

/// Victims homed on another data server cannot ride on the fetch: they
/// are released to *their* home, one `ReleasePage` each.
#[test]
fn victims_homed_elsewhere_are_released_to_their_own_home() {
    const X_PAGES: u64 = 8;
    const Y_PAGES: u64 = 32;
    let bed = Bed::new(2);
    let c = bed.client(1, 16);
    let (x, y) = (seg(12), seg(13));
    c.part
        .create_segment_at(x, X_PAGES * PAGE_SIZE as u64, bed.data_nodes[0])
        .unwrap();
    c.part
        .create_segment_at(y, Y_PAGES * PAGE_SIZE as u64, bed.data_nodes[1])
        .unwrap();
    let (sx, sy) = (c.space(x, X_PAGES), c.space(y, Y_PAGES));
    for page in 0..X_PAGES {
        sx.read_u64(page * PAGE_SIZE as u64).unwrap();
    }
    for page in 0..X_PAGES as u32 {
        assert_eq!(bed.servers[0].copyset(x, page), [NodeId(1)]);
    }
    // Scanning y pushes every x page out (they are the least recently
    // used) while the fetches go to y's home, then y's own oldest pages.
    for page in 0..Y_PAGES {
        sy.read_u64(page * PAGE_SIZE as u64).unwrap();
    }
    for page in 0..X_PAGES as u32 {
        assert!(
            bed.servers[0].copyset(x, page).is_empty(),
            "x page {page} still in its home's copyset"
        );
    }
    let evictions = c.part.cache().stats().evictions;
    assert!(evictions > X_PAGES, "y never evicted its own pages");
    assert_eq!(
        counted(c.part.obs(), "dsm.client.releases_piggybacked"),
        evictions - X_PAGES
    );
    assert!(bed.servers[1].copyset(y, 0).is_empty());
    assert_eq!(bed.servers[1].copyset(y, 31), [NodeId(1)]);
}

/// Coherence: another client write-faults a victim page while the
/// evicting client's release is still on its way. The recall waits on
/// the eviction marker, the release lands mid-transition without
/// blocking on it, and the recall then finds nothing: no copy left
/// behind at the evictor, none listed at the server, and the evictor's
/// next read sees the writer's data.
#[test]
fn write_fault_on_a_victim_races_its_release_without_orphaning_a_copy() {
    const PAGES: u64 = 8;
    let bed = Bed::new(1);
    // No read-ahead at A, so its four reads leave exactly pages 0..4
    // resident, page 0 least recently used.
    let a = bed.client_with_config(
        1,
        4,
        DsmClientConfig {
            read_ahead_window: 1,
        },
    );
    let b = bed.client(2, 4);
    let s = seg(14);
    a.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sa = a.space(s, PAGES);
    let sb = b.space(s, PAGES);
    for page in 0..4u64 {
        sa.read_u64(page * PAGE_SIZE as u64).unwrap();
    }
    let home = bed.data_nodes[0];
    let victim = (s, 0u32);

    // A's eviction, frozen between detaching the victim and releasing it.
    let room = a.part.cache().make_room(1, &*a.part as &dyn Partition);
    assert_eq!(room.clean_victims(), [victim]);

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| sb.write_u64(0, 0xB0B).unwrap());
        // Wait for the server's recall to reach A; it cannot complete
        // while the victim is still marked.
        let recalled = || {
            a.part
                .obs()
                .sink()
                .snapshot()
                .iter()
                .any(|ev| ev.layer == "dsm.client" && ev.name == "recall")
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !recalled() {
            assert!(std::time::Instant::now() < deadline, "recall never arrived");
            std::thread::yield_now();
        }
        assert!(
            !writer.is_finished(),
            "recall answered past the eviction marker"
        );

        // The release arrives on A's next fetch, as the client sends it.
        let ratp = a.part.ratp();
        let grants = match wire_call(
            ratp,
            home,
            &DsmRequest::FetchPages {
                seg: s,
                first: 4,
                count: 1,
                mode: WireMode::Read,
                release: vec![victim],
            },
        ) {
            DsmReply::Pages { first: 4, pages } => pages,
            other => panic!("fetch behind the transition failed: {other:?}"),
        };
        ack_all(ratp, home, s, &[(4, grants[0].grant_seq)]);
        wire_call(ratp, home, &DsmRequest::ReleasePage { seg: s, page: 4 });
        drop(room);
        writer.join().unwrap();
    });

    let server = |name| counted(bed.servers[0].obs(), name);
    let (invalidations, ack_timeouts) = (
        server("dsm.server.invalidations"),
        server("dsm.server.ack_timeouts"),
    );
    assert_eq!(invalidations, 0, "recall found a copy");
    assert_eq!(bed.servers[0].copyset(s, 0), [NodeId(2)]);
    assert_eq!(a.part.cache().resident(), 3);
    assert_eq!(sa.read_u64(0).unwrap(), 0xB0B, "evictor read a stale page");
    assert_eq!(ack_timeouts, 0);
}

/// Fill `c`'s cache with the first `frames` pages of a fresh segment
/// `filler`, read in reverse so that no fault continues a run and the
/// cache ends up holding exactly those pages, whatever the window.
fn fill_cache(c: &Client, filler: SysName, frames: u64) {
    c.part
        .create_segment(filler, frames * PAGE_SIZE as u64)
        .unwrap();
    let fs = c.space(filler, frames);
    for page in (0..frames).rev() {
        fs.read_u64(page * PAGE_SIZE as u64).unwrap();
    }
    assert_eq!(c.part.cache().resident() as u64, frames);
}

/// Acceptance bar for write-ahead: a 32-page sequential write scan into
/// a cache full of another segment's pages fetches exclusive windows —
/// at most 5 `FetchPages`, carrying every release — and every page it
/// was granted it then wrote: no upgrade, no wasted grant, 32 write
/// grants, and the writer the one holder of every page.
#[test]
fn sequential_write_scan_in_a_full_cache_fetches_exclusive_windows() {
    const PAGES: u64 = 32;
    // Twice the scan, so that its victims are all the filler's pages.
    const FRAMES: u64 = 2 * PAGES;
    let bed = Bed::new(1);
    let c = bed.client(1, FRAMES as usize);
    fill_cache(&c, seg(20), FRAMES);
    let s = seg(21);
    c.part.create_segment(s, PAGES * PAGE_SIZE as u64).unwrap();
    let sp = c.space(s, PAGES);
    let client = |name| counted(c.part.obs(), name);
    let evictions = || c.part.cache().stats().evictions;
    let (fetches_before, piggybacked_before, calls_before, evictions_before) = (
        client("dsm.client.fetch_rpcs"),
        client("dsm.client.releases_piggybacked"),
        client("ratp.calls"),
        evictions(),
    );
    for page in 0..PAGES {
        sp.write_u64(page * PAGE_SIZE as u64, page + 900).unwrap();
    }
    let fetches = client("dsm.client.fetch_rpcs") - fetches_before;
    assert!(fetches <= 5, "{fetches} fetch RPCs for 32 pages");
    assert_eq!(
        client("ratp.calls") - calls_before,
        fetches,
        "a call besides the fetches"
    );
    assert!(evictions() - evictions_before >= PAGES);
    assert_eq!(
        client("dsm.client.releases_piggybacked") - piggybacked_before,
        evictions() - evictions_before
    );
    let cache = c.part.cache().stats();
    assert_eq!((cache.upgrades, cache.prefetch_wasted), (0, 0), "{cache:?}");
    assert_eq!(
        counted(bed.servers[0].obs(), "dsm.server.write_grants"),
        PAGES
    );
    for page in 0..PAGES as u32 {
        assert_eq!(bed.servers[0].copyset(s, page), [NodeId(1)], "page {page}");
    }
    sp.flush().unwrap();
    for page in 0..PAGES {
        assert_eq!(stored_u64(&bed.servers[0], s, page), page + 900);
    }
}

/// Write-ahead never recalls: its run stops before a page another client
/// shares, and the fetch invalidates nothing. Writing that page is then
/// an ordinary write fault, which does.
#[test]
fn write_ahead_stops_before_a_page_another_client_shares() {
    const PAGES: u64 = 16;
    let bed = Bed::new(1);
    let s = seg(22);
    bed.prefill(s, PAGES);
    let (a, b) = (bed.client(1, 64), bed.client(2, 64));
    let (sa, sb) = (a.space(s, PAGES), b.space(s, PAGES));
    assert_eq!(sb.read_u64(5 * PAGE_SIZE as u64).unwrap(), 12);
    sa.write_u64(0, 1).unwrap();
    let server = &bed.servers[0];
    let client = |name| counted(a.part.obs(), name);
    let invalidated = || counted(server.obs(), "dsm.server.invalidations");
    let (fetches, granted, invalidations) = (
        client("dsm.client.fetch_rpcs"),
        client("dsm.client.pages_granted"),
        invalidated(),
    );
    // Page 1 continues the run; its window is pages 1..=4.
    sa.write_u64(PAGE_SIZE as u64, 2).unwrap();
    assert_eq!(client("dsm.client.fetch_rpcs") - fetches, 1);
    assert_eq!(client("dsm.client.pages_granted") - granted, 4);
    assert_eq!(invalidated(), invalidations);
    for page in 1..5 {
        assert_eq!(server.copyset(s, page), [NodeId(1)], "page {page}");
    }
    assert_eq!(server.copyset(s, 5), [NodeId(2)]);
    sa.write_u64(5 * PAGE_SIZE as u64, 5).unwrap();
    assert_eq!(invalidated(), invalidations + 1);
    assert_eq!(server.copyset(s, 5), [NodeId(1)]);
    assert_eq!(sb.read_u64(5 * PAGE_SIZE as u64).unwrap(), 5);
}

/// A page granted ahead of a write that never came is still clean at the
/// writer: a reader gets the canonical bytes through one recall that
/// finds the copy clean, so nothing is written back and the page keeps
/// its version.
#[test]
fn a_reader_takes_an_unwritten_write_ahead_page_through_one_clean_recall() {
    const PAGES: u64 = 16;
    let bed = Bed::new(1);
    let s = seg(23);
    bed.prefill(s, PAGES);
    let (a, b) = (bed.client(1, 64), bed.client(2, 64));
    let (sa, sb) = (a.space(s, PAGES), b.space(s, PAGES));
    sa.write_u64(0, 100).unwrap();
    sa.write_u64(PAGE_SIZE as u64, 101).unwrap();
    let server = &bed.servers[0];
    assert_eq!(server.copyset(s, 3), [NodeId(1)], "page 3 came ahead");
    let version = || server.log().read_page(s, 3).expect("page 3 prefilled").0;
    let names = [
        "dsm.server.downgrades",
        "dsm.server.invalidations",
        "dsm.server.write_backs",
    ];
    let (before, version_before) = (names.map(|name| counted(server.obs(), name)), version());
    assert_eq!(sb.read_u64(3 * PAGE_SIZE as u64).unwrap(), 10);
    let after = names.map(|name| counted(server.obs(), name));
    let grew: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(grew, [1, 0, 0], "{names:?}");
    assert_eq!(version(), version_before);
    assert_eq!(server.copyset(s, 3), [NodeId(1), NodeId(2)]);
    // The writer still reads its copy, now shared.
    assert_eq!(sa.read_u64(3 * PAGE_SIZE as u64).unwrap(), 10);
}

/// A speculative exclusive grant the client declines (`installed:
/// false`) leaves the directory as if it had never been made: the page
/// is held by no one, while the grants acked `installed` stay held.
#[test]
fn a_declined_speculative_exclusive_grant_leaves_the_page_idle() {
    let bed = Bed::new(1);
    let home = bed.data_nodes[0];
    let s = seg(24);
    let raw = RatpNode::spawn(bed.net.register(NodeId(1)).unwrap(), RatpConfig::default());
    let create = DsmRequest::CreateSegment {
        seg: s,
        len: 4 * PAGE_SIZE as u64,
    };
    assert!(matches!(wire_call(&raw, home, &create), DsmReply::Ok));
    let fetch = DsmRequest::FetchPages {
        seg: s,
        first: 0,
        count: 4,
        mode: WireMode::Write,
        release: Vec::new(),
    };
    let grants = match wire_call(&raw, home, &fetch) {
        DsmReply::Pages { first: 0, pages } => pages,
        other => panic!("no write window: {other:?}"),
    };
    assert_eq!(grants.len(), 4);
    assert_eq!(counted(bed.servers[0].obs(), "dsm.server.write_grants"), 4);
    let acks = grants
        .iter()
        .zip(0..)
        .map(|(g, page)| WireInstallAck {
            page,
            grant_seq: g.grant_seq,
            installed: page != 2,
        })
        .collect();
    let acked = wire_call(&raw, home, &DsmRequest::InstallAckBatch { seg: s, acks });
    assert!(matches!(acked, DsmReply::Ok), "{acked:?}");
    for page in 0..4 {
        let held: &[NodeId] = if page == 2 { &[] } else { &[NodeId(1)] };
        assert_eq!(bed.servers[0].copyset(s, page), held, "page {page}");
    }
}

/// Reading a page, then writing it, page after page, is the case the
/// window is sized for: each upgrade fault continues the run the read
/// started, but the pages after it are already shared here, so it asks
/// for none of them and evicts nothing for them. The scan evicts no more
/// frames at window 8 than one page at a time, in fewer fetches. (31
/// pages: the last window ends on the segment's last page, so no frame
/// is freed for a page past the end.)
#[test]
fn read_modify_write_scan_in_a_full_cache_evicts_no_more_at_window_8_than_at_1() {
    const FRAMES: u64 = 8;
    const PAGES: u64 = 31;
    let scan = |window: u32| {
        let bed = Bed::new(1);
        let s = seg(26);
        bed.prefill(s, PAGES);
        let config = DsmClientConfig {
            read_ahead_window: window,
        };
        let c = bed.client_with_config(1, FRAMES as usize, config);
        fill_cache(&c, seg(25), FRAMES);
        let sp = c.space(s, PAGES);
        let evictions = || c.part.cache().stats().evictions;
        let fetches = || counted(c.part.obs(), "dsm.client.fetch_rpcs");
        let (before, fetches_before) = (evictions(), fetches());
        for page in 0..PAGES {
            let at = page * PAGE_SIZE as u64;
            let v = sp.read_u64(at).unwrap();
            assert_eq!(v, page + 7, "window {window}, page {page}");
            sp.write_u64(at, v * 2).unwrap();
        }
        (evictions() - before, fetches() - fetches_before)
    };
    let (one, eight) = (scan(1), scan(8));
    assert!(
        eight.0 <= one.0,
        "evictions: window 8 {eight:?}, window 1 {one:?}"
    );
    assert!(
        eight.1 < one.1,
        "fetches: window 8 {eight:?}, window 1 {one:?}"
    );
}

/// Raw-wire helper: a client that installs nothing but acks every grant,
/// so directory transitions never stall on it.
fn ack_all(client: &Arc<RatpNode>, server: NodeId, s: SysName, grants: &[(u32, u64)]) {
    let acks: Vec<WireInstallAck> = grants
        .iter()
        .map(|&(page, grant_seq)| WireInstallAck {
            page,
            grant_seq,
            installed: true,
        })
        .collect();
    let reply = client
        .call(
            server,
            ports::DSM_SERVER,
            proto::encode(&DsmRequest::InstallAckBatch { seg: s, acks }),
        )
        .unwrap();
    assert!(matches!(
        proto::decode::<DsmReply>(&reply).unwrap(),
        DsmReply::Ok
    ));
}

/// The `u64` at the start of `page` of `s`, as `server`'s log holds it
/// (0 if never written; `s` must be live).
fn stored_u64(server: &DsmServer, s: SysName, page: u64) -> u64 {
    server.log().segment_len(s).expect("segment live");
    server
        .log()
        .read_page(s, page as u32)
        .map_or(0, |(_, image)| {
            u64::from_le_bytes(image[..8].try_into().unwrap())
        })
}

fn wire_call(client: &Arc<RatpNode>, server: NodeId, req: &DsmRequest) -> DsmReply {
    let reply = client
        .call(server, ports::DSM_SERVER, proto::encode(req))
        .unwrap();
    proto::decode(&reply).unwrap()
}

/// The log compacts a segment at a time while the server appends to it;
/// a crash after 64 rounds of overwrites must still recover every page
/// at the last version the server acknowledged.
#[test]
fn recovery_after_compacted_overwrites_restores_every_acked_version() {
    const PAGES: u32 = 32;
    let bed = Bed::new(1);
    let (server, home) = (&bed.servers[0], bed.data_nodes[0]);
    let raw = RatpNode::spawn(bed.net.register(NodeId(91)).unwrap(), RatpConfig::default());
    let s = seg(17);
    let create = DsmRequest::CreateSegment {
        seg: s,
        len: u64::from(PAGES) * PAGE_SIZE as u64,
    };
    assert!(matches!(wire_call(&raw, home, &create), DsmReply::Ok));

    let mut acked = vec![(0u64, 0u8); PAGES as usize];
    for round in 1..=64u8 {
        let pages = (0..PAGES)
            .map(|page| proto::WireWriteBack {
                seg: s,
                page,
                data: PageBytes::from(vec![round ^ page as u8; PAGE_SIZE]),
            })
            .collect();
        match wire_call(&raw, home, &DsmRequest::WriteBackBatch { pages }) {
            DsmReply::WriteBackResults { results } => {
                assert_eq!(results.len(), PAGES as usize);
                for (page, result) in results.into_iter().enumerate() {
                    acked[page] = (result.expect("write-back acked"), round ^ page as u8);
                }
            }
            other => panic!("round {round}: {other:?}"),
        }
    }
    let log = server.log().stats();
    assert_eq!(log.appends, 1 + 64 * u64::from(PAGES));
    assert!(
        log.segments_reclaimed > 0,
        "16 MiB of overwrites reclaim log segments"
    );
    assert!(
        log.media_bytes < log.append_bytes / 8,
        "media {} tracks the live set",
        log.media_bytes
    );

    server.crash();
    assert_eq!(
        server.log().segment_len(s),
        None,
        "the crash wiped the log's index"
    );
    server.recover_from_log();
    for (page, (version, fill)) in acked.into_iter().enumerate() {
        let (logged, image) = server.log().read_page(s, page as u32).unwrap();
        assert_eq!(logged, version, "page {page}");
        assert!(image == vec![fill; PAGE_SIZE], "page {page}");
    }
}

/// A grant as compared across worlds: bytes, version, zero-fill flag,
/// grant sequence number.
type GrantView = (Vec<u8>, u64, bool, u64);

/// One isolated server with two raw clients that both read-share
/// `held` pages (every grant acked); `run` is then issued by client 0.
/// Returns what `run`'s last request answered and every page's copyset.
fn release_world(
    pages: u32,
    held: &[(usize, u32)],
    run: &[DsmRequest],
) -> (Vec<GrantView>, Vec<Vec<NodeId>>) {
    let net = Network::new(CostModel::zero());
    let home = NodeId(100);
    let server = DsmServer::install(&RatpNode::spawn(
        net.register(home).unwrap(),
        RatpConfig::default(),
    ));
    let clients: Vec<Arc<RatpNode>> = (1..=2)
        .map(|id| RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default()))
        .collect();
    let s = seg(15);
    wire_call(
        &clients[0],
        home,
        &DsmRequest::CreateSegment {
            seg: s,
            len: u64::from(pages) * PAGE_SIZE as u64,
        },
    );
    for &(client, page) in held {
        let fetch = DsmRequest::FetchPage {
            seg: s,
            page,
            mode: WireMode::Read,
        };
        match wire_call(&clients[client], home, &fetch) {
            DsmReply::Page { grant_seq, .. } => {
                ack_all(&clients[client], home, s, &[(page, grant_seq)]);
            }
            other => panic!("no grant: {other:?}"),
        }
    }
    let mut last = DsmReply::Ok;
    for req in run {
        last = wire_call(&clients[0], home, req);
    }
    let granted = match last {
        DsmReply::Pages { pages, .. } => pages
            .into_iter()
            .map(|g| (g.data.to_vec(), g.version, g.zero_filled, g.grant_seq))
            .collect(),
        other => panic!("no batch grant: {other:?}"),
    };
    let copysets = (0..pages).map(|p| server.copyset(s, p)).collect();
    (granted, copysets)
}

/// One client-side paging operation, as [`paging_world`] plays it in
/// either wire form.
#[derive(Debug, Clone)]
enum PagingOp {
    /// Fault `page` in, having first evicted the clean copy of
    /// `release` (if any); install the grant, or decline it (`keep`
    /// false).
    Fetch {
        client: usize,
        page: u32,
        write: bool,
        keep: bool,
        release: Option<u32>,
    },
    /// Flush `page` filled with `fill`, giving the copy up or not.
    WriteBack {
        client: usize,
        page: u32,
        fill: u8,
        release: bool,
    },
}

/// What an operation answered, with the wire form taken off: a grant
/// (bytes, version, zero-fill flag, grant sequence number), a written
/// version (the single-page form does not report one), or the error.
#[derive(Debug, PartialEq)]
enum Answer {
    Granted(GrantView),
    Written,
    Refused(proto::WireError),
}

/// Everything a run leaves behind that a client, a restart or a
/// failover could observe.
#[derive(Debug, PartialEq)]
struct WorldView {
    answers: Vec<Answer>,
    /// Bytes and version of every page, as the log serves them.
    pages: Vec<(Vec<u8>, u64)>,
    copysets: Vec<Vec<NodeId>>,
    /// Log records appended and their bytes.
    appended: (u64, u64),
    /// The pages written, read again after a replay of the log:
    /// (page, version, bytes).
    replayed: Vec<(u32, u64, Vec<u8>)>,
    /// Grants, write-backs and fetch RPCs as the server counted them.
    counted: (u64, u64, u64, u64),
}

/// Play `ops` against a fresh four-page segment from two raw clients,
/// every request in its single-page wire form (`batched` false) or as
/// the batch of one that the server must treat alike (`batched` true):
/// `FetchPage` / `FetchPages` with `count` 1, whose release list stands
/// for a preceding `ReleasePage`; `InstallAck` (then `ReleasePage` for a
/// declined grant) / a one-entry `InstallAckBatch`; `WriteBack` with its
/// release flag / a one-page `WriteBackBatch` (then `ReleasePage`).
fn paging_world(ops: &[PagingOp], batched: bool) -> WorldView {
    const PAGES: u32 = 4;
    let net = Network::new(CostModel::zero());
    let home = NodeId(100);
    let server = DsmServer::install(&RatpNode::spawn(
        net.register(home).unwrap(),
        RatpConfig::default(),
    ));
    let clients: Vec<Arc<RatpNode>> = (1..=2)
        .map(|id| RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default()))
        .collect();
    let s = seg(16);
    let create = DsmRequest::CreateSegment {
        seg: s,
        len: u64::from(PAGES) * PAGE_SIZE as u64,
    };
    assert!(matches!(
        wire_call(&clients[0], home, &create),
        DsmReply::Ok
    ));

    let mut answers = Vec::new();
    for op in ops {
        match *op {
            PagingOp::Fetch {
                client,
                page,
                write,
                keep,
                release,
            } => {
                let c = &clients[client];
                let mode = if write {
                    WireMode::Write
                } else {
                    WireMode::Read
                };
                let reply = if batched {
                    let release = release.map(|r| (s, r)).into_iter().collect();
                    let fetch = DsmRequest::FetchPages {
                        seg: s,
                        first: page,
                        count: 1,
                        mode,
                        release,
                    };
                    match wire_call(c, home, &fetch) {
                        DsmReply::Pages { first, mut pages } => {
                            assert_eq!((first, pages.len()), (page, 1));
                            let g = pages.remove(0);
                            Ok((g.data, g.version, g.zero_filled, g.grant_seq))
                        }
                        DsmReply::Err(e) => Err(e),
                        other => panic!("{op:?}: {other:?}"),
                    }
                } else {
                    if let Some(r) = release {
                        wire_call(c, home, &DsmRequest::ReleasePage { seg: s, page: r });
                    }
                    let fetch = DsmRequest::FetchPage { seg: s, page, mode };
                    match wire_call(c, home, &fetch) {
                        DsmReply::Page {
                            data,
                            version,
                            zero_filled,
                            grant_seq,
                        } => Ok((data, version, zero_filled, grant_seq)),
                        DsmReply::Err(e) => Err(e),
                        other => panic!("{op:?}: {other:?}"),
                    }
                };
                answers.push(match reply {
                    Ok((data, version, zero_filled, grant_seq)) => {
                        let acked = if batched {
                            let ack = WireInstallAck {
                                page,
                                grant_seq,
                                installed: keep,
                            };
                            let acks = DsmRequest::InstallAckBatch {
                                seg: s,
                                acks: vec![ack],
                            };
                            wire_call(c, home, &acks)
                        } else {
                            let ack = DsmRequest::InstallAck {
                                seg: s,
                                page,
                                grant_seq,
                            };
                            let acked = wire_call(c, home, &ack);
                            if !keep {
                                wire_call(c, home, &DsmRequest::ReleasePage { seg: s, page });
                            }
                            acked
                        };
                        assert!(matches!(acked, DsmReply::Ok), "{op:?}: {acked:?}");
                        Answer::Granted((data.to_vec(), version, zero_filled, grant_seq))
                    }
                    Err(e) => Answer::Refused(e),
                });
            }
            PagingOp::WriteBack {
                client,
                page,
                fill,
                release,
            } => {
                let c = &clients[client];
                let data = PageBytes::from(vec![fill; PAGE_SIZE]);
                let written = if batched {
                    let one = proto::WireWriteBack { seg: s, page, data };
                    let written = match wire_call(
                        c,
                        home,
                        &DsmRequest::WriteBackBatch { pages: vec![one] },
                    ) {
                        DsmReply::WriteBackResults { mut results } => {
                            assert_eq!(results.len(), 1);
                            results.remove(0).map(|_version| ())
                        }
                        other => panic!("{op:?}: {other:?}"),
                    };
                    if release && written.is_ok() {
                        wire_call(c, home, &DsmRequest::ReleasePage { seg: s, page });
                    }
                    written
                } else {
                    let write = DsmRequest::WriteBack {
                        seg: s,
                        page,
                        data,
                        release,
                    };
                    match wire_call(c, home, &write) {
                        DsmReply::Ok => Ok(()),
                        DsmReply::Err(e) => Err(e),
                        other => panic!("{op:?}: {other:?}"),
                    }
                };
                answers.push(written.map_or_else(Answer::Refused, |()| Answer::Written));
            }
        }
    }

    server.log().segment_len(s).expect("segment live");
    let pages = (0..PAGES)
        .map(|p| match server.log().read_page(s, p) {
            Some((version, image)) => (image, version),
            None => (vec![0; PAGE_SIZE], 0),
        })
        .collect();
    let log_stats = server.log().stats();
    server.log().replay();
    server.log().segment_len(s).expect("segment replayed");
    let replayed = (0..PAGES)
        .filter_map(|p| {
            let (version, data) = server.log().read_page(s, p)?;
            Some((p, version, data))
        })
        .collect();
    let served = |name| counted(server.obs(), name);
    WorldView {
        answers,
        pages,
        copysets: (0..PAGES).map(|p| server.copyset(s, p)).collect(),
        appended: (log_stats.appends, log_stats.append_bytes),
        replayed,
        counted: (
            served("dsm.server.read_grants"),
            served("dsm.server.write_grants"),
            served("dsm.server.write_backs"),
            served("dsm.server.fetch_rpcs"),
        ),
    }
}

/// Pages 0..4 exist; page 4 is one past the end, so both forms of every
/// operation are also compared on their refusal.
fn paging_op() -> impl Strategy<Value = PagingOp> {
    prop_oneof![
        (
            0usize..2,
            0u32..5,
            any::<bool>(),
            any::<bool>(),
            prop::option::of(0u32..4)
        )
            .prop_map(|(client, page, write, keep, release)| PagingOp::Fetch {
                client,
                page,
                write,
                keep,
                release,
            }),
        (0usize..2, 0u32..5, any::<u8>(), any::<bool>()).prop_map(
            |(client, page, fill, release)| PagingOp::WriteBack {
                client,
                page,
                fill,
                release,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The server has one path per paging operation, so a request in its
    /// single-page wire form and the batch of one that says the same
    /// thing must be indistinguishable afterwards: same answers, same
    /// store bytes and page versions, same log records, same copysets —
    /// for fetches (either mode, release list or `ReleasePage`), install
    /// acks (kept or declined), write-backs (kept or released) and
    /// refusals alike.
    #[test]
    fn single_page_forms_match_their_batch_of_one(
        ops in prop::collection::vec(paging_op(), 1..24),
    ) {
        prop_assert_eq!(paging_world(&ops, false), paging_world(&ops, true));
    }

    /// A release list riding on `FetchPages` is one `ReleasePage` per
    /// entry followed by the bare fetch: same grants, same copysets —
    /// whether or not the pages were held, and when they fall inside the
    /// requested window too.
    #[test]
    fn release_list_on_fetch_matches_release_calls_then_fetch(
        held in prop::collection::vec((0usize..2, 0u32..12), 0..16),
        release in prop::collection::vec(0u32..12, 0..8),
        first in 0u32..12,
        count in 1u32..9,
    ) {
        let s = seg(15);
        let fetch = |release: Vec<(SysName, u32)>| DsmRequest::FetchPages {
            seg: s, first, count, mode: WireMode::Read, release,
        };
        let listed: Vec<(SysName, u32)> = release.iter().map(|&p| (s, p)).collect();
        let riding = release_world(12, &held, &[fetch(listed)]);
        let mut calls: Vec<DsmRequest> = release
            .iter()
            .map(|&page| DsmRequest::ReleasePage { seg: s, page })
            .collect();
        calls.push(fetch(Vec::new()));
        let separate = release_world(12, &held, &calls);
        prop_assert_eq!(riding, separate);
    }

    /// A `FetchPages` batch is observationally identical to per-page
    /// `FetchPage` calls: same bytes, same versions, same zero-fill
    /// flags, for arbitrary page contents and window sizes.
    #[test]
    fn batch_grant_matches_per_page_fetches(
        contents in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..64), 1..10),
        window in 1u32..10,
        extra_writes in prop::collection::vec((0usize..10, any::<u8>()), 0..6),
    ) {
        let pages = contents.len() as u32;
        let net = Network::new(CostModel::zero());
        let server_node = NodeId(100);
        let ratp_s = RatpNode::spawn(net.register(server_node).unwrap(), RatpConfig::default());
        let _server = DsmServer::install(&ratp_s);
        let x = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let y = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());

        let s = seg(9);
        prop_assert!(matches!(
            wire_call(&x, server_node, &DsmRequest::CreateSegment {
                seg: s,
                len: pages as u64 * PAGE_SIZE as u64,
            }),
            DsmReply::Ok
        ));
        // Materialize distinct content (and thus versions) per page;
        // extra writes give some pages higher version counters.
        for (page, bytes) in contents.iter().enumerate() {
            let mut data = vec![0u8; PAGE_SIZE];
            data[..bytes.len()].copy_from_slice(bytes);
            wire_call(&x, server_node, &DsmRequest::WriteBack {
                seg: s, page: page as u32, data: PageBytes::from(data), release: true,
            });
        }
        for &(page, b) in &extra_writes {
            if page < pages as usize {
                let data = vec![b; PAGE_SIZE];
                wire_call(&x, server_node, &DsmRequest::WriteBack {
                    seg: s, page: page as u32, data: PageBytes::from(data), release: true,
                });
            }
        }

        // X: one batch fetch from page 0.
        let batch: Vec<WirePageGrant> = match wire_call(&x, server_node, &DsmRequest::FetchPages {
            seg: s, first: 0, count: window, mode: WireMode::Read, release: Vec::new(),
        }) {
            DsmReply::Pages { first, pages } => {
                prop_assert_eq!(first, 0);
                pages
            }
            other => panic!("no batch grant: {other:?}"),
        };
        // The run is contiguous from 0 and exactly as long as coherence
        // and the segment allow (nothing here blocks it but the end).
        prop_assert_eq!(batch.len() as u32, window.min(pages));
        ack_all(&x, server_node, s,
            &batch.iter().enumerate().map(|(i, g)| (i as u32, g.grant_seq)).collect::<Vec<_>>());

        // Y: the same pages one at a time.
        for (page, from_batch) in batch.iter().enumerate() {
            match wire_call(&y, server_node, &DsmRequest::FetchPage {
                seg: s, page: page as u32, mode: WireMode::Read,
            }) {
                DsmReply::Page { data, version, zero_filled, grant_seq } => {
                    prop_assert_eq!(&data, &from_batch.data, "page {} bytes differ", page);
                    prop_assert_eq!(version, from_batch.version, "page {} version differs", page);
                    prop_assert_eq!(zero_filled, from_batch.zero_filled);
                    ack_all(&y, server_node, s, &[(page as u32, grant_seq)]);
                }
                other => panic!("no single grant: {other:?}"),
            }
        }
    }
}
