//! E7 — batched & pipelined DSM paging ablation (this repo's
//! optimization, not a paper table).
//!
//! The paper's activation path "causes a series of page faults which are
//! serviced by demand paging the pages of O from the data server(s)";
//! unbatched, every fault pays a full RaTP transaction. This experiment
//! measures, in virtual time under the calibrated Sun-3/Ethernet model,
//! what multi-page grants with read-ahead buy over one fetch RPC per
//! fault, and what a coalesced write-back flush costs. Both sides speak
//! the one client protocol: every fault is a `FetchPages` carrying its
//! victims' releases, every flush a `WriteBackBatch` per home.

use clouds_codec::PageBytes;
use clouds_dsm::proto::{self, ports, DsmReply, DsmRequest, WireWriteBack};
use clouds_dsm::{DsmClientConfig, DsmClientPartition, DsmServer};
use clouds_obs::HistogramSummary;
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId, VirtualClock, Vt};
use std::sync::Arc;

/// Pages in the sequential-scan workload (1 MiB of 8 KiB pages).
pub const SCAN_PAGES: u64 = 128;
/// Frames in the client cache of the scan and flush workloads: twice
/// the scanned object, so nothing is ever evicted.
pub const ROOMY_FRAMES: usize = 256;
/// Pages in the cache-bound scan (4 MiB) …
pub const BOUND_SCAN_PAGES: u64 = 512;
/// … and the frames it runs in: the object is four times the cache, so
/// from page 128 on every fault has to evict.
pub const BOUND_FRAMES: usize = 128;
/// Dirty pages in the commit-flush workload.
pub const FLUSH_PAGES: u64 = 32;

/// One scenario's measurement: elapsed virtual time on the client's
/// clock plus the RPCs it took.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub vt: Vt,
    /// Fetch RPCs for a scan, write-back RPCs for a flush.
    pub rpcs: u64,
    /// Every RaTP transaction the client made meanwhile — the RPCs
    /// above plus home discovery.
    pub calls: u64,
}

/// Measured results of the paging ablation.
#[derive(Debug, Clone, Copy)]
pub struct PagingResults {
    /// 128-page sequential scan, one fetch RPC per fault.
    pub scan_unbatched: Measurement,
    /// Same scan with the default read-ahead window.
    pub scan_batched: Measurement,
    /// 512-page sequential scan in a 128-frame cache, one fetch RPC per
    /// fault, each carrying the release of the frame evicted for it.
    pub bound_scan_unbatched: Measurement,
    /// Same cache-bound scan with the default read-ahead window.
    pub bound_scan_batched: Measurement,
    /// 32-dirty-page flush as coalesced `WriteBackBatch` RPCs.
    pub flush_batched: Measurement,
    /// 32-page sequential write scan plus its flush, one fetch RPC per
    /// write fault.
    pub write_scan_unbatched: Measurement,
    /// Same write scan with the default window: write faults that
    /// continue the run fetch exclusive windows.
    pub write_scan_batched: Measurement,
}

/// The ablation's baseline: read-ahead off, one page per fault.
fn unbatched() -> DsmClientConfig {
    DsmClientConfig {
        read_ahead_window: 1,
    }
}

fn client(
    net: &Network,
    id: NodeId,
    home: NodeId,
    config: DsmClientConfig,
    frames: usize,
) -> Arc<DsmClientPartition> {
    let ratp = RatpNode::spawn(net.register(id).expect("fresh node"), RatpConfig::default());
    DsmClientPartition::install_with_config(
        &ratp,
        Arc::new(PageCache::new(frames)),
        vec![home],
        config,
    )
}

fn calls(part: &DsmClientPartition) -> u64 {
    counted(part, "ratp.calls")
}

/// Counter `name` in `part`'s node registry.
fn counted(part: &DsmClientPartition, name: &str) -> u64 {
    part.obs().registry().counter_value(name)
}

fn space(part: &Arc<DsmClientPartition>, seg: SysName, pages: u64) -> AddressSpace {
    let mut s = AddressSpace::new(
        Arc::clone(part.cache()),
        Arc::clone(part) as Arc<dyn Partition>,
    );
    s.map(0, seg, 0, pages * PAGE_SIZE as u64, true)
        .expect("map segment");
    s
}

/// Create `seg` on `home` over the raw wire from `raw`, then write page
/// `p` of its `pages`, filled with `p as u8`, through the durable
/// write-back path: one page per `WriteBackBatch`.
pub(crate) fn seed(raw: &Arc<RatpNode>, home: NodeId, seg: SysName, pages: u64) {
    let call = |req: &DsmRequest| {
        let reply = raw
            .call(home, ports::DSM_SERVER, proto::encode(req))
            .expect("seed rpc");
        proto::decode::<DsmReply>(&reply).expect("decode")
    };
    let len = pages * PAGE_SIZE as u64;
    assert!(matches!(
        call(&DsmRequest::CreateSegment { seg, len }),
        DsmReply::Ok
    ));
    for page in 0..pages {
        let pages = vec![WireWriteBack {
            seg,
            page: page as u32,
            data: PageBytes::from(vec![page as u8; PAGE_SIZE]),
        }];
        let written = call(&DsmRequest::WriteBackBatch { pages });
        assert!(
            matches!(&written, DsmReply::WriteBackResults { results } if results.iter().all(Result::is_ok)),
            "{written:?}"
        );
    }
}

/// `id`'s clock, first advanced to `home`'s. Seeding runs on the data
/// server's clock; a scan timed from an earlier client time would count
/// it too, when its first reply carries the server's clock over.
fn clock_after_seeding(net: &Network, id: NodeId, home: NodeId) -> Arc<VirtualClock> {
    let clock = net.clock(id).expect("client clock");
    clock.advance_to(net.clock(home).expect("server clock").now());
    clock
}

/// Sequential scan of a server-resident segment of `pages` pages: seed
/// the canonical store over the raw wire ([`seed`]), then time a cold
/// client with `frames` cache frames reading every page in order.
fn scan(config: DsmClientConfig, pages: u64, frames: usize) -> Measurement {
    scan_keeping_client(config, pages, frames).0
}

/// [`scan`], but hand back the client partition too so callers can read
/// its metrics registry after the run.
fn scan_keeping_client(
    config: DsmClientConfig,
    pages: u64,
    frames: usize,
) -> (Measurement, Arc<DsmClientPartition>) {
    let net = Network::new(CostModel::sun3_ethernet());
    let home = NodeId(100);
    let ds = RatpNode::spawn(
        net.register(home).expect("server node"),
        RatpConfig::default(),
    );
    let _server = DsmServer::install(&ds);
    let seg = SysName::from_parts(10, 1);

    let raw = RatpNode::spawn(
        net.register(NodeId(99)).expect("seed node"),
        RatpConfig::default(),
    );
    seed(&raw, home, seg, pages);

    let reader = client(&net, NodeId(1), home, config, frames);
    let rs = space(&reader, seg, pages);
    let clock = clock_after_seeding(&net, NodeId(1), home);
    let start = clock.now();
    for page in 0..pages {
        rs.read_u64(page * PAGE_SIZE as u64).expect("scan read");
    }
    let m = Measurement {
        vt: clock.now() - start,
        rpcs: counted(&reader, "dsm.client.fetch_rpcs"),
        calls: calls(&reader),
    };
    (m, reader)
}

/// Dirty the `FLUSH_PAGES` pages of a fresh segment in order, then flush
/// them home. Returns the whole run, writes and flush, with the write
/// faults' fetch RPCs (the write-scan rows), and the flush alone, with
/// its write-back RPCs (the commit-flush row).
fn write_then_flush(config: DsmClientConfig) -> (Measurement, Measurement) {
    let net = Network::new(CostModel::sun3_ethernet());
    let home = NodeId(100);
    let ds = RatpNode::spawn(
        net.register(home).expect("server node"),
        RatpConfig::default(),
    );
    let _server = DsmServer::install(&ds);
    let seg = SysName::from_parts(10, 2);

    let writer = client(&net, NodeId(1), home, config, ROOMY_FRAMES);
    writer
        .create_segment(seg, FLUSH_PAGES * PAGE_SIZE as u64)
        .expect("create segment");
    let ws = space(&writer, seg, FLUSH_PAGES);
    let clock = net.clock(NodeId(1)).expect("client clock");
    let (start, calls_at_start) = (clock.now(), calls(&writer));
    for page in 0..FLUSH_PAGES {
        ws.write_u64(page * PAGE_SIZE as u64, page)
            .expect("dirty page");
    }
    let (flush_start, calls_at_flush) = (clock.now(), calls(&writer));
    ws.flush().expect("flush");
    let (end, calls_at_end) = (clock.now(), calls(&writer));
    let whole = Measurement {
        vt: end - start,
        rpcs: counted(&writer, "dsm.client.fetch_rpcs"),
        calls: calls_at_end - calls_at_start,
    };
    let flush = Measurement {
        vt: end - flush_start,
        rpcs: counted(&writer, "dsm.client.batch_write_back_rpcs"),
        calls: calls_at_end - calls_at_flush,
    };
    (whole, flush)
}

/// E8 — where the virtual time of the batched sequential scan goes,
/// layer by layer, read straight out of the client's `clouds-obs`
/// [`MetricsRegistry`](clouds_obs::MetricsRegistry) histograms
/// (`dsm.client.fetch` wraps the whole
/// fault→install path; `ratp.call` is the wire transaction nested
/// inside it).
#[derive(Debug, Clone)]
pub struct LayerBreakdown {
    /// End-to-end virtual time of the scan on the client clock.
    pub total: Vt,
    /// Full DSM fault service: RPC + grant decode + page installs.
    pub dsm_fetch: HistogramSummary,
    /// RaTP transaction alone: fragmentation, wire, reassembly.
    pub ratp_call: HistogramSummary,
}

impl LayerBreakdown {
    /// Virtual time spent in DSM bookkeeping above the transport
    /// (decode, cache install, ack) — `dsm.client.fetch − ratp.call`.
    pub fn dsm_overhead(&self) -> Vt {
        self.dsm_fetch.sum - self.ratp_call.sum
    }

    /// Virtual time outside any fault — MMU hits and the reads
    /// themselves — `total − dsm.client.fetch`.
    pub fn local_compute(&self) -> Vt {
        self.total - self.dsm_fetch.sum
    }
}

/// Run the batched E7 scan and report its per-layer latency breakdown
/// from the registry.
pub fn run_layer_breakdown() -> LayerBreakdown {
    let (m, reader) = scan_keeping_client(DsmClientConfig::default(), SCAN_PAGES, ROOMY_FRAMES);
    let registry = reader.obs().registry();
    LayerBreakdown {
        total: m.vt,
        dsm_fetch: registry.histogram_summary("dsm.client.fetch"),
        ratp_call: registry.histogram_summary("ratp.call"),
    }
}

/// Run the whole E7 ablation, each scenario on a fresh network.
pub fn run() -> PagingResults {
    let (write_scan_unbatched, _) = write_then_flush(unbatched());
    let (write_scan_batched, flush_batched) = write_then_flush(DsmClientConfig::default());
    PagingResults {
        scan_unbatched: scan(unbatched(), SCAN_PAGES, ROOMY_FRAMES),
        scan_batched: scan(DsmClientConfig::default(), SCAN_PAGES, ROOMY_FRAMES),
        bound_scan_unbatched: scan(unbatched(), BOUND_SCAN_PAGES, BOUND_FRAMES),
        bound_scan_batched: scan(DsmClientConfig::default(), BOUND_SCAN_PAGES, BOUND_FRAMES),
        flush_batched,
        write_scan_unbatched,
        write_scan_batched,
    }
}

/// Pages each scanner reads in the E11 concurrent workload.
pub const CONCURRENT_PAGES: u64 = 64;

/// E11 — one row of the concurrent-scan scaling table: `clients`
/// scanners demand-paging disjoint segments from one data server.
#[derive(Debug, Clone)]
pub struct ConcurrentScan {
    pub clients: u32,
    /// Virtual time until the slowest scanner finished.
    pub elapsed: Vt,
    /// Aggregate canonical bytes paged per virtual second, in MiB/s.
    pub mib_per_s: f64,
    /// Worst per-client `dsm.client.fetch` p99 from the obs registry.
    pub fetch_p99: Vt,
}

/// Run the E11 scaling sweep: 1, 2 and 4 concurrent scanners, each
/// sweep on a fresh network.
pub fn run_concurrent_scans() -> Vec<ConcurrentScan> {
    [1, 2, 4].into_iter().map(concurrent_scan).collect()
}

fn concurrent_scan(clients: u32) -> ConcurrentScan {
    let net = Network::new(CostModel::sun3_ethernet());
    let home = NodeId(100);
    let ds = RatpNode::spawn(
        net.register(home).expect("server node"),
        RatpConfig::default(),
    );
    let _server = DsmServer::install(&ds);

    let raw = RatpNode::spawn(
        net.register(NodeId(99)).expect("seed node"),
        RatpConfig::default(),
    );
    let seg_of = |i: u32| SysName::from_parts(11, u64::from(i) + 1);
    for i in 0..clients {
        seed(&raw, home, seg_of(i), CONCURRENT_PAGES);
    }

    let parts: Vec<_> = (0..clients)
        .map(|i| {
            client(
                &net,
                NodeId(1 + i),
                home,
                DsmClientConfig::default(),
                ROOMY_FRAMES,
            )
        })
        .collect();
    let spaces: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(i, p)| space(p, seg_of(i as u32), CONCURRENT_PAGES))
        .collect();
    let clocks: Vec<_> = (0..clients)
        .map(|i| clock_after_seeding(&net, NodeId(1 + i), home))
        .collect();
    let starts: Vec<Vt> = clocks.iter().map(|c| c.now()).collect();
    std::thread::scope(|s| {
        for sp in &spaces {
            s.spawn(move || {
                for page in 0..CONCURRENT_PAGES {
                    sp.read_u64(page * PAGE_SIZE as u64).expect("scan read");
                }
            });
        }
    });
    let elapsed = clocks
        .iter()
        .zip(&starts)
        .map(|(c, s)| c.now() - *s)
        .max()
        .expect("at least one client");
    let bytes = u64::from(clients) * CONCURRENT_PAGES * PAGE_SIZE as u64;
    let secs = elapsed.as_nanos() as f64 / 1e9;
    let fetch_p99 = parts
        .iter()
        .map(|p| p.obs().registry().histogram_summary("dsm.client.fetch").p99)
        .max()
        .expect("at least one client");
    ConcurrentScan {
        clients,
        elapsed,
        mib_per_s: bytes as f64 / (1 << 20) as f64 / secs,
        fetch_p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_batching_improves_scan_and_flush() {
        let r = run();
        // RPC budgets: the acceptance criteria of the batching work.
        assert_eq!(r.scan_unbatched.rpcs, SCAN_PAGES);
        assert!(r.scan_batched.rpcs <= 20, "{:?}", r.scan_batched);
        // A 32-page flush is one `WriteBackBatch` and nothing else.
        assert_eq!(r.flush_batched.rpcs, 1, "{:?}", r.flush_batched);
        assert_eq!(r.flush_batched.calls, 1, "{:?}", r.flush_batched);
        // A sequential write scan faults a page at a time without a
        // window and an exclusive window at a time with one; either way
        // its flush is the one other transaction.
        assert_eq!(r.write_scan_unbatched.rpcs, FLUSH_PAGES);
        assert!(r.write_scan_batched.rpcs <= 5, "{:?}", r.write_scan_batched);
        for m in [r.write_scan_unbatched, r.write_scan_batched] {
            assert_eq!(m.calls, m.rpcs + 1, "{m:?}");
        }
        assert!(r.write_scan_batched.vt < r.write_scan_unbatched.vt);
        // In a full cache read-ahead still fetches a window per RPC, and
        // with or without it the evictions cost no transactions of their
        // own: every release rides on a fetch.
        assert_eq!(r.bound_scan_unbatched.rpcs, BOUND_SCAN_PAGES);
        assert!(
            r.bound_scan_batched.rpcs <= 80,
            "{:?}",
            r.bound_scan_batched
        );
        for m in [r.bound_scan_unbatched, r.bound_scan_batched] {
            assert!(m.calls <= m.rpcs + 2, "{m:?}");
        }
        // Virtual time must improve: the bytes moved are identical, the
        // saving is per-RPC overhead, so the batched variants win.
        assert!(r.bound_scan_batched.vt < r.bound_scan_unbatched.vt);
        assert!(
            r.scan_batched.vt < r.scan_unbatched.vt,
            "scan {} !< {}",
            r.scan_batched.vt,
            r.scan_unbatched.vt
        );
    }

    #[test]
    fn e11_concurrent_scans_share_one_server() {
        let rows = run_concurrent_scans();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.mib_per_s > 0.0, "{r:?}");
            assert!(r.fetch_p99.as_nanos() > 0, "{r:?}");
        }
        // The server is shared: adding scanners cannot make any single
        // client's fault service faster than running alone.
        assert!(
            rows[2].fetch_p99 >= rows[0].fetch_p99,
            "4-client p99 {} < 1-client p99 {}",
            rows[2].fetch_p99,
            rows[0].fetch_p99
        );
    }

    #[test]
    fn e8_layer_breakdown_accounts_for_the_scan() {
        let b = run_layer_breakdown();
        // One histogram sample per batched fetch; the wire transaction
        // count can only exceed it (resolution probes ride along).
        assert!(b.dsm_fetch.count > 0, "{b:?}");
        assert!(b.ratp_call.count >= b.dsm_fetch.count, "{b:?}");
        // The layers nest: wire time inside fault service, fault
        // service inside the scan — so the sums must be ordered and the
        // derived shares non-negative.
        assert!(b.ratp_call.sum <= b.dsm_fetch.sum, "{b:?}");
        assert!(b.dsm_fetch.sum <= b.total, "{b:?}");
        assert!(
            b.dsm_overhead() + b.local_compute() + b.ratp_call.sum <= b.total,
            "{b:?}"
        );
    }
}
