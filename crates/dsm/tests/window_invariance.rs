//! Read-ahead must be invisible to programs. The same interleaving of
//! reads and writes from two clients must read the same values, and
//! leave the same canonical bytes, whether every fault fetches its page
//! alone (`read_ahead_window: 1`) or a fault that continues a run fetches
//! a window of eight in its own mode. Those values must also be what one
//! sequential memory would hold.
//!
//! Each run gets its own simulated network, server and 4-frame client
//! caches, so the two runs differ in their windows, evictions and
//! recalls, while the programs' view may not.

use clouds_dsm::{DsmClientConfig, DsmClientPartition, DsmServer};
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

const SERVER: NodeId = NodeId(100);
const PAGES: u32 = 16;
const FRAMES: usize = 4;

fn seg() -> SysName {
    SysName::from_parts(31, 1)
}

/// One step: `client` reads the word at the start of a page, or writes
/// `value` there. The page is `page`, or with `next` the one after the
/// client's previous page, so that runs are common enough to open
/// windows.
#[derive(Debug, Clone)]
struct Op {
    client: usize,
    page: u32,
    next: bool,
    write: bool,
    value: u64,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0usize..2,
        0u32..PAGES,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(client, page, next, write, value)| Op {
            client,
            page,
            next,
            write,
            value,
        })
}

/// Everything the programs can observe of a run: what each read
/// returned, then every page's canonical bytes after both clients
/// flushed.
type Observed = (Vec<u64>, Vec<Vec<u8>>);

/// Play `ops` against a fresh server and two clients whose read-ahead
/// window is `window`.
fn run(ops: &[Op], window: u32) -> Observed {
    let net = Network::new(CostModel::zero());
    let server = DsmServer::install(&RatpNode::spawn(
        net.register(SERVER).unwrap(),
        RatpConfig::default(),
    ));
    let len = u64::from(PAGES) * PAGE_SIZE as u64;
    let spaces: Vec<AddressSpace> = (1..=2)
        .map(|id| {
            let ratp = RatpNode::spawn(net.register(NodeId(id)).unwrap(), RatpConfig::default());
            let part = DsmClientPartition::install_with_config(
                &ratp,
                Arc::new(PageCache::new(FRAMES)),
                vec![SERVER],
                DsmClientConfig {
                    read_ahead_window: window,
                },
            );
            if id == 1 {
                part.create_segment(seg(), len).unwrap();
            }
            let mut space = AddressSpace::new(Arc::clone(part.cache()), part as Arc<dyn Partition>);
            space.map(0, seg(), 0, len, true).unwrap();
            space
        })
        .collect();
    let mut last = [0u32; 2];
    let mut reads = Vec::new();
    for op in ops {
        let page = if op.next {
            (last[op.client] + 1) % PAGES
        } else {
            op.page
        };
        last[op.client] = page;
        let at = u64::from(page) * PAGE_SIZE as u64;
        let space = &spaces[op.client];
        if op.write {
            space.write_u64(at, op.value).unwrap();
        } else {
            reads.push(space.read_u64(at).unwrap());
        }
    }
    for space in &spaces {
        space.flush().unwrap();
    }
    server.log().segment_len(seg()).expect("segment live");
    let pages = (0..PAGES)
        .map(
            |p| match server.log().read_page(seg(), p).expect("not in doubt") {
                Some((_, image)) => image,
                None => vec![0; PAGE_SIZE],
            },
        )
        .collect();
    (reads, pages)
}

/// The same ops against one sequential memory.
fn model(ops: &[Op]) -> Observed {
    let mut words = [0u64; PAGES as usize];
    let mut last = [0u32; 2];
    let mut reads = Vec::new();
    for op in ops {
        let page = if op.next {
            (last[op.client] + 1) % PAGES
        } else {
            op.page
        };
        last[op.client] = page;
        if op.write {
            words[page as usize] = op.value;
        } else {
            reads.push(words[page as usize]);
        }
    }
    let pages = words
        .iter()
        .map(|w| {
            let mut page = vec![0u8; PAGE_SIZE];
            page[..8].copy_from_slice(&w.to_le_bytes());
            page
        })
        .collect();
    (reads, pages)
}

proptest! {
    // ≈ 0.3 s: a write window that takes over another client's shared
    // copy (a stale read) first shows at about case 100.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Windows of either mode change what goes on the wire, never what a
    /// program reads or what the server finally holds.
    #[test]
    fn read_ahead_window_is_invisible_to_programs(
        ops in prop::collection::vec(op(), 1..48),
    ) {
        let per_page = run(&ops, 1);
        let windowed = run(&ops, 8);
        prop_assert_eq!(&windowed.0, &per_page.0, "reads differ by window");
        prop_assert_eq!(&windowed.1, &per_page.1, "canonical pages differ by window");
        prop_assert_eq!(windowed, model(&ops));
    }
}
