//! Directory sharding must be protocol-invisible: a server whose
//! coherence directory is striped across eight shards and a server with
//! a single (coarse, pre-sharding) stripe must produce byte-identical
//! reply streams for any interleaved sequence of fetches, write-backs,
//! releases and acks — and leave identical canonical page bytes behind.
//!
//! The two servers live on separate simulated networks and are driven
//! with the same operation list from the same client node ids, so any
//! divergence is attributable to the stripe count alone.

use clouds_codec::PageBytes;
use clouds_dsm::proto::{self, ports, DsmReply, DsmRequest, WireInstallAck, WireMode};
use clouds_dsm::DsmServer;
use clouds_ra::{SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

const SERVER: NodeId = NodeId(100);
const SEGS: u64 = 2;
const PAGES: u32 = 8;

/// One isolated world: a server with `shard_count` directory stripes
/// and two raw client transports (no recall service registered, so the
/// server's recalls resolve to `NotPresent` — deterministically, on
/// both worlds alike).
struct World {
    _net: Network,
    server: Arc<DsmServer>,
    clients: Vec<Arc<RatpNode>>,
}

impl World {
    fn new(shard_count: usize) -> World {
        let net = Network::new(CostModel::zero());
        let ds = RatpNode::spawn(net.register(SERVER).unwrap(), RatpConfig::default());
        let server = DsmServer::install_sharded(&ds, shard_count);
        let clients = (1..=2)
            .map(|i| RatpNode::spawn(net.register(NodeId(i)).unwrap(), RatpConfig::default()))
            .collect();
        let world = World {
            _net: net,
            server,
            clients,
        };
        for s in 0..SEGS {
            let reply = world.call(
                0,
                &DsmRequest::CreateSegment {
                    seg: seg(s),
                    len: u64::from(PAGES) * PAGE_SIZE as u64,
                },
            );
            assert!(matches!(reply, DsmReply::Ok));
        }
        world
    }
}

fn seg(n: u64) -> SysName {
    SysName::from_parts(21, n)
}

impl World {
    fn call(&self, client: usize, req: &DsmRequest) -> DsmReply {
        let bytes = self.clients[client]
            .call(SERVER, ports::DSM_SERVER, proto::encode(req))
            .unwrap();
        proto::decode(&bytes).unwrap()
    }
}

/// One step of the driven interleaving.
#[derive(Debug, Clone)]
enum Op {
    Fetch {
        client: usize,
        seg: u64,
        page: u32,
        write: bool,
    },
    WriteBack {
        client: usize,
        seg: u64,
        page: u32,
        fill: u8,
        release: bool,
    },
    Release {
        client: usize,
        seg: u64,
        page: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0u64..SEGS, 0u32..PAGES, any::<bool>()).prop_map(
            |(client, seg, page, write)| Op::Fetch {
                client,
                seg,
                page,
                write,
            }
        ),
        (0usize..2, 0u64..SEGS, 0u32..PAGES, any::<u8>(), any::<bool>()).prop_map(
            |(client, seg, page, fill, release)| Op::WriteBack {
                client,
                seg,
                page,
                fill,
                release,
            }
        ),
        (0usize..2, 0u64..SEGS, 0u32..PAGES).prop_map(|(client, seg, page)| Op::Release {
            client,
            seg,
            page,
        }),
    ]
}

/// A reply, projected onto what the protocol promises (page image,
/// version, zero-fill flag, error identity) — grant sequence numbers are
/// a server-local implementation detail and excluded on purpose: both
/// worlds allocate from one global counter, but recalls the coarse
/// server serializes differently could legally renumber grants.
#[derive(Debug, PartialEq)]
enum Projected {
    Ok,
    Page {
        data: Vec<u8>,
        version: u64,
        zero_filled: bool,
    },
    Len(u64),
    Err(String),
    Other(String),
}

fn project(reply: &DsmReply) -> Projected {
    match reply {
        DsmReply::Ok => Projected::Ok,
        DsmReply::Page {
            data,
            version,
            zero_filled,
            ..
        } => Projected::Page {
            data: data.to_vec(),
            version: *version,
            zero_filled: *zero_filled,
        },
        DsmReply::Len(v) => Projected::Len(*v),
        DsmReply::Err(e) => Projected::Err(format!("{e:?}")),
        other => Projected::Other(format!("{other:?}")),
    }
}

/// Drive one op against a world; fetches are acked immediately so later
/// transitions never stall on the install-ack deadline.
fn drive(world: &World, op: &Op) -> Projected {
    match *op {
        Op::Fetch {
            client,
            seg: s,
            page,
            write,
        } => {
            let reply = world.call(
                client,
                &DsmRequest::FetchPage {
                    seg: seg(s),
                    page,
                    mode: if write {
                        WireMode::Write
                    } else {
                        WireMode::Read
                    },
                },
            );
            if let DsmReply::Page { grant_seq, .. } = &reply {
                let ack = world.call(
                    client,
                    &DsmRequest::InstallAckBatch {
                        seg: seg(s),
                        acks: vec![WireInstallAck {
                            page,
                            grant_seq: *grant_seq,
                            installed: true,
                        }],
                    },
                );
                assert!(matches!(ack, DsmReply::Ok));
            }
            project(&reply)
        }
        Op::WriteBack {
            client,
            seg: s,
            page,
            fill,
            release,
        } => {
            let reply = world.call(
                client,
                &DsmRequest::WriteBack {
                    seg: seg(s),
                    page,
                    data: PageBytes::from(vec![fill; PAGE_SIZE]),
                    release,
                },
            );
            project(&reply)
        }
        Op::Release {
            client,
            seg: s,
            page,
        } => {
            let reply = world.call(client, &DsmRequest::ReleasePage { seg: seg(s), page });
            project(&reply)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The striped directory is observationally equivalent to the
    /// coarse one under arbitrary interleaved fetch / write-back /
    /// release sequences: identical grants and identical final page
    /// bytes.
    #[test]
    fn sharded_directory_is_equivalent_to_coarse(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let coarse = World::new(1);
        let sharded = World::new(8);
        for (step, op) in ops.iter().enumerate() {
            let a = drive(&coarse, op);
            let b = drive(&sharded, op);
            prop_assert_eq!(
                &a, &b,
                "step {} diverged under {:?}", step, op
            );
        }
        // The two servers serve the same bytes (and versions) after the
        // dust settles.
        for s in 0..SEGS {
            for page in 0..PAGES {
                let a = coarse.call(0, &DsmRequest::FetchPage {
                    seg: seg(s), page, mode: WireMode::Read,
                });
                let b = sharded.call(0, &DsmRequest::FetchPage {
                    seg: seg(s), page, mode: WireMode::Read,
                });
                prop_assert_eq!(
                    project(&a), project(&b),
                    "final state of seg {} page {} diverged", s, page
                );
            }
        }
        // Both worlds served every grant from some stripe; the sharded
        // world's stripe counters must account for exactly the same
        // total as the coarse world's single stripe.
        prop_assert_eq!(
            coarse.server.shard_grant_counts().iter().sum::<u64>(),
            sharded.server.shard_grant_counts().iter().sum::<u64>(),
        );
    }
}
