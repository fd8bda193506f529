//! `clouds-dsm` — **Distributed Shared Memory** with one-copy semantics.
//!
//! The Clouds name space of objects "constitutes a shared sparse address
//! space … available on every machine in the system, providing a
//! globally shared (yet distributed) memory" (§3.2 box). When a thread
//! on node A invokes an object O that is not resident at A, "this causes
//! a series of page faults which are serviced by demand paging the pages
//! of O from the data server(s) where they currently reside", and if O
//! is simultaneously in use at node B, "care must be taken to ensure
//! that at all times A and B see the exact same contents of O. This is
//! called one-copy semantics. The maintenance of one-copy semantics is
//! achieved by coherence protocols" — the paper cites Li & Hudak's
//! shared virtual memory work and makes the data servers run the
//! protocol.
//!
//! This crate implements that design:
//!
//! * [`DsmServer`] — runs on every data server. Keeps every page it
//!   stores once, in its append-only log (`clouds-store`), which serves
//!   reads from the index it rebuilds on replay, plus a per-page
//!   coherence directory (owner/copyset). Read faults create shared copies; write faults
//!   recall every other copy (invalidation protocol) before granting
//!   exclusive ownership. Every one is also a two-phase-commit
//!   participant from install (§5.2.1: [`ports::COMMIT`], wire
//!   [`proto::CommitRequest`]), staging prepared pages in logged
//!   intents and, on the one made the registry host
//!   ([`DsmServer::host_outcome_registry`]), answering for the outcome
//!   registry. The crate also hosts the segment-level
//!   [`LockService`] and distributed [`SemaphoreService`] — "the data
//!   servers also provide support for distributed synchronization".
//! * [`DsmClientPartition`] — a [`clouds_ra::Partition`] for diskless
//!   compute servers: demand-pages over RaTP, discovers which data
//!   server homes a segment, and answers recall/downgrade requests
//!   against the node's [`clouds_ra::PageCache`].
//!
//! # Examples
//!
//! Two compute servers sharing one segment coherently through a data
//! server:
//!
//! ```
//! use clouds_dsm::{DsmClientPartition, DsmServer};
//! use clouds_ra::{PageCache, Partition, AddressSpace, PAGE_SIZE, SysName};
//! use clouds_ratp::{RatpConfig, RatpNode};
//! use clouds_simnet::{CostModel, Network, NodeId};
//! use std::sync::Arc;
//!
//! let net = Network::new(CostModel::zero());
//! let ds = RatpNode::spawn(net.register(NodeId(10)).unwrap(), RatpConfig::default());
//! let _server = DsmServer::install(&ds);
//!
//! let make_client = |id| {
//!     let ratp = RatpNode::spawn(net.register(id).unwrap(), RatpConfig::default());
//!     let cache = Arc::new(PageCache::new(64));
//!     DsmClientPartition::install(&ratp, Arc::clone(&cache), vec![NodeId(10)])
//! };
//! let a = make_client(NodeId(1));
//! let b = make_client(NodeId(2));
//!
//! let seg = SysName::from_parts(1, 99);
//! a.create_segment(seg, PAGE_SIZE as u64).unwrap();
//!
//! let mut sa = AddressSpace::new(a.cache().clone(), a.clone() as Arc<dyn Partition>);
//! let mut sb = AddressSpace::new(b.cache().clone(), b.clone() as Arc<dyn Partition>);
//! sa.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
//! sb.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
//!
//! sa.write(0, b"one copy").unwrap();
//! // B's read recalls A's exclusive copy through the data server.
//! assert_eq!(sb.read(0, 8).unwrap(), b"one copy");
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod client;
mod coherence;
mod commit;
mod locks;
pub mod proto;
mod recovery;
mod replication;
mod semaphore;
mod server;

pub use client::{DsmClientConfig, DsmClientPartition};
pub use locks::{LockMode, LockOutcome, LockReply, LockRequest, LockService};
pub use proto::ports;
pub use semaphore::{SemReply, SemRequest, SemaphoreService};
pub use server::DsmServer;
