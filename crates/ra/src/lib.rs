//! `clouds-ra` — **Ra**, the native minimal kernel of Clouds (§4.1).
//!
//! > "Ra is the native minimal kernel that supports the basic mechanisms:
//! > virtual memory management and low-level scheduling."
//!
//! Ra implements exactly the four abstractions the paper names, as a
//! per-simulated-node kernel:
//!
//! * [`Segment`] — "a sequence of uninterpreted bytes of variable length
//!   that exists either on the disk or in physical memory. Segments have
//!   systemwide unique names (called sysnames). Segments once created,
//!   persist until explicitly destroyed." A [`LocalPartition`] keeps
//!   them in a [`SegmentStore`]; a data server keeps them in its
//!   append-only log (`clouds-store`).
//! * [`VirtualSpace`] — "the abstraction of an addressing domain … a
//!   monotonically increasing range of virtual addresses with possible
//!   holes. Each contiguous range of virtual addresses is mapped to (a
//!   portion of) a segment."
//! * **IsiBas** ([`sched::Scheduler`], [`sched::IsiBaCtx`]) — "the
//!   abstraction of activity in the system … a light-weight process",
//!   multiplexed cooperatively over a configurable number of virtual
//!   CPUs per node. A Clouds process is an IsiBa plus a user stack plus a
//!   virtual space; Clouds threads are built from Clouds processes by the
//!   upper layer.
//! * [`Partition`] — "an entity that provides non-volatile data storage
//!   for segments … In order to access a segment, the partition
//!   containing the segment has to be contacted." Ra only defines the
//!   interface; partitions are implemented as system objects — the
//!   [`LocalPartition`] here for machines with a (simulated) disk, and
//!   the DSM client partition in `clouds-dsm` for diskless compute
//!   servers.
//!
//! The [`RaKernel`] ties one node's scheduler, virtual clock, page-frame
//! cache and partition together, and [`AddressSpace`] provides the
//! demand-paged read/write path used by object invocations.
//!
//! # Examples
//!
//! ```
//! use clouds_ra::{RaKernel, SysName, PAGE_SIZE};
//! use clouds_simnet::{CostModel, Network, NodeId};
//! use std::sync::Arc;
//!
//! let net = Network::new(CostModel::zero());
//! let kernel = RaKernel::with_local_store(NodeId(1), &net);
//! let seg = SysName::parse("0000000000000001-0000000000000001").unwrap();
//! kernel.partition().create_segment(seg, 2 * PAGE_SIZE as u64).unwrap();
//!
//! let mut space = kernel.new_address_space();
//! space.map(0x1000, seg, 0, 2 * PAGE_SIZE as u64, true).unwrap();
//! space.write(0x1000, b"persistent!").unwrap();
//! assert_eq!(space.read(0x1000, 11).unwrap(), b"persistent!");
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod error;
mod kernel;
mod partition;
pub mod sched;
mod segment;
mod sysname;
mod vspace;

pub use error::RaError;
pub use kernel::RaKernel;
pub use partition::{
    AccessMode, CacheStats, Frame, LocalPartition, PageCache, PageFetch, Partition, ReclaimOutcome,
    Room, WriteBackItem,
};
pub use segment::{Segment, SegmentStore, PAGE_SIZE};
pub use sysname::{SysName, SysNameGen};
pub use vspace::{AddressSpace, Mapping, VirtualSpace};

/// Result alias for kernel operations.
pub type Result<T> = std::result::Result<T, RaError>;
