//! `clouds-simnet` — the simulated Ethernet substrate for the Clouds
//! reproduction.
//!
//! The original Clouds system ran on Sun-3 machines on a 10 Mb/s Ethernet.
//! This crate replaces that hardware with an in-process frame network:
//!
//! * **Nodes** are identified by [`NodeId`] and own a [`VirtualClock`], a
//!   monotonic logical clock in nanoseconds. All performance numbers in the
//!   reproduction are measured in *virtual time*: computation charges
//!   calibrated costs to the local clock, and a frame arriving at time `t`
//!   advances the receiver's clock to at least `t`.
//! * **Frames** carry up to [`MTU`] bytes of payload (Ethernet-sized). The
//!   transfer delay of a frame is `frame_base + len × per_byte` from the
//!   active [`CostModel`]; the [`CostModel::sun3_ethernet`] preset is
//!   calibrated so the paper's §4.3 microbenchmarks are reproducible in
//!   shape (2.4 ms round trip for a 72-byte message, etc.).
//! * **Faults** — probabilistic loss and duplication, network partitions,
//!   and node crash/restart — are injected through the [`Network`] handle,
//!   driven by a seeded RNG for reproducibility.
//!
//! Higher layers (`clouds-ratp`, the DSM, the Clouds object system) only
//! see [`Endpoint::send`] and the frames handed to the sink they
//! [`Endpoint::bind`] (or, unbound, [`Endpoint::recv_timeout`]), so every
//! protocol runs against the same unreliable-datagram semantics the real
//! system had.
//!
//! # Examples
//!
//! ```
//! use clouds_simnet::{CostModel, Network, NodeId};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let net = Network::new(CostModel::sun3_ethernet());
//! let a = net.register(NodeId(1)).unwrap();
//! let b = net.register(NodeId(2)).unwrap();
//!
//! a.send(NodeId(2), Bytes::from_static(b"ping")).unwrap();
//! let frame = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(&frame.payload[..], b"ping");
//! // The receiver's virtual clock advanced by the modeled wire delay.
//! assert!(b.clock().now().as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod checksum;
mod cost;
mod fault;
mod frame;
mod network;
mod schedule;
mod stats;
mod time;

pub use checksum::{lanesum32, lanesum32_parts};
pub use cost::CostModel;
pub use fault::FaultPlan;
pub use frame::{Frame, MTU};
pub use network::{Endpoint, Network, RecvError, SendError};
pub use schedule::{Disruption, DisruptionKind, FaultAction, FaultEvent, FaultSchedule};
pub use stats::NetworkStats;
pub use time::{VirtualClock, Vt};

/// Identifier of a simulated machine on the network.
///
/// Node ids are assigned by the cluster assembly layer; the network only
/// requires them to be unique per [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node7");
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }
}
