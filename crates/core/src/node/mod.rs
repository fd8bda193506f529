//! The three machine roles of the Clouds environment (§3, Figure 3):
//! compute servers, data servers, and user workstations.
//!
//! * A [`ComputeServer`] is "a machine that is available for use as a
//!   computational engine": diskless, reaching all storage through the
//!   DSM client partition, running the object manager and thread
//!   manager, and exposing an invocation service so threads can span
//!   machines.
//! * A [`DataServer`] is "a machine whose purpose is to function as a
//!   repository for long-lived (i.e., persistent) data": the DSM server
//!   with its canonical segment store, the lock manager and the
//!   distributed semaphore service (and, on the first data server, the
//!   name server).
//! * A [`Workstation`] "provides the programming environment": it
//!   creates objects and threads on compute servers, runs the user I/O
//!   manager, and owns the terminals threads print to.

use crate::error::CloudsError;
use clouds_obs::{MetricsRegistry, NodeObs, TraceSink};
use clouds_ra::SysName;
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{Network, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

mod compute;
mod data;
mod workstation;

pub(crate) use compute::ComputeInner;
pub use compute::{ComputeServer, MAX_INVOCATION_DEPTH};
pub use data::DataServer;
pub use workstation::Workstation;

/// Wire form of an invocation target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireTarget {
    /// A sysname.
    Sysname(SysName),
    /// A user name, resolved by the executing compute server.
    Name(String),
}

/// Wire form of [`CloudsError`] for cross-node invocation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireError {
    /// Unknown object.
    NoSuchObject(SysName),
    /// Unknown class.
    NoSuchClass(String),
    /// Unknown entry point.
    NoSuchEntryPoint(String),
    /// Application-raised error.
    Application(String),
    /// Consistency abort.
    Consistency(String),
    /// Anything else, as text.
    Other(String),
}

impl From<CloudsError> for WireError {
    fn from(e: CloudsError) -> WireError {
        match e {
            CloudsError::NoSuchObject(s) => WireError::NoSuchObject(s),
            CloudsError::NoSuchClass(c) => WireError::NoSuchClass(c),
            CloudsError::NoSuchEntryPoint(e) => WireError::NoSuchEntryPoint(e),
            CloudsError::Application(m) => WireError::Application(m),
            CloudsError::ConsistencyAbort(m) => WireError::Consistency(m),
            other => WireError::Other(other.to_string()),
        }
    }
}

impl From<WireError> for CloudsError {
    fn from(e: WireError) -> CloudsError {
        match e {
            WireError::NoSuchObject(s) => CloudsError::NoSuchObject(s),
            WireError::NoSuchClass(c) => CloudsError::NoSuchClass(c),
            WireError::NoSuchEntryPoint(e) => CloudsError::NoSuchEntryPoint(e),
            WireError::Application(m) => CloudsError::Application(m),
            WireError::Consistency(m) => CloudsError::ConsistencyAbort(m),
            WireError::Other(m) => CloudsError::Transport(m),
        }
    }
}

/// Requests accepted by a compute server's invocation service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComputeRequest {
    /// Run one (possibly continuing) thread invocation to completion.
    Invoke {
        /// Existing thread id to continue, or `None` to create one.
        thread: Option<u64>,
        /// Originating workstation (raw node id) for terminal I/O.
        origin_ws: Option<u32>,
        /// What to invoke.
        target: WireTarget,
        /// Entry point name.
        entry: String,
        /// Encoded arguments.
        args: Vec<u8>,
    },
    /// Create an object of a class.
    CreateObject {
        /// Class name.
        class: String,
        /// Explicit data-server placement (raw node id).
        placement: Option<u32>,
    },
    /// Destroy an object.
    DestroyObject {
        /// Victim object.
        sysname: SysName,
    },
    /// Query scheduler load (for placement policies).
    Load,
}

/// Replies from a compute server's invocation service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComputeReply {
    /// Invocation result.
    Result(Result<Vec<u8>, WireError>),
    /// Created object sysname.
    Created(Result<SysName, WireError>),
    /// Generic ack.
    Ok(Result<(), WireError>),
    /// Load report.
    Load(u64),
}

/// Register `node` on the network and start its transport, joined to
/// the cluster-shared trace sink.
fn boot_transport(
    net: &Network,
    node: NodeId,
    config: RatpConfig,
    sink: &Arc<TraceSink>,
) -> Arc<RatpNode> {
    let endpoint = net.register(node).expect("node id unique");
    let clock = net.clock(node).expect("registered above");
    let obs = NodeObs::new(
        node.0 as u64,
        clock,
        Arc::new(MetricsRegistry::new()),
        Arc::clone(sink),
    );
    RatpNode::spawn_with_obs(endpoint, config, obs)
}

/// One RaTP transaction with a typed reply: a transport failure or a
/// malformed reply becomes a [`CloudsError`].
pub(crate) fn call<R: Deserialize>(
    ratp: &Arc<RatpNode>,
    node: NodeId,
    port: u16,
    req: &impl Serialize,
) -> Result<R, CloudsError> {
    decode(&ratp.call(node, port, encode(req))?)
}

/// The error for a reply of a variant the request cannot produce.
pub(crate) fn unexpected(reply: impl fmt::Debug) -> CloudsError {
    CloudsError::Transport(format!("unexpected reply {reply:?}"))
}

/// The outcome an `Invoke` request's reply carries.
pub(crate) fn invoke_result(reply: ComputeReply) -> Result<Vec<u8>, CloudsError> {
    match reply {
        ComputeReply::Result(result) => Ok(result?),
        other => Err(unexpected(other)),
    }
}

fn encode<T: Serialize>(value: &T) -> bytes::Bytes {
    bytes::Bytes::from(clouds_codec::to_bytes(value).expect("protocol types encode"))
}

fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, CloudsError> {
    clouds_codec::from_bytes(bytes)
        .map_err(|e| CloudsError::Transport(format!("malformed message: {e}")))
}
