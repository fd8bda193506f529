//! `clouds-naming` — the Clouds name server.
//!
//! §2.1: "Users can define high-level names for objects. These are
//! translated to sysnames using a name server." §2.4 shows the usage:
//! `rect.bind("Rect01")` performs a "call to name server, binds sysname
//! to Rect01".
//!
//! The name server is deliberately *not* part of the kernel: naming is a
//! "non-critical service … implemented as user objects to complete the
//! functionality of Clouds" (§4). Here it is a small RaTP service
//! ([`NameServer`]) plus a client stub ([`NameClient`]) used by the
//! Clouds shell and by `rect.bind(...)`-style code.
//!
//! # Examples
//!
//! ```
//! use clouds_naming::{NameClient, NameServer};
//! use clouds_ra::SysName;
//! use clouds_ratp::{RatpConfig, RatpNode};
//! use clouds_simnet::{CostModel, Network, NodeId};
//!
//! let net = Network::new(CostModel::zero());
//! let server_node = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
//! let _server = NameServer::install(&server_node);
//!
//! let client_node = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
//! let names = NameClient::new(&client_node, NodeId(1));
//!
//! let rect01 = SysName::from_parts(2, 77);
//! names.register("Rect01", rect01).unwrap();
//! assert_eq!(names.lookup("Rect01").unwrap(), rect01);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

use clouds_ra::SysName;
use clouds_ratp::{CallError, RatpNode, Request};
use clouds_simnet::NodeId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// RaTP port of the name service (shared constant with `clouds-dsm`'s
/// port registry).
pub const NAMING_PORT: u16 = 14;

/// Requests accepted by the name server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NameRequest {
    /// Bind `name` to `sysname`; fails if already bound.
    Register {
        /// High-level user name.
        name: String,
        /// Target sysname.
        sysname: SysName,
    },
    /// Translate a user name to its sysname.
    Lookup {
        /// High-level user name.
        name: String,
    },
    /// Remove a binding.
    Unregister {
        /// High-level user name.
        name: String,
    },
    /// Enumerate bindings with a given prefix (the shell's `ls`).
    List {
        /// Name prefix; empty string lists everything.
        prefix: String,
    },
    /// Record a segment's replica set (primary + ordered backups) at
    /// epoch 1; fails if the segment already has one.
    RegisterReplicas {
        /// The replicated segment.
        seg: SysName,
        /// Serving primary (raw [`NodeId`] value).
        primary: u32,
        /// Backup homes, in promotion order (raw [`NodeId`] values).
        backups: Vec<u32>,
    },
    /// Fetch a segment's current replica set.
    LookupReplicas {
        /// The replicated segment.
        seg: SysName,
    },
    /// Re-home `seg` onto `new_primary` at `epoch`. Idempotent: applied
    /// only when `epoch` exceeds the directory's current epoch for the
    /// segment, so duplicate or late promotion messages are no-ops.
    Promote {
        /// The replicated segment.
        seg: SysName,
        /// The backup being promoted (raw [`NodeId`] value).
        new_primary: u32,
        /// Proposed epoch; must be greater than the current one to win.
        epoch: u64,
    },
}

/// Replies from the name server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NameReply {
    /// Operation succeeded with no payload.
    Ok,
    /// Lookup result.
    Sysname(SysName),
    /// Listing result.
    Names(Vec<(String, SysName)>),
    /// The name is not bound.
    NotFound,
    /// Register of an already-bound name.
    AlreadyBound,
    /// Replica-set result: the set as the directory now records it.
    Replicas(ReplicaSet),
    /// Malformed request.
    Bad,
}

/// A segment's homes as recorded by the directory: the serving primary,
/// the backups in promotion order, and the epoch that fences stale
/// promotions. Node ids are raw [`NodeId`] values (`u32`) because the
/// set travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSet {
    /// The serving primary's raw node id.
    pub primary: u32,
    /// Backup homes in promotion order, raw node ids.
    pub backups: Vec<u32>,
    /// Monotone re-homing epoch; starts at 1, bumped by each applied
    /// [`NameRequest::Promote`].
    pub epoch: u64,
}

impl ReplicaSet {
    /// The primary as a [`NodeId`].
    pub fn primary_node(&self) -> NodeId {
        NodeId(self.primary)
    }

    /// The backups as [`NodeId`]s, in promotion order.
    pub fn backup_nodes(&self) -> Vec<NodeId> {
        self.backups.iter().map(|&n| NodeId(n)).collect()
    }
}

/// Errors surfaced by [`NameClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NameError {
    /// The name is not bound.
    NotFound(String),
    /// Register of an already-bound name.
    AlreadyBound(String),
    /// The name server is unreachable.
    Unavailable(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::NotFound(n) => write!(f, "name {n:?} is not bound"),
            NameError::AlreadyBound(n) => write!(f, "name {n:?} is already bound"),
            NameError::Unavailable(m) => write!(f, "name server unavailable: {m}"),
        }
    }
}

impl std::error::Error for NameError {}

/// The name server: a flat, ordered map of user names to sysnames.
#[derive(Default)]
pub struct NameServer {
    bindings: RwLock<BTreeMap<String, SysName>>,
    /// Per-segment replica sets for segments stored redundantly across
    /// data servers. Separate from `bindings`: these map *sysnames* to
    /// homes, not user names to sysnames.
    replicas: RwLock<BTreeMap<SysName, ReplicaSet>>,
    /// Keeps the node's transport (and the endpoint bound to it) alive
    /// for as long as the service exists.
    _ratp: Option<Arc<RatpNode>>,
}

impl fmt::Debug for NameServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameServer")
            .field("bindings", &self.bindings.read().len())
            .finish()
    }
}

impl NameServer {
    /// Create the server and register its RaTP service on this node.
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<NameServer> {
        let server = Arc::new(NameServer {
            _ratp: Some(Arc::clone(ratp)),
            ..Default::default()
        });
        let handler = Arc::clone(&server);
        ratp.register_service(NAMING_PORT, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<NameRequest>(&req.payload) {
                Ok(message) => handler.handle(message),
                Err(_) => NameReply::Bad,
            };
            bytes::Bytes::from(clouds_codec::to_bytes(&reply).expect("reply encodes"))
        });
        server
    }

    fn handle(&self, req: NameRequest) -> NameReply {
        match req {
            NameRequest::Register { name, sysname } => {
                let mut b = self.bindings.write();
                if let std::collections::btree_map::Entry::Vacant(e) = b.entry(name) {
                    e.insert(sysname);
                    NameReply::Ok
                } else {
                    NameReply::AlreadyBound
                }
            }
            NameRequest::Lookup { name } => match self.bindings.read().get(&name) {
                Some(s) => NameReply::Sysname(*s),
                None => NameReply::NotFound,
            },
            NameRequest::Unregister { name } => match self.bindings.write().remove(&name) {
                Some(_) => NameReply::Ok,
                None => NameReply::NotFound,
            },
            NameRequest::List { prefix } => NameReply::Names(
                self.bindings
                    .read()
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), *v))
                    .collect(),
            ),
            NameRequest::RegisterReplicas {
                seg,
                primary,
                backups,
            } => {
                let mut r = self.replicas.write();
                if let std::collections::btree_map::Entry::Vacant(e) = r.entry(seg) {
                    let set = ReplicaSet {
                        primary,
                        backups,
                        epoch: 1,
                    };
                    e.insert(set.clone());
                    NameReply::Replicas(set)
                } else {
                    NameReply::AlreadyBound
                }
            }
            NameRequest::LookupReplicas { seg } => match self.replicas.read().get(&seg) {
                Some(set) => NameReply::Replicas(set.clone()),
                None => NameReply::NotFound,
            },
            NameRequest::Promote {
                seg,
                new_primary,
                epoch,
            } => match self.replicas.write().get_mut(&seg) {
                None => NameReply::NotFound,
                Some(set) => {
                    // Epoch fencing makes re-homing idempotent: only a
                    // strictly newer epoch changes anything, so duplicate
                    // promotion messages (retransmits, two monitors
                    // racing to the same verdict) converge on one
                    // winner. The demoted primary stays in the set as a
                    // backup — a restarted machine can be re-promoted.
                    if epoch > set.epoch {
                        if set.primary != new_primary {
                            let old = set.primary;
                            set.backups.retain(|&b| b != new_primary);
                            set.backups.push(old);
                            set.primary = new_primary;
                        }
                        set.epoch = epoch;
                    }
                    NameReply::Replicas(set.clone())
                }
            },
        }
    }

    /// The directory's current replica set for `seg`, if registered
    /// (diagnostics and co-located callers).
    pub fn replica_set(&self, seg: SysName) -> Option<ReplicaSet> {
        self.replicas.read().get(&seg).cloned()
    }

    /// Number of bindings (diagnostics).
    pub fn len(&self) -> usize {
        self.bindings.read().len()
    }

    /// Whether the server holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.read().is_empty()
    }
}

/// Client stub for the name server.
#[derive(Clone)]
pub struct NameClient {
    ratp: Arc<RatpNode>,
    server: NodeId,
}

impl fmt::Debug for NameClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameClient")
            .field("server", &self.server)
            .finish()
    }
}

impl NameClient {
    /// A client that talks to the name server on `server`.
    pub fn new(ratp: &Arc<RatpNode>, server: NodeId) -> NameClient {
        NameClient {
            ratp: Arc::clone(ratp),
            server,
        }
    }

    fn call(&self, req: &NameRequest) -> Result<NameReply, NameError> {
        let payload = bytes::Bytes::from(clouds_codec::to_bytes(req).expect("request encodes"));
        match self.ratp.call(self.server, NAMING_PORT, payload) {
            Ok(bytes) => clouds_codec::from_bytes(&bytes)
                .map_err(|e| NameError::Unavailable(format!("bad reply: {e}"))),
            Err(CallError::TimedOut) => Err(NameError::Unavailable("name server timed out".into())),
            Err(e) => Err(NameError::Unavailable(e.to_string())),
        }
    }

    /// Bind a user name to a sysname.
    ///
    /// # Errors
    ///
    /// [`NameError::AlreadyBound`] if taken, [`NameError::Unavailable`]
    /// on transport failure.
    pub fn register(&self, name: &str, sysname: SysName) -> Result<(), NameError> {
        match self.call(&NameRequest::Register {
            name: name.to_string(),
            sysname,
        })? {
            NameReply::Ok => Ok(()),
            NameReply::AlreadyBound => Err(NameError::AlreadyBound(name.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Translate a user name to its sysname (the `bind` of §2.4).
    ///
    /// # Errors
    ///
    /// [`NameError::NotFound`] if unbound, [`NameError::Unavailable`]
    /// on transport failure.
    pub fn lookup(&self, name: &str) -> Result<SysName, NameError> {
        match self.call(&NameRequest::Lookup {
            name: name.to_string(),
        })? {
            NameReply::Sysname(s) => Ok(s),
            NameReply::NotFound => Err(NameError::NotFound(name.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Remove a binding.
    ///
    /// # Errors
    ///
    /// [`NameError::NotFound`] if unbound, [`NameError::Unavailable`]
    /// on transport failure.
    pub fn unregister(&self, name: &str) -> Result<(), NameError> {
        match self.call(&NameRequest::Unregister {
            name: name.to_string(),
        })? {
            NameReply::Ok => Ok(()),
            NameReply::NotFound => Err(NameError::NotFound(name.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// List bindings whose names start with `prefix`.
    ///
    /// # Errors
    ///
    /// [`NameError::Unavailable`] on transport failure.
    pub fn list(&self, prefix: &str) -> Result<Vec<(String, SysName)>, NameError> {
        match self.call(&NameRequest::List {
            prefix: prefix.to_string(),
        })? {
            NameReply::Names(names) => Ok(names),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Record `seg`'s replica set (epoch 1).
    ///
    /// # Errors
    ///
    /// [`NameError::AlreadyBound`] if the segment already has a set,
    /// [`NameError::Unavailable`] on transport failure.
    pub fn register_replicas(
        &self,
        seg: SysName,
        primary: NodeId,
        backups: &[NodeId],
    ) -> Result<ReplicaSet, NameError> {
        match self.call(&NameRequest::RegisterReplicas {
            seg,
            primary: primary.0,
            backups: backups.iter().map(|n| n.0).collect(),
        })? {
            NameReply::Replicas(set) => Ok(set),
            NameReply::AlreadyBound => Err(NameError::AlreadyBound(seg.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Fetch `seg`'s current replica set.
    ///
    /// # Errors
    ///
    /// [`NameError::NotFound`] if the segment has no set,
    /// [`NameError::Unavailable`] on transport failure.
    pub fn lookup_replicas(&self, seg: SysName) -> Result<ReplicaSet, NameError> {
        match self.call(&NameRequest::LookupReplicas { seg })? {
            NameReply::Replicas(set) => Ok(set),
            NameReply::NotFound => Err(NameError::NotFound(seg.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Re-home `seg` onto `new_primary` at `epoch`, returning the set as
    /// the directory records it afterwards — unchanged if the epoch was
    /// stale (idempotent duplicate).
    ///
    /// # Errors
    ///
    /// [`NameError::NotFound`] if the segment has no set,
    /// [`NameError::Unavailable`] on transport failure.
    pub fn promote(
        &self,
        seg: SysName,
        new_primary: NodeId,
        epoch: u64,
    ) -> Result<ReplicaSet, NameError> {
        match self.call(&NameRequest::Promote {
            seg,
            new_primary: new_primary.0,
            epoch,
        })? {
            NameReply::Replicas(set) => Ok(set),
            NameReply::NotFound => Err(NameError::NotFound(seg.to_string())),
            other => Err(NameError::Unavailable(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a first call arriving well after boot is the regression"
)]
mod tests {
    use super::*;
    use clouds_ratp::RatpConfig;
    use clouds_simnet::{CostModel, Network};

    fn bed() -> (Network, Arc<NameServer>, NameClient) {
        let net = Network::new(CostModel::zero());
        let sn = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let server = NameServer::install(&sn);
        let cn = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        let client = NameClient::new(&cn, NodeId(1));
        (net, server, client)
    }

    fn s(n: u64) -> SysName {
        SysName::from_parts(5, n)
    }

    #[test]
    fn register_lookup_unregister() {
        let (_net, server, client) = bed();
        client.register("Rect01", s(1)).unwrap();
        assert_eq!(client.lookup("Rect01").unwrap(), s(1));
        assert_eq!(server.len(), 1);
        client.unregister("Rect01").unwrap();
        assert!(matches!(
            client.lookup("Rect01"),
            Err(NameError::NotFound(_))
        ));
        assert!(server.is_empty());
    }

    #[test]
    fn double_register_rejected() {
        let (_net, _server, client) = bed();
        client.register("X", s(1)).unwrap();
        assert!(matches!(
            client.register("X", s(2)),
            Err(NameError::AlreadyBound(_))
        ));
        // Original binding intact.
        assert_eq!(client.lookup("X").unwrap(), s(1));
    }

    #[test]
    fn unregister_missing_is_not_found() {
        let (_net, _server, client) = bed();
        assert!(matches!(
            client.unregister("ghost"),
            Err(NameError::NotFound(_))
        ));
    }

    #[test]
    fn service_keeps_transport_alive() {
        // Regression test: `bed()` drops its local Arc<RatpNode>; the
        // NameServer must keep the transport alive (frames for a dropped
        // one are dropped), even when the first call arrives much later.
        for i in 0..3 {
            let (_net, _server, client) = bed();
            std::thread::sleep(std::time::Duration::from_millis(60));
            client
                .register("probe", s(1))
                .unwrap_or_else(|e| panic!("bed {i}: {e}"));
        }
    }

    #[test]
    fn list_by_prefix() {
        let (_net, _server, client) = bed();
        client.register("app/a", s(1)).unwrap();
        client.register("app/b", s(2)).unwrap();
        client.register("sys/x", s(3)).unwrap();
        let apps = client.list("app/").unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].0, "app/a");
        assert_eq!(apps[1].0, "app/b");
        let all = client.list("").unwrap();
        assert_eq!(all.len(), 3);
        assert!(client.list("zzz").unwrap().is_empty());
    }

    #[test]
    fn replica_set_register_lookup() {
        let (_net, server, client) = bed();
        let seg = s(7);
        let set = client
            .register_replicas(seg, NodeId(100), &[NodeId(101), NodeId(102)])
            .unwrap();
        assert_eq!(set.primary_node(), NodeId(100));
        assert_eq!(set.backup_nodes(), vec![NodeId(101), NodeId(102)]);
        assert_eq!(set.epoch, 1);
        assert_eq!(client.lookup_replicas(seg).unwrap(), set);
        assert_eq!(server.replica_set(seg).unwrap(), set);
        // A second registration is refused, the first is intact.
        assert!(matches!(
            client.register_replicas(seg, NodeId(103), &[]),
            Err(NameError::AlreadyBound(_))
        ));
        assert_eq!(client.lookup_replicas(seg).unwrap().primary, 100);
        // Unknown segments have no set.
        assert!(matches!(
            client.lookup_replicas(s(8)),
            Err(NameError::NotFound(_))
        ));
    }

    #[test]
    fn promotion_is_idempotent_under_duplicates() {
        let (_net, _server, client) = bed();
        let seg = s(9);
        client
            .register_replicas(seg, NodeId(100), &[NodeId(101), NodeId(102)])
            .unwrap();

        // First promotion wins: backup 101 becomes primary at epoch 2,
        // the demoted primary joins the backups.
        let set = client.promote(seg, NodeId(101), 2).unwrap();
        assert_eq!(set.primary_node(), NodeId(101));
        assert_eq!(set.backup_nodes(), vec![NodeId(102), NodeId(100)]);
        assert_eq!(set.epoch, 2);

        // The same promotion delivered again (retransmit, or a second
        // monitor reaching the same verdict): byte-identical outcome.
        let dup = client.promote(seg, NodeId(101), 2).unwrap();
        assert_eq!(dup, set);

        // A *stale* promotion (lower epoch, different target) is fenced
        // off entirely — the directory does not regress.
        let stale = client.promote(seg, NodeId(102), 2).unwrap();
        assert_eq!(stale, set);
        let staler = client.promote(seg, NodeId(100), 1).unwrap();
        assert_eq!(staler, set);

        // A newer epoch can re-home again, including back onto the
        // original (restarted) primary.
        let back = client.promote(seg, NodeId(100), 3).unwrap();
        assert_eq!(back.primary_node(), NodeId(100));
        assert_eq!(back.epoch, 3);
        assert_eq!(back.backup_nodes(), vec![NodeId(102), NodeId(101)]);

        // Promoting an unknown segment is NotFound, not a silent create.
        assert!(matches!(
            client.promote(s(10), NodeId(100), 5),
            Err(NameError::NotFound(_))
        ));
    }

    #[test]
    fn lookup_on_dead_server_is_unavailable() {
        let net = Network::new(CostModel::zero());
        let _sn = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let cn = RatpNode::spawn(
            net.register(NodeId(2)).unwrap(),
            RatpConfig {
                max_retries: 3,
                retry_interval: std::time::Duration::from_millis(5),
            },
        );
        let client = NameClient::new(&cn, NodeId(1));
        net.crash(NodeId(1));
        assert!(matches!(client.lookup("x"), Err(NameError::Unavailable(_))));
    }
}
