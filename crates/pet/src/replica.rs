//! Replicated objects: one logical object, `r` physical instances on
//! data servers with independent failure modes.

use clouds::{CloudsError, ComputeServer};
use clouds_ra::SysName;
use clouds_simnet::NodeId;
use serde::{Deserialize, Serialize};

/// One physical replica of a replicated object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaInfo {
    /// The replica object's sysname.
    pub sysname: SysName,
    /// The data server that homes *all* of the replica's segments.
    pub home: u32,
    /// The replica's persistent data segment.
    pub data_seg: SysName,
    /// The replica's persistent heap segment.
    pub heap_seg: SysName,
}

impl ReplicaInfo {
    /// The home data server's node id.
    pub fn home_node(&self) -> NodeId {
        NodeId(self.home)
    }
}

/// A logical object realized as `r` co-class replicas.
///
/// All replicas share the class, so their segment layouts are
/// identical: a page image produced against one replica's data segment
/// applies verbatim to another's — which is what makes the terminating
/// PET's update propagation possible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicatedObject {
    /// The replicas, in placement order.
    pub replicas: Vec<ReplicaInfo>,
    /// The class every replica instantiates.
    pub class: String,
}

impl ReplicatedObject {
    /// Create `degree` replicas of `class`, placing replica `i` wholly
    /// on the cluster's data server `i mod |data servers|`.
    ///
    /// "The PET system works by first replicating all critical objects
    /// at different nodes in the system. The degree of replication is
    /// dependent on the degree of resilience required."
    ///
    /// # Errors
    ///
    /// Unknown class or storage failures.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn create(
        compute: &ComputeServer,
        class: &str,
        degree: usize,
    ) -> Result<ReplicatedObject, CloudsError> {
        assert!(degree > 0, "a replicated object needs at least one replica");
        let data_servers: Vec<NodeId> = compute.dsm().data_servers().to_vec();
        let mut replicas = Vec::with_capacity(degree);
        for i in 0..degree {
            let home = data_servers[i % data_servers.len()];
            let sysname = compute.create_object(class, None, Some(home))?;
            let meta =
                clouds::object::ObjectMeta::load(&**compute.object_manager().partition(), sysname)?;
            replicas.push(ReplicaInfo {
                sysname,
                home: home.0,
                data_seg: meta.data_seg,
                heap_seg: meta.heap_seg,
            });
        }
        Ok(ReplicatedObject {
            replicas,
            class: class.to_string(),
        })
    }

    /// Replication degree.
    pub fn degree(&self) -> usize {
        self.replicas.len()
    }

    /// Replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn replica(&self, i: usize) -> &ReplicaInfo {
        &self.replicas[i]
    }

    /// Translate a segment of replica `from` into the corresponding
    /// segment of replica `to` (same layout, different sysnames).
    /// Returns `None` if `seg` is not one of `from`'s segments.
    pub fn translate_segment(&self, from: usize, to: usize, seg: SysName) -> Option<SysName> {
        let f = &self.replicas[from];
        let t = &self.replicas[to];
        if seg == f.data_seg {
            Some(t.data_seg)
        } else if seg == f.heap_seg {
            Some(t.heap_seg)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(n: u64, home: u32) -> ReplicaInfo {
        ReplicaInfo {
            sysname: SysName::from_parts(1, n),
            home,
            data_seg: SysName::from_parts(2, n),
            heap_seg: SysName::from_parts(3, n),
        }
    }

    #[test]
    fn segment_translation() {
        let robj = ReplicatedObject {
            replicas: vec![info(1, 100), info(2, 101)],
            class: "x".into(),
        };
        assert_eq!(
            robj.translate_segment(0, 1, SysName::from_parts(2, 1)),
            Some(SysName::from_parts(2, 2))
        );
        assert_eq!(
            robj.translate_segment(0, 1, SysName::from_parts(3, 1)),
            Some(SysName::from_parts(3, 2))
        );
        assert_eq!(
            robj.translate_segment(0, 1, SysName::from_parts(9, 9)),
            None
        );
    }

    #[test]
    fn serde_roundtrip() {
        let robj = ReplicatedObject {
            replicas: vec![info(1, 100)],
            class: "tally".into(),
        };
        let bytes = clouds_codec::to_bytes(&robj).unwrap();
        let back: ReplicatedObject = clouds_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, robj);
    }
}
