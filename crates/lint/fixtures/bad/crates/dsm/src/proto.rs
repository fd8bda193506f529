//! Fixture: the DSM wire protocol with the PR-6/PR-8 replication
//! variants. The handler in `server.rs` omits `AdoptReplicaConfig` —
//! the dispatch-arm rule must name it.

pub enum DsmRequest {
    FetchPage { seg: u64, page: u32 },
    FetchPages { seg: u64, first: u32, release: Vec<u32> },
    WriteBack { seg: u64, page: u32 },
    CreateReplicated { seg: u64 },
    MirrorCreate { seg: u64 },
    MirrorPage { seg: u64, page: u32 },
    Promote { seg: u64, epoch: u64 },
    AdoptReplicaConfig { seg: u64, epoch: u64 },
}

impl DsmRequest {
    /// The segment the handler fences ahead of its match. `FetchPage`
    /// was decided wrong: its arm reads the store.
    pub fn fenced_segment(&self) -> Option<u64> {
        match self {
            DsmRequest::WriteBack { seg, .. } => Some(*seg),
            DsmRequest::FetchPage { .. } | DsmRequest::FetchPages { .. } => None,
            DsmRequest::CreateReplicated { .. }
            | DsmRequest::MirrorCreate { .. }
            | DsmRequest::MirrorPage { .. }
            | DsmRequest::Promote { .. }
            | DsmRequest::AdoptReplicaConfig { .. } => None,
        }
    }
}

pub enum DsmReply {
    Ok,
    Grant { version: u64 },
    Err(String),
}
