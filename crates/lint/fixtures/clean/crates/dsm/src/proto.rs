//! Fixture: the DSM wire protocol, every variant of which is handled
//! correctly in `server.rs`.

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
    /// The segment the handler fences ahead of its match.
    pub fn fenced_segment(&self) -> Option<u64> {
        match self {
            DsmRequest::FetchPage { seg, .. } | DsmRequest::FetchPages { seg, .. } => Some(*seg),
            DsmRequest::WriteBack { .. } | DsmRequest::MirrorPage { .. } => None,
            DsmRequest::CreateReplicated { .. }
            | DsmRequest::MirrorCreate { .. }
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
