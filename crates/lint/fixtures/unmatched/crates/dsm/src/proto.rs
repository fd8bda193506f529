//! Fixture: a two-variant DSM wire protocol, both variants handled —
//! by a function the per-arm rules' specs do not name.

pub enum DsmRequest {
    FetchPage { seg: u64, page: u32 },
    WriteBack { seg: u64, page: u32 },
}

pub enum DsmReply {
    Ok,
    Grant { version: u64 },
    Err(String),
}
