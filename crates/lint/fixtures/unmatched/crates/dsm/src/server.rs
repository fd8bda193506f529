//! Fixture: the handler was renamed. The workspace specs name
//! `DsmServer::dispatch`; here the match over `DsmRequest` lives in
//! `DsmServer::serve`, so `wal-before-ack` and `fence-before-apply`
//! find no arm to check. Both arms below break their rule — unfenced
//! read, unlogged acked write — and neither would be seen: the only
//! thing the rules can report, and must, is that their spec matches
//! nothing.

use crate::proto::{DsmReply, DsmRequest};

pub struct DsmServer {
    store: Store,
}

impl DsmServer {
    pub fn serve(&self, req: DsmRequest) -> DsmReply {
        match req {
            DsmRequest::FetchPage { seg, page } => {
                let version = self.store.read_version(seg, page);
                DsmReply::Grant { version }
            }
            DsmRequest::WriteBack { seg, page } => {
                self.store.write_page(seg, page);
                DsmReply::Ok
            }
        }
    }
}

pub struct Store;
impl Store {
    pub fn read_version(&self, _seg: u64, _page: u32) -> u64 {
        0
    }
    pub fn write_page(&self, _seg: u64, _page: u32) {}
}
