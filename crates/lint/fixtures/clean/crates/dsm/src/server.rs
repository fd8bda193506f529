//! Fixture: a DSM server handler that satisfies all three
//! inter-procedural rule families — every arm handled, every durable
//! mutation fenced and logged before its ack, no guard held across a
//! blocking call (dirty pages are drained under the lock, sent after
//! releasing it), and the one `lint:allow` present suppresses a live
//! finding, so stale-allow stays quiet too.
//!
//! The handler has the workspace's shape: `handle` is a wrapper, the
//! match lives in `dispatch`, and the fetch arms carry no fence of
//! their own — the prologue runs it for the segment
//! `DsmRequest::fenced_segment` (in `proto.rs`) names. `WriteBack` and
//! `MirrorPage`, which the map sends to `None`, are fenced in their
//! callee instead.

use crate::proto::{DsmReply, DsmRequest};

pub struct DsmServer {
    store: Store,
    log: Log,
    ratp: Ratp,
    dirty: parking_lot::Mutex<Vec<u32>>,
    wake_tx: Sender,
}

impl DsmServer {
    pub fn handle(&self, req: DsmRequest) -> DsmReply {
        self.dispatch(req)
    }

    fn dispatch(&self, req: DsmRequest) -> DsmReply {
        if let Some(seg) = req.fenced_segment() {
            if !self.check_serving(seg) {
                return DsmReply::Err("not serving".to_string());
            }
        }
        match req {
            DsmRequest::FetchPage { seg, page } => {
                let version = self.store.read_version(seg, page);
                DsmReply::Grant { version }
            }
            DsmRequest::FetchPages { seg, first, release } => {
                // The release list riding on the fetch: behind the
                // prologue's fence by construction.
                for page in release {
                    self.forget_copy(seg, page);
                }
                let version = self.store.read_version(seg, first);
                DsmReply::Grant { version }
            }
            DsmRequest::WriteBack { seg, page } => self.apply_write(seg, page),
            DsmRequest::CreateReplicated { seg } => {
                self.store.create(seg);
                self.log.append(seg);
                DsmReply::Ok
            }
            DsmRequest::MirrorCreate { seg } => {
                self.store.create(seg);
                self.log.append(seg);
                DsmReply::Ok
            }
            DsmRequest::MirrorPage { seg, page } => self.apply_write(seg, page),
            DsmRequest::Promote { seg, epoch } => {
                self.log.append(seg + epoch);
                DsmReply::Ok
            }
            DsmRequest::AdoptReplicaConfig { seg, epoch } => {
                self.log.append(seg + epoch);
                DsmReply::Ok
            }
        }
    }

    /// Fence, mutate, log, ack — the full discipline.
    fn apply_write(&self, seg: u64, page: u32) -> DsmReply {
        if !self.check_serving(seg) {
            return DsmReply::Err("not serving".to_string());
        }
        self.store.write_page(seg, page);
        self.log.append(seg);
        DsmReply::Ok
    }

    fn check_serving(&self, seg: u64) -> bool {
        seg != 0
    }

    fn forget_copy(&self, _seg: u64, _page: u32) {}

    /// Drain under the lock, call after releasing it.
    fn flush_dirty(&self) {
        let drained: Vec<u32> = {
            let mut dirty = self.dirty.lock();
            dirty.drain(..).collect()
        };
        for page in drained {
            self.ratp.call(page);
        }
    }

    /// A *used* allow: the send really is under the guard, the
    /// suppression is live, and stale-allow must not fire on it.
    fn nudge(&self) {
        let dirty = self.dirty.lock();
        // lint:allow(lock-across-call) — wake_tx is unbounded; send never blocks.
        self.wake_tx.send(dirty.first());
    }
}

pub struct Store;
impl Store {
    pub fn read_version(&self, _seg: u64, _page: u32) -> u64 {
        0
    }
    pub fn write_page(&self, _seg: u64, _page: u32) {}
    pub fn create(&self, _seg: u64) {}
}

pub struct Log;
impl Log {
    pub fn append(&self, _rec: u64) {}
}

pub struct Ratp;
impl Ratp {
    pub fn call(&self, _page: u32) {}
}

pub struct Sender;
impl Sender {
    pub fn send(&self, _v: Option<&u32>) {}
}
