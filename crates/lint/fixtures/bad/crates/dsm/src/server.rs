//! Fixture: a DSM server handler seeding one violation per
//! inter-procedural rule family, each scoped so it trips *only* its own
//! rule:
//!
//! * `WriteBack` — fenced (by the prologue: the fence map in
//!   `proto.rs` names its segment), mutates, acks `Ok`, never logs
//!   → **wal-before-ack** (and nothing else);
//! * `FetchPage` — the fence map sends it to `None` and its arm
//!   touches the store with no fence on any path
//!   → **fence-before-apply**;
//! * `FetchPages` — also `None` in the map; fenced in its own arm, but
//!   applies its release list first
//!   → **fence-before-apply** (the ordering form);
//! * `flush_dirty` — stripe guard held across a blocking `.call(…)`
//!   → **lock-across-call**;
//! * the `lint:allow(wall-clock)` below anchors a line that produces no
//!   wall-clock finding → **stale-allow**;
//! * `AdoptReplicaConfig` has no arm → **dispatch-arm**.
//!
//! `MirrorPage` delegates to `apply_mirror`, which fences, mutates,
//! logs, and acks correctly — pinning that phase-2 propagation clears
//! an arm whose obligations are met inside a callee.

use crate::proto::{DsmReply, DsmRequest};

pub struct DsmServer {
    store: Store,
    log: Log,
    ratp: Ratp,
    dirty: parking_lot::Mutex<Vec<u32>>,
}

impl DsmServer {
    pub fn dispatch(&self, req: DsmRequest) -> DsmReply {
        if let Some(seg) = req.fenced_segment() {
            if !self.check_serving(seg) {
                return DsmReply::Err("not serving".to_string());
            }
        }
        match req {
            DsmRequest::FetchPage { seg, page } => {
                // The prologue's fence does not cover this variant and
                // no other path has one: a demoted replica would serve
                // the read.
                let version = self.store.read_version(seg, page);
                DsmReply::Grant { version }
            }
            DsmRequest::FetchPages { seg, first, release } => {
                // Drops the evicted copies, *then* finds out whether it
                // still serves the segment.
                for page in release {
                    self.forget_copy(seg, page);
                }
                if !self.check_serving(seg) {
                    return DsmReply::Err("not serving".to_string());
                }
                let version = self.store.read_version(seg, first);
                DsmReply::Grant { version }
            }
            DsmRequest::WriteBack { seg, page } => {
                // Mutates and acks, but no path reaches log.append:
                // crash recovery cannot replay this write.
                self.store.write_page(seg, page);
                DsmReply::Ok
            }
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
            DsmRequest::MirrorPage { seg, page } => self.apply_mirror(seg, page),
            DsmRequest::Promote { seg, epoch } => {
                // lint:allow(wall-clock) — stale: nothing here has ever
                // read a wall clock.
                self.log.append(seg + epoch);
                DsmReply::Ok
            }
        }
    }

    /// Correct end-to-end: fence, mutate, log, ack — reached only
    /// through the `MirrorPage` arm, so the rules must propagate.
    fn apply_mirror(&self, seg: u64, page: u32) -> DsmReply {
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

    /// Stripe guard live across a blocking RaTP call.
    fn flush_dirty(&self) {
        let dirty = self.dirty.lock();
        for page in dirty.iter() {
            self.ratp.call(*page);
        }
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
