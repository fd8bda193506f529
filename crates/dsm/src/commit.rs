//! The 2PC participant half of [`DsmServer`]: the [`ports::COMMIT`]
//! service every data server registers at install, and the recovery
//! call that resolves its staged intents.
//!
//! "The updated segments are written using a 2-phase commit mechanism
//! when the cp-thread completes" (§5.2.1). The coordinator is the
//! committing cp-thread itself (`clouds-consistency`); the participants
//! are the data servers that home the written segments, and the one
//! that hosts the cluster's directory also hosts the outcome registry
//! ([`DsmServer::host_outcome_registry`]).
//!
//! Crash behaviour:
//!
//! * The protocol's tables are the server's own, beside the log that
//!   makes them durable: `Prepare` stages through `stage_intent`, which
//!   appends a `TxnIntent` record before the yes vote; `Commit`/`Abort`
//!   retire through `retire_intent` (`TxnResolved`); and `RecordOutcome`
//!   goes through `record_outcome` (`TxnOutcome`, plus one
//!   `OutcomeSettled` per transaction it settles). Nothing outside this
//!   crate can call them.
//! * [`DsmServer::crash`] wipes both tables with the rest of DRAM, and
//!   the restart's [`DsmServer::recover_from_log`] refills them from the
//!   replay.
//! * Resolving the re-staged transactions is an explicit call,
//!   [`DsmServer::recover_intents`]: it asks the registry for each one —
//!   committed ⇒ install the staged pages; unknown ⇒ presumed abort; no
//!   answer ⇒ still in doubt, kept staged. Restart does not run it.
//! * An intent is retired (table entry and `TxnResolved`) only once its
//!   pages are installed. A participant demoted while it held one
//!   installs through the primary its replica view now names; until
//!   that succeeds the intent stays staged and `Commit` is `Refused`.
//! * The coordinator records the commit decision durably in the registry
//!   *before* sending any `Commit`, so the decision is never lost.
//! * A transaction is *settled* once every participant answered `Ok` to
//!   its `Commit`: each one installed the pages and logged `TxnResolved`,
//!   so no recovery will ask for the verdict again. The coordinator hands
//!   settled transactions to the registry host with its next
//!   `RecordOutcome`, and the host appends `OutcomeSettled` for each and
//!   forgets it. A transaction whose phase 2 did not come back all-`Ok`
//!   keeps its outcome.
//! * Settlement trusts that `Ok` means installed. A crashed participant
//!   therefore refuses a `Commit` it has no intent for while its server
//!   [`DsmServer::needs_replay`]: the intent may be one the log has not
//!   given back yet. For the same reason the registry host refuses
//!   `QueryOutcome` until its outcome table is whole again.

use crate::proto::{self, ports, CommitReply, CommitRequest, WireWriteBack};
use crate::server::DsmServer;
use clouds_simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

impl DsmServer {
    /// Decode one [`ports::COMMIT`] request, serve it, and encode the
    /// reply — the body of the registered service, exposed so a test can
    /// wrap it. The decode shares the request buffer, so a `Prepare`'s
    /// or `ApplyLocal`'s page images are slices of it, not copies.
    ///
    /// This wire is the only way into the write-ahead tables from
    /// outside the crate; the methods behind it are not exported:
    ///
    /// ```compile_fail,E0624
    /// fn stage(s: &clouds_dsm::DsmServer) { s.stage_intent(1, Vec::new()) }
    /// ```
    /// ```compile_fail,E0624
    /// fn retire(s: &clouds_dsm::DsmServer) { s.retire_intent(1) }
    /// ```
    /// ```compile_fail,E0624
    /// fn peek(s: &clouds_dsm::DsmServer) { let _ = s.staged_intent(1); }
    /// ```
    /// ```compile_fail,E0624
    /// fn peek(s: &clouds_dsm::DsmServer) { let _ = s.staged_intents(); }
    /// ```
    /// ```compile_fail,E0624
    /// fn record(s: &clouds_dsm::DsmServer) { s.record_outcome(1, &[]) }
    /// ```
    /// ```compile_fail,E0624
    /// fn install(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName) { let _ = s.commit_page(g, 0, &[]); }
    /// ```
    /// ```compile_fail,E0624
    /// fn fence(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName) { let _ = s.check_serving(g); }
    /// ```
    pub fn serve_commit_wire(&self, payload: &bytes::Bytes) -> bytes::Bytes {
        let reply = proto::decode_shared::<CommitRequest>(payload)
            .map_or(CommitReply::Refused, |message| self.serve(message));
        proto::encode(&reply)
    }

    /// Make this server the cluster's outcome registry: it records and
    /// answers commit decisions, which every other server refuses. A
    /// one-way switch, thrown at boot on the server that hosts the
    /// directory.
    pub fn host_outcome_registry(&self) {
        self.hosts_registry.store(true, Ordering::SeqCst);
    }

    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `CommitRequest` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn serve(&self, req: CommitRequest) -> CommitReply {
        match req {
            CommitRequest::Prepare { txn, pages } => {
                // Validate the pages are installable *here* before voting
                // yes: the segment exists (the fence alone passes for one
                // with no replica entry) and this server serves it.
                for page in &pages {
                    if self.check_serving(page.seg).is_err() || self.store.get(page.seg).is_err() {
                        return CommitReply::Refused;
                    }
                }
                self.stage_intent(txn, pages);
                CommitReply::Ok
            }
            CommitRequest::Commit { txn } => {
                // Read before the table: it clears only once the table is
                // whole again.
                let replaying = self.needs_replay();
                match self.staged_intent(txn) {
                    Some(pages) => {
                        let reply = self.install_decided(txn, &pages);
                        if reply == CommitReply::Ok {
                            self.retire_intent(txn);
                        }
                        reply
                    }
                    // Not staged here: a duplicate commit (retransmission
                    // after apply) — unless the table is lost, when it may
                    // be an intent the log has not given back yet.
                    None if replaying => CommitReply::Refused,
                    None => CommitReply::Ok,
                }
            }
            CommitRequest::Abort { txn } => {
                self.retire_intent(txn);
                CommitReply::Ok
            }
            CommitRequest::ApplyLocal { txn: _, pages } => {
                if pages
                    .iter()
                    .all(|p| self.commit_page(p.seg, p.page, &p.data).is_ok())
                {
                    CommitReply::Ok
                } else {
                    CommitReply::Refused
                }
            }
            CommitRequest::RecordOutcome { txn, settled } => {
                if !self.hosts_registry.load(Ordering::SeqCst) {
                    return CommitReply::Refused;
                }
                // The decision itself is what must survive the host's
                // crash: it is logged before the coordinator hears `Ok`.
                self.record_outcome(txn, &settled);
                CommitReply::Ok
            }
            CommitRequest::QueryOutcome { txn } => self.verdict(txn),
        }
    }

    /// The registry's answer for `txn`: `Refused` unless this server
    /// hosts the registry and its outcome table is whole (read before
    /// the table, as `Commit` does).
    fn verdict(&self, txn: u64) -> CommitReply {
        if !self.hosts_registry.load(Ordering::SeqCst) || self.needs_replay() {
            CommitReply::Refused
        } else if self.outcome_committed(txn) {
            CommitReply::Committed
        } else {
            CommitReply::Unknown
        }
    }

    /// Install a decided transaction's staged pages: here, or — where a
    /// promotion passed this server by since the prepare and the fence
    /// refuses — through the primary its replica view now names, as an
    /// `ApplyLocal` (idempotent: the same image again only bumps the
    /// version). `Ok` only once every page is installed.
    fn install_decided(&self, txn: u64, pages: &[WireWriteBack]) -> CommitReply {
        let me = self.node_id();
        let mut elsewhere: BTreeMap<NodeId, Vec<WireWriteBack>> = BTreeMap::new();
        for page in pages {
            let here = self.commit_page(page.seg, page.page, &page.data);
            if here.is_ok() {
                continue;
            }
            match self.replica_view(page.seg) {
                Some((members, _)) if members.first().is_some_and(|p| *p != me) => {
                    elsewhere.entry(members[0]).or_default().push(page.clone());
                }
                _ => return CommitReply::Refused,
            }
        }
        for (primary, pages) in elsewhere {
            let req = CommitRequest::ApplyLocal { txn, pages };
            if self.ask(primary, &req) != Some(CommitReply::Ok) {
                return CommitReply::Refused;
            }
        }
        CommitReply::Ok
    }

    /// Crash recovery: resolve the staged transactions against the
    /// outcome registry at `registry`. A committed transaction is
    /// installed, an `Unknown` one presumed aborted. One the registry
    /// gives no verdict for — no answer, or `Refused` — is still in
    /// doubt and stays staged, as does a committed one whose install is
    /// refused. Nothing runs this for a server: a harness calls it after
    /// the restart's replay has re-staged the intents.
    ///
    /// Returns `(installed, aborted)` transaction counts.
    pub fn recover_intents(&self, registry: NodeId) -> (usize, usize) {
        let mut installed = 0;
        let mut aborted = 0;
        for (txn, pages) in self.staged_intents() {
            let verdict = if self.hosts_registry.load(Ordering::SeqCst) {
                Some(self.verdict(txn))
            } else {
                self.ask(registry, &CommitRequest::QueryOutcome { txn })
            };
            match verdict {
                Some(CommitReply::Unknown) => aborted += 1,
                Some(CommitReply::Committed) => {
                    if self.install_decided(txn, &pages) != CommitReply::Ok {
                        // The only copy of a committed transaction: keep it.
                        continue;
                    }
                    installed += 1;
                }
                // No verdict: the transaction is in doubt, keep it.
                _ => continue,
            }
            self.retire_intent(txn);
        }
        (installed, aborted)
    }

    /// One commit-protocol call from this server; `None` if the peer did
    /// not answer.
    fn ask(&self, node: NodeId, req: &CommitRequest) -> Option<CommitReply> {
        let reply = self
            .ratp
            .call(node, ports::COMMIT, proto::encode(req))
            .ok()?;
        proto::decode(&reply).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use clouds_codec::PageBytes;
    use clouds_ra::SysName;
    use serde::Serialize;

    /// `WireWriteBack` as it was with a `Vec<u8>` image.
    #[derive(Serialize)]
    struct VecImage {
        seg: SysName,
        page: u32,
        data: Vec<u8>,
    }

    /// `CommitRequest`'s first four variants, in order, with `Vec<u8>`
    /// images: the tag is the variant index.
    #[derive(Serialize)]
    enum VecRequest {
        Prepare { txn: u64, pages: Vec<VecImage> },
        _Commit { txn: u64 },
        _Abort { txn: u64 },
        ApplyLocal { txn: u64, pages: Vec<VecImage> },
    }

    fn images() -> (Vec<WireWriteBack>, Vec<VecImage>) {
        (0..2u32)
            .map(|page| {
                let seg = SysName::from_parts(7, u64::from(page));
                let data: Vec<u8> = (0..8192)
                    .map(|i| (i * 31 % 251) as u8 ^ page as u8)
                    .collect();
                (
                    WireWriteBack {
                        seg,
                        page,
                        data: PageBytes::from(data.clone()),
                    },
                    VecImage { seg, page, data },
                )
            })
            .unzip()
    }

    #[test]
    fn page_images_encode_like_vec_u8_and_decode_as_slices_of_the_request() {
        for apply in [false, true] {
            let (pages, twin) = images();
            let (req, twin) = if apply {
                let req = CommitRequest::ApplyLocal { txn: 9, pages };
                (
                    req,
                    VecRequest::ApplyLocal {
                        txn: 9,
                        pages: twin,
                    },
                )
            } else {
                let req = CommitRequest::Prepare { txn: 9, pages };
                (
                    req,
                    VecRequest::Prepare {
                        txn: 9,
                        pages: twin,
                    },
                )
            };
            let wire = Bytes::from(clouds_codec::to_bytes(&req).unwrap());
            assert_eq!(
                wire,
                clouds_codec::to_bytes(&twin).unwrap(),
                "apply={apply}"
            );

            // Decoded as the participant's service does.
            let (CommitRequest::Prepare { pages, .. } | CommitRequest::ApplyLocal { pages, .. }) =
                clouds_codec::from_bytes_shared(&wire).unwrap()
            else {
                panic!("apply={apply}: decoded another variant");
            };
            let base = wire.as_ptr() as usize;
            for (page, sent) in pages.iter().zip(&images().0) {
                assert_eq!(page.data, sent.data);
                let ptr = page.data.as_ptr() as usize;
                assert!(
                    ptr >= base && ptr + page.data.len() <= base + wire.len(),
                    "apply={apply}: page {} must alias the request buffer, not a copy",
                    page.page
                );
            }
        }
    }
}
