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
//! * The protocol's tables are the log's live records: `Prepare` appends
//!   a `TxnIntent` before the yes vote; `Commit`/`Abort` retire it with
//!   [`clouds_store::LogStore::resolve_intent`] (`TxnResolved`, if it is
//!   pending); and `Decide` appends the txn's first verdict, a
//!   `TxnOutcome`, plus one `OutcomeSettled` per transaction it settles.
//!   Nothing outside this crate can append to the log.
//! * [`DsmServer::crash`] takes the log's index, and with it both
//!   tables; the restart's [`DsmServer::recover_from_log`] replay brings
//!   them back.
//! * A verdict is decided once, at the registry: the first `Decide` for a
//!   txn logs its proposal before it is answered, and every later one is
//!   answered with it ([`clouds_store::LogStore::decide`]). The
//!   coordinator proposes commit once every participant voted yes.
//!   [`DsmServer::recover_intents`] proposes abort for each replayed
//!   intent and installs or drops its pages on the answer; no answer ⇒
//!   still in doubt, kept staged. Restart does not run it.
//! * An intent is retired (`TxnResolved`) only once its pages are
//!   installed. A participant demoted while it held one
//!   installs through the primary its replica view now names; until
//!   that succeeds the intent stays staged and `Commit` is `Refused`.
//! * A transaction is *settled* once every participant answered `Ok` to
//!   its `Commit` or `Abort`: each one resolved its intent, so no
//!   recovery will ask for the verdict again. The coordinator hands
//!   settled transactions to the registry host with its next `Decide`,
//!   and the host appends `OutcomeSettled` for each and forgets it. A
//!   transaction whose phase 2 did not come back all-`Ok` keeps its
//!   verdict.
//! * Settlement trusts that `Ok` means resolved. A crashed participant
//!   therefore refuses a `Commit` or an `Abort` while its log is not
//!   replayed ([`DsmServer::needs_replay`]): the intent may be one the
//!   log has not given back yet. For the same reason the registry host
//!   refuses `Decide` until then.

use crate::proto::{self, ports, CommitReply, CommitRequest, WireWriteBack};
use crate::server::DsmServer;
use clouds_codec::PageBytes;
use clouds_simnet::NodeId;
use clouds_store::{Crashed, IntentPage, LogRecord};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

impl DsmServer {
    /// Decode one [`ports::COMMIT`] request, serve it, and encode the
    /// reply — the body of the registered service, exposed so a test can
    /// wrap it. The decode shares the request buffer, so a `Prepare`'s
    /// or `ApplyLocal`'s page images are slices of it, not copies.
    ///
    /// This wire is the only way into the write-ahead tables from
    /// outside the crate. They are the log's records, and the log a
    /// server hands out is its read side ([`DsmServer::log`]), so
    /// nothing else can append, retire or change a record:
    ///
    /// ```compile_fail,E0599
    /// use clouds_store::LogRecord;
    /// fn stage(s: &clouds_dsm::DsmServer) { s.log().append(LogRecord::TxnOutcome { txn: 1, commit: true }) }
    /// ```
    /// ```compile_fail,E0599
    /// fn decide(s: &clouds_dsm::DsmServer) { let _ = s.log().decide(1, true); }
    /// ```
    /// ```compile_fail,E0599
    /// fn retire(s: &clouds_dsm::DsmServer) { s.log().resolve_intent(1) }
    /// ```
    /// ```compile_fail,E0599
    /// fn adopt(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName) {
    ///     let _ = s.log().change_replicas(g, |_| Ok::<_, ()>(None));
    /// }
    /// ```
    ///
    /// Nor can anything else install a page or mint a serving token:
    ///
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

    /// Make this server the cluster's outcome registry: it decides
    /// verdicts, which every other server refuses. A
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
                    if self.check_serving(page.seg).is_err() || self.segment_len(page.seg).is_err()
                    {
                        return CommitReply::Refused;
                    }
                }
                let pages = pages
                    .into_iter()
                    .map(|p| IntentPage {
                        seg: p.seg,
                        page: p.page,
                        data: p.data.to_vec(),
                    })
                    .collect();
                self.log.append(LogRecord::TxnIntent { txn, pages });
                CommitReply::Ok
            }
            CommitRequest::Commit { txn } => match self.log.intent(txn) {
                Ok(Some(pages)) => {
                    let reply = self.install_decided(txn, pages);
                    if reply == CommitReply::Ok {
                        self.log.resolve_intent(txn);
                    }
                    reply
                }
                // Not staged here: a duplicate commit (retransmission
                // after apply).
                Ok(None) => CommitReply::Ok,
                // The index is gone: the intent may be one the log has
                // not given back yet.
                Err(Crashed) => CommitReply::Refused,
            },
            // Refused until replayed, as a `Commit` is (see the module docs).
            CommitRequest::Abort { .. } if self.needs_replay() => CommitReply::Refused,
            CommitRequest::Abort { txn } => {
                self.log.resolve_intent(txn);
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
            CommitRequest::Decide {
                txn,
                commit,
                settled,
            } => {
                let reply = self.decide(txn, commit);
                if reply != CommitReply::Refused {
                    for txn in settled {
                        self.log.append(LogRecord::OutcomeSettled { txn });
                    }
                }
                reply
            }
        }
    }

    /// The registry's verdict on `txn`, first writer wins: the one it
    /// logged, else the proposal `commit`, logged before it is answered.
    /// `Refused` unless this server hosts the registry and its log is
    /// replayed.
    fn decide(&self, txn: u64, commit: bool) -> CommitReply {
        if !self.hosts_registry.load(Ordering::SeqCst) {
            return CommitReply::Refused;
        }
        match self.log.decide(txn, commit) {
            Ok(true) => CommitReply::Committed,
            Ok(false) => CommitReply::Aborted,
            Err(Crashed) => CommitReply::Refused,
        }
    }

    /// Install a decided transaction's staged pages: here, or — where a
    /// promotion passed this server by since the prepare and the fence
    /// refuses — through the primary its replica view now names, as an
    /// `ApplyLocal` (idempotent: the same image again only bumps the
    /// version). `Ok` only once every page is installed.
    fn install_decided(&self, txn: u64, pages: Vec<IntentPage>) -> CommitReply {
        let me = self.node_id();
        let mut elsewhere: BTreeMap<NodeId, Vec<WireWriteBack>> = BTreeMap::new();
        for IntentPage { seg, page, data } in pages {
            if self.commit_page(seg, page, &data).is_ok() {
                continue;
            }
            match self.replica_view(seg) {
                Some((members, _)) if members.first().is_some_and(|p| *p != me) => {
                    let data = PageBytes::from(data);
                    let forward = WireWriteBack { seg, page, data };
                    elsewhere.entry(members[0]).or_default().push(forward);
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
    /// outcome registry at `registry`, proposing abort for each. A
    /// committed transaction is installed, an aborted one dropped. One
    /// the registry gives no verdict for — no answer, or `Refused` — is
    /// still in doubt and stays staged, as does a committed one whose
    /// install is refused. Nothing runs this for a server: a harness
    /// calls it after the restart's replay has given the intents back.
    ///
    /// Returns `(installed, aborted)` transaction counts.
    pub fn recover_intents(&self, registry: NodeId) -> (usize, usize) {
        let mut installed = 0;
        let mut aborted = 0;
        for (txn, pages) in self.log.intents() {
            let settled = Vec::new();
            let abort = CommitRequest::Decide {
                txn,
                commit: false,
                settled,
            };
            let verdict = if self.hosts_registry.load(Ordering::SeqCst) {
                Some(self.serve(abort))
            } else {
                self.ask(registry, &abort)
            };
            match verdict {
                Some(CommitReply::Aborted) => aborted += 1,
                Some(CommitReply::Committed) => {
                    if self.install_decided(txn, pages) != CommitReply::Ok {
                        // The only copy of a committed transaction: keep it.
                        continue;
                    }
                    installed += 1;
                }
                // No verdict: the transaction is in doubt, keep it.
                _ => continue,
            }
            self.log.resolve_intent(txn);
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
