//! The 2PC participant half of [`DsmServer`]: the [`ports::COMMIT`]
//! service every data server registers at install, and the resolution
//! of its staged intents.
//!
//! "The updated segments are written using a 2-phase commit mechanism
//! when the cp-thread completes" (§5.2.1). The coordinator is the
//! committing cp-thread itself (`clouds-consistency`); the participants
//! are the data servers that home the written segments, and the one
//! that hosts the cluster's directory also hosts the outcome registry
//! ([`DsmServer::use_outcome_registry`]).
//!
//! Crash behaviour:
//!
//! * The protocol's tables are the log's live records: `Prepare` stages
//!   a `TxnIntent` holding the page images before the yes vote
//!   ([`clouds_store::LogStore::stage`]); `Commit`/`Abort` retire it with
//!   one `TxnResolved` ([`clouds_store::LogStore::resolve_intent`]), whose
//!   commit makes the intent's images the pages' live records, each at
//!   the next version; and `Decide` appends the txn's first verdict, a
//!   `TxnOutcome`, plus one `OutcomeSettled` per transaction it settles.
//!   Nothing outside this crate can append to the log.
//! * [`DsmServer::crash`] takes the log's index, and with it both
//!   tables; the restart's [`DsmServer::recover_from_log`] replay brings
//!   them back.
//! * A verdict is decided once, at the registry: the first `Decide` for a
//!   txn logs its proposal before it is answered, and every later one is
//!   answered with it ([`clouds_store::LogStore::decide`]). The
//!   coordinator proposes commit once every participant voted yes.
//! * A staged page is in doubt: the log serves neither its image nor
//!   the one before it. One rule takes a txn out of doubt here
//!   ([`DsmServer::resolve`]): a txn with an intent staged at this
//!   server that has kept someone here waiting for one patience is
//!   proposed abort at the registry, and the verdict is applied here.
//!   A lock wait that times out applies it to the intents staged in
//!   its segment, and a fetch of a staged page waits on the segment's
//!   lock as a reader would. A granted lock, and a `Prepare` that names
//!   another txn's staged page, apply it with no wait: they hold the
//!   write lock a live txn would hold. The registry answers a logged
//!   verdict unchanged, so a proposal never undoes a commit. With no
//!   answer the touch fails, retryably, and serves nothing. Restart
//!   resolves nothing.
//! * A commit installs a page only once every cached copy of it is
//!   recalled, but the `Commit`'s sender's: it holds none
//!   ([`CommitRequest::Commit`]'s contract), so nothing is asked of it.
//!   It retires the intent only once every backup holds the
//!   image at the version it installs it at: a refused mirror leaves
//!   the intent staged, for a retried `Commit` or a touch to drive. A
//!   participant demoted while it held an intent installs those pages
//!   through the primary its replica view now names; until that
//!   succeeds the intent stays staged and `Commit` is `Refused`.
//! * The message that ends a txn here releases the txn's locks
//!   ([`DsmServer::locks`]; a lock's owner is its txn) before the reply:
//!   a `Commit`, `Abort` or `ApplyLocal` answered `Ok`, and a resolve
//!   that installs or drops its intent. A txn whose coordinator is gone
//!   after its prepare thus holds no lock here once it has kept someone
//!   waiting for one patience. A crash keeps the lock table.
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
use clouds_store::{Crashed, InDoubt, IntentPage, LogRecord};
use std::collections::BTreeMap;

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
    /// fn prepare(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName, image: &[u8]) {
    ///     let _ = s.log().stage(1, &[(g, 0, image)]);
    /// }
    /// ```
    /// ```compile_fail,E0599
    /// fn install(s: &clouds_dsm::DsmServer) { let _ = s.log().resolve_intent(1, true, &[1]); }
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
    /// fn install(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName, image: &clouds_codec::PageBytes) {
    ///     let _ = s.commit_page(g, 0, image);
    /// }
    /// ```
    /// ```compile_fail,E0624
    /// fn fence(s: &clouds_dsm::DsmServer, g: clouds_ra::SysName) { let _ = s.check_serving(g); }
    /// ```
    pub fn serve_commit_wire(&self, src: NodeId, payload: &bytes::Bytes) -> bytes::Bytes {
        let reply = proto::decode_shared::<CommitRequest>(payload)
            .map_or(CommitReply::Refused, |message| self.serve(src, message));
        proto::encode(&reply)
    }

    /// The cluster's outcome registry is on `node`: this server decides
    /// every verdict if it is `node`, and refuses to otherwise; it asks
    /// `node` for the verdict on an intent it resolves. Set once, at
    /// boot; a crash keeps it.
    pub fn use_outcome_registry(&self, node: NodeId) {
        let _ = self.registry.set(node);
    }

    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `CommitRequest` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn serve(&self, src: NodeId, req: CommitRequest) -> CommitReply {
        match req {
            CommitRequest::Prepare { txn, pages } => {
                // Validate the pages are installable *here* before voting
                // yes: each lies in a segment this server serves.
                for p in &pages {
                    if self.check_serving(p.seg).is_err()
                        || self.check_page(p.seg, p.page, p.data.len()).is_err()
                    {
                        return CommitReply::Refused;
                    }
                }
                let staged: Vec<_> = pages.iter().map(|p| (p.seg, p.page, &p.data[..])).collect();
                // A page another txn's intent stages is resolved first.
                while let Err(InDoubt(other)) = self.log.stage(txn, &staged) {
                    if self.resolve(other).is_none() {
                        return CommitReply::Refused;
                    }
                }
                CommitReply::Ok
            }
            // The sender holds no copy of the txn's pages (see
            // `CommitRequest::Commit`): the install recalls none from it.
            CommitRequest::Commit { txn } => self.ended(txn, self.install_decided(txn, Some(src))),
            // Refused until replayed, as a `Commit` is (see the module docs).
            CommitRequest::Abort { .. } if self.needs_replay() => CommitReply::Refused,
            CommitRequest::Abort { txn } => {
                self.log.resolve_intent(txn, false, &[]);
                self.ended(txn, CommitReply::Ok)
            }
            CommitRequest::ApplyLocal { txn, pages } => {
                let applied = pages
                    .iter()
                    .all(|p| self.commit_page(p.seg, p.page, &p.data).is_ok());
                let reply = if applied {
                    CommitReply::Ok
                } else {
                    CommitReply::Refused
                };
                self.ended(txn, reply)
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

    /// End `txn`'s attempt here if `reply` is `Ok`: strict 2PL releases
    /// its locks where its verdict is applied, before the reply.
    fn ended(&self, txn: u64, reply: CommitReply) -> CommitReply {
        if reply == CommitReply::Ok {
            self.locks.release_all(txn);
        }
        reply
    }

    /// The registry's verdict on `txn`, first writer wins: the one it
    /// logged, else the proposal `commit`, logged before it is answered.
    /// `Refused` unless this server hosts the registry and its log is
    /// replayed.
    fn decide(&self, txn: u64, commit: bool) -> CommitReply {
        if self.registry.get() != Some(&self.node_id()) {
            return CommitReply::Refused;
        }
        match self.log.decide(txn, commit) {
            Ok(true) => CommitReply::Committed,
            Ok(false) => CommitReply::Aborted,
            Err(Crashed) => CommitReply::Refused,
        }
    }

    /// Install a committed transaction's staged pages, and retire its
    /// intent: those this server serves where they are
    /// ([`DsmServer::install_intent`]); those a promotion passed this
    /// server by for since the prepare, and the fence refuses, first,
    /// through the primary its replica view now names, as an
    /// `ApplyLocal` (idempotent: the same image again only bumps the
    /// version). `Ok` once every page is installed, or if nothing is
    /// staged (a duplicate commit). `keep` holds no copy of the pages
    /// here, so none is recalled from it.
    fn install_decided(&self, txn: u64, keep: Option<NodeId>) -> CommitReply {
        let pages = match self.log.staged(txn) {
            Ok(Some(pages)) => pages,
            Ok(None) => return CommitReply::Ok,
            // The index is gone: the intent may be one the log has not
            // given back yet.
            Err(Crashed) => return CommitReply::Refused,
        };
        let me = self.node_id();
        let mut here = Vec::new();
        let mut elsewhere = BTreeMap::new();
        for (seg, page, _) in pages {
            if let Ok(serving) = self.check_serving(seg) {
                here.push((serving, page));
                continue;
            }
            match self.replica_view(seg) {
                Some((members, _)) if members.first().is_some_and(|p| *p != me) => {
                    elsewhere.insert((seg, page), members[0]);
                }
                _ => return CommitReply::Refused,
            }
        }
        if !elsewhere.is_empty() {
            // Rare: the only path that decodes the staged images.
            let Ok(images) = self.log.intent(txn) else {
                return CommitReply::Refused;
            };
            let mut forward: BTreeMap<NodeId, Vec<WireWriteBack>> = BTreeMap::new();
            for IntentPage { seg, page, data } in images.into_iter().flatten() {
                if let Some(primary) = elsewhere.get(&(seg, page)) {
                    let data = PageBytes::from(data);
                    let image = WireWriteBack { seg, page, data };
                    forward.entry(*primary).or_default().push(image);
                }
            }
            for (primary, pages) in forward {
                let req = CommitRequest::ApplyLocal { txn, pages };
                if self.ask(primary, &req) != Some(CommitReply::Ok) {
                    return CommitReply::Refused;
                }
            }
        }
        match self.install_intent(txn, &here, keep) {
            Ok(()) => CommitReply::Ok,
            Err(_) => CommitReply::Refused,
        }
    }

    /// The one way out of doubt: propose abort of `txn`, which stages an
    /// intent here, at the outcome registry, and apply the verdict it
    /// answers (a logged one unchanged): install the txn's pages on
    /// `Committed` or drop them on `Aborted`, release its locks here, as
    /// its phase 2 would have, and trace the verdict. Called by whoever
    /// the txn has kept waiting for one patience, and with no wait by a
    /// `Prepare` or a granted lock, which hold what a live txn would
    /// (see the module docs). The verdict (commit `true`), or `None`
    /// while the txn stays in doubt: the registry gave no verdict, or
    /// the install was refused.
    pub(crate) fn resolve(&self, txn: u64) -> Option<bool> {
        let registry = *self.registry.get()?;
        let verdict = if registry == self.node_id() {
            self.decide(txn, false)
        } else {
            let settled = Vec::new();
            let propose = CommitRequest::Decide {
                txn,
                commit: false,
                settled,
            };
            self.ask(registry, &propose)?
        };
        let commit = match verdict {
            CommitReply::Aborted => {
                self.log.resolve_intent(txn, false, &[]);
                false
            }
            CommitReply::Committed if self.install_decided(txn, None) == CommitReply::Ok => true,
            CommitReply::Committed | CommitReply::Ok | CommitReply::Refused => return None,
        };
        self.locks.release_all(txn);
        let verdict = if commit { "commit" } else { "abort" };
        let detail = format!("txn={txn} verdict={verdict}");
        self.obs.instant("dsm.server", "resolve_intent", detail);
        Some(commit)
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
