//! Two-phase commit: participants on data servers, one of which hosts
//! the transaction-outcome registry.
//!
//! "The updated segments are written using a 2-phase commit mechanism
//! when the cp-thread completes" (§5.2.1). The coordinator is the
//! committing cp-thread itself; the participants are the data servers
//! that home the written segments.
//!
//! Crash behaviour:
//!
//! * A participant keeps no table of its own. Its staged intents, and
//!   on the registry host the recorded outcomes, are tables of the
//!   co-located [`DsmServer`], beside the log that makes them durable:
//!   `Prepare` stages through [`DsmServer::stage_intent`], which appends
//!   a `TxnIntent` record before the yes vote; `Commit`/`Abort` retire
//!   through [`DsmServer::retire_intent`] (`TxnResolved`); and
//!   `RecordOutcome` goes through [`DsmServer::record_outcome`]
//!   (`TxnOutcome`, plus one `OutcomeSettled` per transaction it
//!   settles).
//! * [`DsmServer::crash`] wipes both tables with the rest of DRAM, and
//!   the restart's [`DsmServer::recover_from_log`] refills them from the
//!   replay.
//! * Resolving the re-staged transactions is an explicit call,
//!   [`CommitParticipant::recover`]: it asks the registry for each one —
//!   committed ⇒ install the staged pages; unknown ⇒ presumed abort.
//!   Restart does not run it.
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
//!   given back yet.

use clouds::CloudsError;
use clouds_dsm::{ports, DsmServer};
use clouds_ratp::{RatpNode, Request, Service};
use clouds_simnet::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One page image to install at commit: the DSM wire's write-back
/// entry. Its `data` is one length prefix and one copy on the wire, and
/// on the participant a slice of the request buffer.
pub use clouds_dsm::proto::WireWriteBack as PageImage;

/// Requests to a data server's commit participant ([`ports::COMMIT`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CommitRequest {
    /// Phase one: stage pages for `txn`.
    Prepare {
        /// Global transaction id.
        txn: u64,
        /// Pages to install on commit.
        pages: Vec<PageImage>,
    },
    /// Phase two: install staged pages.
    Commit {
        /// Global transaction id.
        txn: u64,
    },
    /// Phase two (failure): discard staged pages.
    Abort {
        /// Global transaction id.
        txn: u64,
    },
    /// Lightweight path (lcp): stage and install in one atomic local
    /// step — no cross-server atomicity.
    ApplyLocal {
        /// Global transaction id.
        txn: u64,
        /// Pages to install now.
        pages: Vec<PageImage>,
    },
    /// Record a commit decision (outcome registry, first data server),
    /// and forget the decisions no participant needs any more.
    RecordOutcome {
        /// Global transaction id.
        txn: u64,
        /// Transactions settled since the coordinator's last
        /// `RecordOutcome`: every participant installed their pages.
        settled: Vec<u64>,
    },
    /// Query a commit decision (participant recovery).
    QueryOutcome {
        /// Global transaction id.
        txn: u64,
    },
}

/// Replies from the commit participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitReply {
    /// Prepare accepted / operation done.
    Ok,
    /// Prepare or apply refused (storage failure).
    Refused,
    /// Outcome query: the transaction committed.
    Committed,
    /// Outcome query: no commit record (presumed abort).
    Unknown,
}

/// The commit participant service co-located with a [`DsmServer`].
pub struct CommitParticipant {
    dsm: Arc<DsmServer>,
    /// Whether this participant answers for the outcome registry.
    hosts_registry: bool,
    /// The node's transport: kept alive, and the way to a promoted primary.
    ratp: Arc<RatpNode>,
}

impl fmt::Debug for CommitParticipant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitParticipant")
            .field("node", &self.dsm.node_id())
            .field("staged", &self.dsm.staged_count())
            .field("hosts_registry", &self.hosts_registry)
            .finish()
    }
}

impl CommitParticipant {
    /// Install the participant on a data server; `hosts_registry` on the
    /// data server hosting the outcome registry.
    pub fn install(
        ratp: &Arc<RatpNode>,
        dsm: Arc<DsmServer>,
        hosts_registry: bool,
    ) -> Arc<CommitParticipant> {
        let participant = Arc::new(CommitParticipant {
            dsm,
            hosts_registry,
            ratp: Arc::clone(ratp),
        });
        let handler = Arc::clone(&participant);
        ratp.register_service(ports::COMMIT, move |req: Request| handler.handle(req));
        participant
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
                    if self.dsm.check_serving(page.seg).is_err()
                        || self.dsm.store().get(page.seg).is_err()
                    {
                        return CommitReply::Refused;
                    }
                }
                self.dsm.stage_intent(txn, pages);
                CommitReply::Ok
            }
            CommitRequest::Commit { txn } => {
                // Read before the table: it clears only once the table is
                // whole again.
                let replaying = self.dsm.needs_replay();
                match self.dsm.staged_intent(txn) {
                    Some(pages) => {
                        let reply = self.install_decided(txn, &pages);
                        if reply == CommitReply::Ok {
                            self.dsm.retire_intent(txn);
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
                self.dsm.retire_intent(txn);
                CommitReply::Ok
            }
            CommitRequest::ApplyLocal { txn: _, pages } => self.install_pages(&pages),
            CommitRequest::RecordOutcome { txn, settled } => {
                if !self.hosts_registry {
                    return CommitReply::Refused;
                }
                // The decision itself is what must survive the host's
                // crash: it is logged before the coordinator hears `Ok`.
                self.dsm.record_outcome(txn, &settled);
                CommitReply::Ok
            }
            CommitRequest::QueryOutcome { txn } => self.verdict(txn),
        }
    }

    /// The registry's answer for `txn`: `Refused` unless this
    /// participant hosts the registry.
    fn verdict(&self, txn: u64) -> CommitReply {
        if !self.hosts_registry {
            CommitReply::Refused
        } else if self.dsm.outcome_committed(txn) {
            CommitReply::Committed
        } else {
            CommitReply::Unknown
        }
    }

    fn install_pages(&self, pages: &[PageImage]) -> CommitReply {
        for page in pages {
            if self.dsm.commit_page(page.seg, page.page, &page.data).is_err() {
                return CommitReply::Refused;
            }
        }
        CommitReply::Ok
    }

    /// Install a decided transaction's staged pages: here, or — where a
    /// promotion passed this server by since the prepare and the fence
    /// refuses — through the primary its replica view now names, as an
    /// `ApplyLocal` (idempotent: the same image again only bumps the
    /// version). `Ok` only once every page is installed.
    fn install_decided(&self, txn: u64, pages: &[PageImage]) -> CommitReply {
        let me = self.dsm.node_id();
        let mut elsewhere: BTreeMap<NodeId, Vec<PageImage>> = BTreeMap::new();
        for page in pages {
            let here = self.dsm.commit_page(page.seg, page.page, &page.data);
            if here.is_ok() {
                continue;
            }
            match self.dsm.replica_view(page.seg) {
                Some((members, _)) if members.first().is_some_and(|p| *p != me) => {
                    elsewhere.entry(members[0]).or_default().push(page.clone());
                }
                _ => return CommitReply::Refused,
            }
        }
        for (primary, pages) in elsewhere {
            let req = CommitRequest::ApplyLocal { txn, pages };
            if ask(&self.ratp, primary, &req) != Some(CommitReply::Ok) {
                return CommitReply::Refused;
            }
        }
        CommitReply::Ok
    }

    /// Number of staged (prepared, undecided) transactions.
    pub fn staged_count(&self) -> usize {
        self.dsm.staged_count()
    }

    /// Crash-recovery: resolve staged transactions against the outcome
    /// registry (reached through `ratp` at `registry_node`). Committed
    /// transactions are installed; unknown ones are presumed aborted. A
    /// committed transaction whose install is refused stays staged.
    /// Nothing runs this for a participant: a harness calls it after the
    /// restart's replay has re-staged the intents.
    ///
    /// Returns `(installed, aborted)` transaction counts.
    pub fn recover(&self, ratp: &Arc<RatpNode>, registry_node: NodeId) -> (usize, usize) {
        let mut installed = 0;
        let mut aborted = 0;
        for (txn, pages) in self.dsm.staged_intents() {
            let verdict = if self.hosts_registry {
                self.verdict(txn)
            } else {
                ask(ratp, registry_node, &CommitRequest::QueryOutcome { txn })
                    .unwrap_or(CommitReply::Unknown)
            };
            if verdict != CommitReply::Committed {
                aborted += 1;
            } else if self.install_decided(txn, &pages) == CommitReply::Ok {
                installed += 1;
            } else {
                // The only copy of a committed transaction: keep it.
                continue;
            }
            self.dsm.retire_intent(txn);
        }
        (installed, aborted)
    }
}

/// The [`ports::COMMIT`] service. The decode shares the request buffer,
/// so a `Prepare`'s or `ApplyLocal`'s page images are slices of it, not
/// copies.
impl Service for CommitParticipant {
    fn handle(&self, req: Request) -> bytes::Bytes {
        let reply = match clouds_codec::from_bytes_shared::<CommitRequest>(&req.payload) {
            Ok(message) => self.serve(message),
            Err(_) => CommitReply::Refused,
        };
        bytes::Bytes::from(clouds_codec::to_bytes(&reply).expect("encodes"))
    }
}

/// One commit-protocol call; `None` if the peer did not answer.
fn ask(ratp: &Arc<RatpNode>, node: NodeId, req: &CommitRequest) -> Option<CommitReply> {
    let payload = bytes::Bytes::from(clouds_codec::to_bytes(req).expect("encodes"));
    let reply = ratp.call(node, ports::COMMIT, payload).ok()?;
    clouds_codec::from_bytes(&reply).ok()
}

/// Errors helper: map a refused reply into a [`CloudsError`].
pub(crate) fn refused(what: &str) -> CloudsError {
    CloudsError::ConsistencyAbort(format!("{what} refused by participant"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use clouds_codec::PageBytes;
    use clouds_ra::SysName;

    /// `PageImage` as it was with a `Vec<u8>` image.
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

    fn images() -> (Vec<PageImage>, Vec<VecImage>) {
        (0..2u32)
            .map(|page| {
                let seg = SysName::from_parts(7, u64::from(page));
                let data: Vec<u8> = (0..8192)
                    .map(|i| (i * 31 % 251) as u8 ^ page as u8)
                    .collect();
                (
                    PageImage {
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
