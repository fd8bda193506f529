//! Two-phase commit: participants on data servers, plus the durable
//! transaction-outcome registry.
//!
//! "The updated segments are written using a 2-phase commit mechanism
//! when the cp-thread completes" (§5.2.1). The coordinator is the
//! committing cp-thread itself; the participants are the data servers
//! that home the written segments.
//!
//! Crash behaviour:
//!
//! * The in-memory staged-transaction table ([`CommitLog`]) and the
//!   outcome table ([`OutcomeRegistry`]) are *volatile*. Durability
//!   comes from the data server's append-only log (`clouds-store`):
//!   `Prepare` appends a `TxnIntent` record before voting yes,
//!   `Commit`/`Abort` append `TxnResolved`, and `RecordOutcome` appends
//!   `TxnOutcome` plus one `OutcomeSettled` per transaction it settles —
//!   so a participant that genuinely lost its memory
//!   reconstructs both tables from the log replay
//!   ([`CommitParticipant::resume_from_log`]).
//! * A participant that restarts with *staged* (prepared, undecided)
//!   transactions consults the [`OutcomeRegistry`]: committed ⇒ install
//!   the staged pages; unknown ⇒ presumed abort
//!   ([`CommitParticipant::recover`]).
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
//! * Settlement trusts that `Ok` means installed. A participant that lost
//!   its staged table ([`CommitParticipant::crash_volatile_state`])
//!   therefore refuses a `Commit` it has no intent for until
//!   [`CommitParticipant::resume_from_log`] has re-staged its intents.

use clouds::CloudsError;
use clouds_codec::PageBytes;
use clouds_dsm::{ports, DsmServer};
use clouds_ra::SysName;
use clouds_store::{IntentPage, LogRecord};
use clouds_ratp::{RatpNode, Request, Service};
use clouds_simnet::NodeId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One page image to install at commit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageImage {
    /// Segment sysname.
    pub seg: SysName,
    /// Page index.
    pub page: u32,
    /// Full page contents: one length prefix and one copy on the wire,
    /// and on the participant a slice of the request buffer.
    pub data: PageBytes,
}

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

/// Verdict recorded for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Commit decision durably recorded.
    Committed,
    /// No record: presumed abort.
    Unknown,
}

#[derive(Debug, Clone)]
enum LogState {
    Staged(Arc<Vec<PageImage>>),
}

/// The staged-transaction table of one participant: a volatile cache of
/// the `TxnIntent` records in the data server's append-only log.
#[derive(Debug, Clone, Default)]
struct CommitLog {
    entries: Arc<Mutex<BTreeMap<u64, LogState>>>,
}

/// The transaction-outcome table hosted on the first data server. This
/// in-memory set is a volatile cache: the durable record is the
/// `TxnOutcome` entry the host appends to its log on `RecordOutcome`
/// (cancelled by a later `OutcomeSettled`), and a crash rebuilds the set
/// from log replay ([`CommitParticipant::resume_from_log`]). It holds
/// the committed transactions that are not yet settled.
#[derive(Debug, Clone, Default)]
pub struct OutcomeRegistry {
    committed: Arc<Mutex<BTreeSet<u64>>>,
}

impl OutcomeRegistry {
    /// An empty registry.
    pub fn new() -> OutcomeRegistry {
        OutcomeRegistry::default()
    }

    /// Record that `txn` committed (in the volatile cache; the caller is
    /// responsible for the matching durable log append).
    pub fn record(&self, txn: u64) {
        self.committed.lock().insert(txn);
    }

    /// Forget a settled transaction (in the volatile cache; the caller is
    /// responsible for the matching `OutcomeSettled` append).
    pub fn forget(&self, txn: u64) {
        self.committed.lock().remove(&txn);
    }

    /// How many committed outcomes the cache holds.
    pub fn cached(&self) -> usize {
        self.committed.lock().len()
    }

    /// Look up a transaction's outcome.
    pub fn outcome(&self, txn: u64) -> TxnOutcome {
        if self.committed.lock().contains(&txn) {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Unknown
        }
    }

    /// Crash simulation: forget every cached outcome.
    pub fn clear(&self) {
        self.committed.lock().clear();
    }
}

/// The commit participant service co-located with a [`DsmServer`].
pub struct CommitParticipant {
    dsm: Arc<DsmServer>,
    log: CommitLog,
    /// Outcome registry, when this participant hosts it.
    registry: Option<OutcomeRegistry>,
    /// The node's transport: kept alive, and the way to a promoted primary.
    ratp: Arc<RatpNode>,
    /// The staged table was lost and the log's intents are not re-staged
    /// yet: a `Commit` for an unknown txn may be one still to install.
    amnesiac: AtomicBool,
}

impl fmt::Debug for CommitParticipant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitParticipant")
            .field("node", &self.dsm.node_id())
            .field("staged", &self.log.entries.lock().len())
            .field("hosts_registry", &self.registry.is_some())
            .finish()
    }
}

impl CommitParticipant {
    /// Install the participant on a data server; `registry` is `Some` on
    /// the data server hosting the outcome registry.
    pub fn install(
        ratp: &Arc<RatpNode>,
        dsm: Arc<DsmServer>,
        registry: Option<OutcomeRegistry>,
    ) -> Arc<CommitParticipant> {
        let participant = Arc::new(CommitParticipant {
            dsm,
            log: CommitLog::default(),
            registry,
            ratp: Arc::clone(ratp),
            amnesiac: AtomicBool::new(false),
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
                // Write-ahead: the yes vote is a durable promise, so the
                // intent must hit the log before the reply leaves.
                self.dsm.log().append(LogRecord::TxnIntent {
                    txn,
                    pages: pages
                        .iter()
                        .map(|p| IntentPage {
                            seg: p.seg,
                            page: p.page,
                            data: p.data.to_vec(),
                        })
                        .collect(),
                });
                self.log
                    .entries
                    .lock()
                    .insert(txn, LogState::Staged(Arc::new(pages)));
                CommitReply::Ok
            }
            CommitRequest::Commit { txn } => {
                // Read before the table: it clears only once the table is
                // whole again.
                let amnesiac = self.amnesiac.load(Ordering::SeqCst);
                let staged = self.log.entries.lock().get(&txn).cloned();
                match staged {
                    Some(LogState::Staged(pages)) => {
                        let reply = self.install_decided(txn, &pages);
                        if reply == CommitReply::Ok {
                            self.retire(txn);
                        }
                        reply
                    }
                    // Not staged here: a duplicate commit (retransmission
                    // after apply) — unless the table is lost, when it may
                    // be an intent the log has not given back yet.
                    None if amnesiac => CommitReply::Refused,
                    None => CommitReply::Ok,
                }
            }
            CommitRequest::Abort { txn } => {
                self.retire(txn);
                CommitReply::Ok
            }
            CommitRequest::ApplyLocal { txn: _, pages } => self.install_pages(&pages),
            CommitRequest::RecordOutcome { txn, settled } => match &self.registry {
                Some(reg) => {
                    // The decision itself is what must survive the host's
                    // crash: log it before acknowledging to the
                    // coordinator.
                    self.dsm.log().append(LogRecord::TxnOutcome { txn });
                    reg.record(txn);
                    for txn in settled {
                        self.dsm.log().append(LogRecord::OutcomeSettled { txn });
                        reg.forget(txn);
                    }
                    CommitReply::Ok
                }
                None => CommitReply::Refused,
            },
            CommitRequest::QueryOutcome { txn } => match &self.registry {
                Some(reg) => match reg.outcome(txn) {
                    TxnOutcome::Committed => CommitReply::Committed,
                    TxnOutcome::Unknown => CommitReply::Unknown,
                },
                None => CommitReply::Refused,
            },
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

    /// Retire a decided transaction's intent, so a replay does not
    /// re-stage it (installed pages are in the log: `commit_page`
    /// appends them).
    fn retire(&self, txn: u64) {
        if self.log.entries.lock().remove(&txn).is_some() {
            self.dsm.log().append(LogRecord::TxnResolved { txn });
        }
    }

    /// Number of staged (prepared, undecided) transactions.
    pub fn staged_count(&self) -> usize {
        self.log.entries.lock().len()
    }

    /// Crash simulation: forget every staged transaction and (when this
    /// participant hosts it) every cached outcome. Pairs with
    /// [`CommitParticipant::resume_from_log`], which rebuilds both from
    /// the data server's replayed log; until then a `Commit` the table
    /// does not hold is refused.
    pub fn crash_volatile_state(&self) {
        self.amnesiac.store(true, Ordering::SeqCst);
        self.log.entries.lock().clear();
        if let Some(reg) = &self.registry {
            reg.clear();
        }
    }

    /// Rebuild the staged-transaction table and the outcome registry
    /// from the data server's log replay (the pending intents and
    /// outcomes parked by `DsmServer::recover_from_log`). Call after the
    /// data server replayed its log and before
    /// [`CommitParticipant::recover`] resolves the re-staged
    /// transactions.
    ///
    /// Returns `(staged, outcomes)` counts; `(0, 0)` if no replay ran.
    pub fn resume_from_log(&self) -> (usize, usize) {
        let Some((pending, outcomes)) = self.dsm.take_recovered_txns() else {
            return (0, 0);
        };
        let outcome_count = outcomes.len();
        if let Some(reg) = &self.registry {
            for txn in outcomes {
                reg.record(txn);
            }
        }
        let staged = pending.len();
        let mut entries = self.log.entries.lock();
        for (txn, pages) in pending {
            let images = pages
                .into_iter()
                .map(|p| PageImage {
                    seg: p.seg,
                    page: p.page,
                    data: PageBytes::from(p.data),
                })
                .collect();
            entries.insert(txn, LogState::Staged(Arc::new(images)));
        }
        self.amnesiac.store(false, Ordering::SeqCst);
        (staged, outcome_count)
    }

    /// Crash-recovery: resolve staged transactions against the outcome
    /// registry (reached through `ratp` at `registry_node`). Committed
    /// transactions are installed; unknown ones are presumed aborted. A
    /// committed transaction whose install is refused stays staged.
    ///
    /// Returns `(installed, aborted)` transaction counts.
    pub fn recover(&self, ratp: &Arc<RatpNode>, registry_node: NodeId) -> (usize, usize) {
        let staged: Vec<(u64, LogState)> = {
            let log = self.log.entries.lock();
            log.iter()
                .map(|(txn, state)| (*txn, state.clone()))
                .collect()
        };
        let mut installed = 0;
        let mut aborted = 0;
        for (txn, LogState::Staged(pages)) in staged {
            let verdict = if let Some(registry) = self.registry.as_ref() {
                // We host the registry: answer locally.
                match registry.outcome(txn) {
                    TxnOutcome::Committed => CommitReply::Committed,
                    TxnOutcome::Unknown => CommitReply::Unknown,
                }
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
            self.retire(txn);
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
