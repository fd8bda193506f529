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
//!   `TxnOutcome` — so a participant that genuinely lost its memory
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

use clouds::CloudsError;
use clouds_dsm::{ports, DsmServer};
use clouds_ra::SysName;
use clouds_store::{IntentPage, LogRecord};
use clouds_ratp::{RatpNode, Request};
use clouds_simnet::NodeId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One page image to install at commit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageImage {
    /// Segment sysname.
    pub seg: SysName,
    /// Page index.
    pub page: u32,
    /// Full page contents.
    pub data: Vec<u8>,
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
    /// Record a commit decision (outcome registry, first data server).
    RecordOutcome {
        /// Global transaction id.
        txn: u64,
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
/// `TxnOutcome` entry the host appends to its log on `RecordOutcome`,
/// and a crash rebuilds the set from log replay
/// ([`CommitParticipant::resume_from_log`]).
#[derive(Debug, Clone, Default)]
pub struct OutcomeRegistry {
    committed: Arc<Mutex<std::collections::BTreeSet<u64>>>,
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
        });
        let handler = Arc::clone(&participant);
        ratp.register_service(ports::COMMIT, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<CommitRequest>(&req.payload) {
                Ok(message) => handler.handle(message),
                Err(_) => CommitReply::Refused,
            };
            bytes::Bytes::from(clouds_codec::to_bytes(&reply).expect("encodes"))
        });
        participant
    }

    // No `_` arm (one that hides a single variant goes by the second lint's
    // name): a new `CommitRequest` without an arm of its own is a rustc error.
    #[deny(clippy::wildcard_enum_match_arm)]
    #[deny(clippy::match_wildcard_for_single_variants)]
    fn handle(&self, req: CommitRequest) -> CommitReply {
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
                            data: p.data.clone(),
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
                let staged = self.log.entries.lock().get(&txn).cloned();
                match staged {
                    Some(LogState::Staged(pages)) => {
                        let reply = self.install_decided(txn, &pages);
                        if reply == CommitReply::Ok {
                            self.retire(txn);
                        }
                        reply
                    }
                    // Duplicate commit (retransmission after apply).
                    None => CommitReply::Ok,
                }
            }
            CommitRequest::Abort { txn } => {
                self.retire(txn);
                CommitReply::Ok
            }
            CommitRequest::ApplyLocal { txn: _, pages } => self.install_pages(&pages),
            CommitRequest::RecordOutcome { txn } => match &self.registry {
                Some(reg) => {
                    // The decision itself is what must survive the host's
                    // crash: log it before acknowledging to the
                    // coordinator.
                    self.dsm.log().append(LogRecord::TxnOutcome { txn });
                    reg.record(txn);
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
    /// the data server's replayed log.
    pub fn crash_volatile_state(&self) {
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
                    data: p.data,
                })
                .collect();
            entries.insert(txn, LogState::Staged(Arc::new(images)));
        }
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
