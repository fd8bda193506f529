//! The user-facing consistency runtime: run invocations as s-, lcp- or
//! gcp-threads with automatic locking, recovery and retry.

use crate::hooks::RemoteLockHooks;
use clouds::consistency_hooks::CpSession;
use clouds::{CloudsError, Cluster, ComputeServer, OperationLabel};
use clouds_codec::PageBytes;
use clouds_dsm::proto::{self, ports, CommitReply, CommitRequest, WireWriteBack};
use clouds_ra::SysName;
use clouds_simnet::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for cp-thread execution.
#[derive(Debug, Clone)]
pub struct CpOptions {
    /// Lock-wait deadline (deadlock resolution), milliseconds.
    pub lock_wait_ms: u64,
    /// How many times to re-run a computation aborted by lock timeouts.
    pub max_retries: u32,
}

impl Default for CpOptions {
    fn default() -> Self {
        CpOptions {
            lock_wait_ms: 800,
            max_retries: 24,
        }
    }
}

/// Counters describing cp-thread behaviour (experiment E5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpStats {
    /// Computations that committed.
    pub commits: u64,
    /// Aborts (lock timeouts + refused prepares), counting each retry.
    pub aborts: u64,
    /// Computations that exhausted their retry budget.
    pub failures: u64,
}

/// The consistency runtime for one cluster: the 2PC coordinator over
/// the participants every data server runs from boot, with the outcome
/// registry on the first.
///
/// Created with [`ConsistencyRuntime::install`].
#[derive(Debug)]
pub struct ConsistencyRuntime {
    registry_node: NodeId,
    /// Transactions every participant resolved, waiting to ride the
    /// next `Decide` to the registry host.
    settled: Mutex<Vec<u64>>,
    /// Source of cp-attempt ids: an attempt's lock owner and its txn.
    owner_counter: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    failures: AtomicU64,
}

impl ConsistencyRuntime {
    /// The runtime for `cluster`: its data servers are the participants,
    /// the first the registry host.
    pub fn install(cluster: &Cluster) -> Arc<ConsistencyRuntime> {
        Arc::new(ConsistencyRuntime {
            registry_node: cluster.data_server(0).node_id(),
            settled: Mutex::new(Vec::new()),
            owner_counter: AtomicU64::new(1),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        })
    }

    /// The node hosting the outcome registry.
    pub fn registry_node(&self) -> NodeId {
        self.registry_node
    }

    /// Snapshot of the abort/commit counters.
    pub fn stats(&self) -> CpStats {
        CpStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// Run `target.entry(args)` with the semantics declared by the
    /// entry's [`OperationLabel`] (§5.2.1's static labels).
    ///
    /// # Errors
    ///
    /// The invocation's error, [`CloudsError::ConsistencyAbort`] after
    /// the retry budget is exhausted, or [`CloudsError::InDoubt`], which
    /// is not retried.
    pub fn invoke_labeled(
        &self,
        compute: &ComputeServer,
        target: SysName,
        entry: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, CloudsError> {
        let label = compute.entry_label(target, entry)?;
        self.invoke(compute, label, target, entry, args, &CpOptions::default())
    }

    /// Run `target.entry(args)` with an explicit label and options.
    ///
    /// # Errors
    ///
    /// As for [`ConsistencyRuntime::invoke_labeled`].
    pub fn invoke(
        &self,
        compute: &ComputeServer,
        label: OperationLabel,
        target: SysName,
        entry: &str,
        args: &[u8],
        opts: &CpOptions,
    ) -> Result<Vec<u8>, CloudsError> {
        match label {
            OperationLabel::S => compute.invoke(target, entry, args, None),
            OperationLabel::Lcp | OperationLabel::Gcp => {
                self.run_cp(compute, label, target, entry, args, opts)
            }
        }
    }

    fn run_cp(
        &self,
        compute: &ComputeServer,
        label: OperationLabel,
        target: SysName,
        entry: &str,
        args: &[u8],
        opts: &CpOptions,
    ) -> Result<Vec<u8>, CloudsError> {
        let mut last_error = None;
        for _attempt in 0..=opts.max_retries {
            match self.attempt_cp(compute, label, target, entry, args, opts) {
                Ok(bytes) => {
                    self.commits.fetch_add(1, Ordering::Relaxed);
                    return Ok(bytes);
                }
                Err(CloudsError::ConsistencyAbort(m)) => {
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    compute
                        .ratp()
                        .obs()
                        .instant("2pc", "cp_abort", format!("attempt={_attempt}"));
                    last_error = Some(CloudsError::ConsistencyAbort(m));
                    // Back off with owner-dependent jitter so two aborted
                    // threads do not collide again in lock-step (the
                    // upgrade-deadlock livelock).
                    let jitter = (self.owner_counter.load(Ordering::Relaxed) % 11)
                        + 3 * (_attempt as u64 + 1);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "wall-clock abort backoff, until it runs on virtual time"
                    )]
                    std::thread::sleep(std::time::Duration::from_millis(5 + jitter));
                }
                Err(other) => return Err(other),
            }
        }
        self.failures.fetch_add(1, Ordering::Relaxed);
        Err(last_error.unwrap_or_else(|| {
            CloudsError::ConsistencyAbort("cp-thread failed with no recorded cause".into())
        }))
    }

    fn attempt_cp(
        &self,
        compute: &ComputeServer,
        label: OperationLabel,
        target: SysName,
        entry: &str,
        args: &[u8],
        opts: &CpOptions,
    ) -> Result<Vec<u8>, CloudsError> {
        // One id per attempt: its locks' owner is its txn, so the message
        // that ends the txn at a server releases its locks there.
        let txn = self.owner_counter.fetch_add(1, Ordering::Relaxed)
            | ((compute.node_id().0 as u64) << 48);
        let hooks = Arc::new(RemoteLockHooks::new(
            Arc::clone(compute.ratp()),
            Arc::clone(compute.dsm()),
            opts.lock_wait_ms,
        ));
        let session = CpSession::new(txn, Arc::clone(&hooks) as _);

        let outcome = compute.invoke(target, entry, args, Some(Arc::clone(&session)));

        let result = match outcome {
            Err(e) => {
                session.discard_shadows();
                Err(e)
            }
            Ok(bytes) => {
                let shadows = session.take_shadows();
                if shadows.is_empty() {
                    Ok(bytes) // read-only computation: nothing to commit
                } else {
                    self.commit_shadows(compute, label, txn, shadows, &hooks)
                        .map(|()| bytes)
                }
            }
        };
        // Strict two-phase locking: every lock is released only after the
        // verdict. A participant that answered `Ok` to its phase 2
        // released the txn's there; this releases the rest. An in-doubt
        // txn has no verdict, and its staged intents keep their segments
        // locked.
        if !matches!(result, Err(CloudsError::InDoubt(_))) {
            hooks.release_all(txn);
        }
        result
    }

    /// Group shadow pages by home data server and commit them as `txn`.
    fn commit_shadows(
        &self,
        compute: &ComputeServer,
        label: OperationLabel,
        txn: u64,
        shadows: Vec<((SysName, u32), Vec<u8>)>,
        hooks: &RemoteLockHooks,
    ) -> Result<(), CloudsError> {
        let mut by_server: BTreeMap<NodeId, Vec<WireWriteBack>> = BTreeMap::new();
        for ((seg, page), data) in shadows {
            let home = compute
                .dsm()
                .home_of(seg)
                .map_err(|e| CloudsError::ConsistencyAbort(format!("commit routing: {e}")))?;
            by_server.entry(home).or_default().push(WireWriteBack {
                seg,
                page,
                data: PageBytes::from(data),
            });
        }

        match label {
            OperationLabel::Lcp => {
                // Lightweight: atomic per server, no cross-server 2PC.
                // Distinct servers are applied in parallel — the commit
                // costs one round trip regardless of how many data
                // servers the shadow set spans.
                compute.ratp().obs().instant(
                    "2pc",
                    "apply_local",
                    format!("txn={txn} servers={}", by_server.len()),
                );
                let servers: Vec<NodeId> = by_server.keys().copied().collect();
                let unacked = self.broadcast(compute, &servers, |server| {
                    let pages = by_server[&server].clone();
                    CommitRequest::ApplyLocal { txn, pages }
                });
                hooks.released_at(servers.into_iter().filter(|s| !unacked.contains(s)));
                if unacked.is_empty() {
                    Ok(())
                } else {
                    Err(refused("local apply"))
                }
            }
            OperationLabel::Gcp => self.two_phase_commit(compute, txn, by_server, hooks),
            OperationLabel::S => unreachable!("s-threads have no shadows"),
        }
    }

    fn two_phase_commit(
        &self,
        compute: &ComputeServer,
        txn: u64,
        by_server: BTreeMap<NodeId, Vec<WireWriteBack>>,
        hooks: &RemoteLockHooks,
    ) -> Result<(), CloudsError> {
        let servers: Vec<NodeId> = by_server.keys().copied().collect();
        let obs = Arc::clone(compute.ratp().obs());
        let detail = format!("txn={txn} participants={}", servers.len());
        let mut span = obs.traced_span("2pc", "gcp_commit", &detail);
        span.set_args(detail);
        obs.counter("2pc.prepares").add(servers.len() as u64);

        // Phase 1: prepare everywhere, in parallel across participants
        // (each prepare is an independent vote; the decision only needs
        // all of them, so the phase costs one round trip, not N).
        let all_prepared = self
            .broadcast(compute, &servers, |server| {
                let pages = by_server[&server].clone();
                CommitRequest::Prepare { txn, pages }
            })
            .is_empty();
        obs.instant("2pc", "prepare", format!("txn={txn} ok={all_prepared}"));
        let verdict = if all_prepared {
            // The commit point: the registry logs the txn's first verdict
            // before it answers. A participant that recovered first may
            // have decided abort.
            self.decide(compute, txn)
        } else {
            Some(false)
        };
        let Some(commit) = verdict else {
            // No verdict: send neither phase 2. The participants keep the
            // txn's intents, and the caller its locks.
            obs.counter("2pc.in_doubt").inc();
            obs.instant("2pc", "in_doubt", format!("txn={txn}"));
            return Err(CloudsError::InDoubt(txn));
        };

        // Phase 2, in parallel (the verdict is durable, so order does not
        // matter), and the attempt's last round trip: a participant that
        // answers `Ok` has released the txn's locks. Nothing re-sends one
        // a participant missed: its intent stays staged, its pages in
        // doubt, until a fetch, prepare or lock that touches one of them
        // — or `DsmServer::recover_intents` — asks the registry (a fetch
        // only for the verdict logged here). Once every participant has
        // resolved it, nobody will ask, and a decided txn is settled.
        if commit {
            // This node's cached copies of the txn's pages are pre-images.
            // Drop them before the `Commit`, whose install then recalls
            // nothing from here: every participant voted, and grants a
            // staged page to nobody, so no new copy can come until the
            // intent is resolved — and a fault already in flight is
            // waited out.
            for p in by_server.values().flatten() {
                compute.dsm().cache().discard((p.seg, p.page));
            }
            let commit = CommitRequest::Commit { txn };
            self.phase2(compute, hooks, &servers, txn, commit, true);
            obs.counter("2pc.commits").inc();
            obs.instant("2pc", "commit", format!("txn={txn}"));
            return Ok(());
        }
        let cause = if all_prepared { "registry" } else { "prepare" };
        obs.counter("2pc.aborts").inc();
        obs.instant("2pc", "abort", format!("txn={txn} cause={cause}"));
        let abort = CommitRequest::Abort { txn };
        self.phase2(compute, hooks, &servers, txn, abort, all_prepared);
        Err(CloudsError::ConsistencyAbort(format!(
            "txn {txn} aborted by its {cause}"
        )))
    }

    /// Send phase 2 (`req`) to every participant. Each that answers `Ok`
    /// resolved its intent and released the txn's locks, which `hooks`
    /// note. If every one did, `txn` is settled, if `settle`; else
    /// `2pc.phase2_unacked` counts the broadcast and an instant names
    /// each one that did not.
    fn phase2(
        &self,
        compute: &ComputeServer,
        hooks: &RemoteLockHooks,
        servers: &[NodeId],
        txn: u64,
        req: CommitRequest,
        settle: bool,
    ) {
        let unacked = self.broadcast(compute, servers, |_| req.clone());
        hooks.released_at(servers.iter().copied().filter(|s| !unacked.contains(s)));
        if unacked.is_empty() {
            if settle {
                self.settled.lock().push(txn);
            }
            return;
        }
        let obs = compute.ratp().obs();
        obs.counter("2pc.phase2_unacked").inc();
        for server in &unacked {
            let detail = format!("txn={txn} participant={}", server.0);
            obs.instant("2pc", "phase2_unacked", detail);
        }
    }

    /// Issue independent commit-protocol calls side by side (one
    /// [`RatpNode::call_many`](clouds_ratp::RatpNode::call_many)),
    /// returning replies in request order. A participant that refuses
    /// pages may no longer be their segments' home — demoted since
    /// `home_of` cached it — so those routes are dropped and the next
    /// attempt re-resolves them.
    fn call_many(
        &self,
        compute: &ComputeServer,
        calls: &[(NodeId, CommitRequest)],
    ) -> Vec<Result<CommitReply, CloudsError>> {
        let wire = calls
            .iter()
            .map(|(server, req)| (*server, ports::COMMIT, proto::encode(req)))
            .collect();
        compute
            .ratp()
            .call_many(wire)
            .into_iter()
            .zip(calls)
            .map(|(reply, (server, req))| {
                let reply = decode_commit(*server, reply);
                if let (
                    Ok(CommitReply::Refused),
                    CommitRequest::Prepare { pages, .. } | CommitRequest::ApplyLocal { pages, .. },
                ) = (&reply, req)
                {
                    pages.iter().for_each(|p| compute.dsm().forget_home(p.seg));
                }
                reply
            })
            .collect()
    }

    /// Propose commit for `txn` at the registry host, handing it the
    /// transactions settled since the last call: its verdict (commit
    /// `true`), or `None` if it gave none. Then the settled transactions
    /// wait for the next call.
    fn decide(&self, compute: &ComputeServer, txn: u64) -> Option<bool> {
        let settled = std::mem::take(&mut *self.settled.lock());
        let req = CommitRequest::Decide {
            txn,
            commit: true,
            settled,
        };
        let registry = self.registry_node;
        let reply = compute
            .ratp()
            .call(registry, ports::COMMIT, proto::encode(&req));
        let verdict = match decode_commit(registry, reply) {
            Ok(CommitReply::Committed) => Some(true),
            Ok(CommitReply::Aborted) => Some(false),
            _ => None,
        };
        if let (None, CommitRequest::Decide { settled, .. }) = (verdict, req) {
            self.settled.lock().extend(settled);
        }
        verdict
    }

    /// Fan-out of one request shape to every server; the servers that
    /// did not answer `Ok`, in order.
    fn broadcast(
        &self,
        compute: &ComputeServer,
        servers: &[NodeId],
        req: impl Fn(NodeId) -> CommitRequest,
    ) -> Vec<NodeId> {
        let calls: Vec<(NodeId, CommitRequest)> = servers.iter().map(|&s| (s, req(s))).collect();
        let replies = self.call_many(compute, &calls).into_iter().zip(servers);
        replies
            .filter(|(reply, _)| !matches!(reply, Ok(CommitReply::Ok)))
            .map(|(_, server)| *server)
            .collect()
    }
}

/// Map a refused reply into a [`CloudsError`].
fn refused(what: &str) -> CloudsError {
    CloudsError::ConsistencyAbort(format!("{what} refused by participant"))
}

fn decode_commit(
    server: NodeId,
    reply: Result<bytes::Bytes, clouds_ratp::CallError>,
) -> Result<CommitReply, CloudsError> {
    let reply =
        reply.map_err(|e| CloudsError::ConsistencyAbort(format!("participant {server}: {e}")))?;
    clouds_codec::from_bytes(&reply)
        .map_err(|e| CloudsError::ConsistencyAbort(format!("bad commit reply: {e}")))
}
