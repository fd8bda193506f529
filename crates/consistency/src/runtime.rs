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
    /// Transactions every participant installed, waiting to ride the
    /// next `RecordOutcome` to the registry host.
    settled: Mutex<Vec<u64>>,
    txn_counter: AtomicU64,
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
            txn_counter: AtomicU64::new(1),
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
    /// The invocation's error, or [`CloudsError::ConsistencyAbort`]
    /// after the retry budget is exhausted.
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
        let owner = self.owner_counter.fetch_add(1, Ordering::Relaxed)
            | ((compute.node_id().0 as u64) << 48);
        let hooks = Arc::new(RemoteLockHooks::new(
            Arc::clone(compute.ratp()),
            Arc::clone(compute.dsm()),
            opts.lock_wait_ms,
        ));
        let session = CpSession::new(owner, Arc::clone(&hooks) as _);

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
                    self.commit_shadows(compute, label, shadows).map(|()| bytes)
                }
            }
        };
        // Strict two-phase locking: everything is released only after
        // the commit decision (or abort).
        hooks.release_all(owner);
        result
    }

    /// Group shadow pages by home data server and commit them.
    fn commit_shadows(
        &self,
        compute: &ComputeServer,
        label: OperationLabel,
        shadows: Vec<((SysName, u32), Vec<u8>)>,
    ) -> Result<(), CloudsError> {
        let txn =
            self.txn_counter.fetch_add(1, Ordering::Relaxed) | ((compute.node_id().0 as u64) << 48);
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
                let calls: Vec<(NodeId, CommitRequest)> = by_server
                    .into_iter()
                    .map(|(server, pages)| (server, CommitRequest::ApplyLocal { txn, pages }))
                    .collect();
                for reply in self.call_many(compute, &calls) {
                    if reply? != CommitReply::Ok {
                        return Err(refused("local apply"));
                    }
                }
                Ok(())
            }
            OperationLabel::Gcp => self.two_phase_commit(compute, txn, by_server),
            OperationLabel::S => unreachable!("s-threads have no shadows"),
        }
    }

    fn two_phase_commit(
        &self,
        compute: &ComputeServer,
        txn: u64,
        by_server: BTreeMap<NodeId, Vec<WireWriteBack>>,
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
        let prepare_calls: Vec<(NodeId, CommitRequest)> = by_server
            .iter()
            .map(|(server, pages)| {
                (
                    *server,
                    CommitRequest::Prepare {
                        txn,
                        pages: pages.clone(),
                    },
                )
            })
            .collect();
        let all_prepared = self
            .call_many(compute, &prepare_calls)
            .into_iter()
            .all(|r| matches!(r, Ok(CommitReply::Ok)));

        obs.instant("2pc", "prepare", format!("txn={txn} ok={all_prepared}"));
        if !all_prepared {
            obs.counter("2pc.aborts").inc();
            obs.instant("2pc", "abort", format!("txn={txn} cause=prepare"));
            self.broadcast(compute, &servers, |_| CommitRequest::Abort { txn });
            return Err(CloudsError::ConsistencyAbort(format!(
                "prepare phase failed for txn {txn}"
            )));
        }

        // Commit point: record the decision durably *before* phase 2 so
        // a participant crash cannot lose the verdict.
        if !self.record_outcome(compute, txn) {
            obs.counter("2pc.aborts").inc();
            obs.instant("2pc", "abort", format!("txn={txn} cause=outcome_record"));
            self.broadcast(compute, &servers, |_| CommitRequest::Abort { txn });
            return Err(CloudsError::ConsistencyAbort(format!(
                "could not record commit decision for txn {txn}"
            )));
        }

        // Phase 2: best-effort installs, in parallel (the verdict is
        // already durable, so order does not matter). Nothing re-sends a
        // `Commit` a participant missed: its intent stays staged, and its
        // restart re-stages it from the log without resolving it. Only an
        // explicit `DsmServer::recover_intents` asks the registry for the
        // verdict (ROADMAP item 17). Once every participant has
        // installed, nobody will ask, and the txn is settled.
        if self.broadcast(compute, &servers, |_| CommitRequest::Commit { txn }) {
            self.settled.lock().push(txn);
        }
        obs.counter("2pc.commits").inc();
        obs.instant("2pc", "commit", format!("txn={txn}"));
        Ok(())
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

    /// The commit point: log `txn`'s decision at the registry host,
    /// handing it the transactions settled since the last call. If the
    /// call fails they wait for the next one.
    fn record_outcome(&self, compute: &ComputeServer, txn: u64) -> bool {
        let settled = std::mem::take(&mut *self.settled.lock());
        let req = CommitRequest::RecordOutcome { txn, settled };
        let registry = self.registry_node;
        let reply = compute
            .ratp()
            .call(registry, ports::COMMIT, proto::encode(&req));
        let recorded = matches!(decode_commit(registry, reply), Ok(CommitReply::Ok));
        if let (false, CommitRequest::RecordOutcome { settled, .. }) = (recorded, req) {
            self.settled.lock().extend(settled);
        }
        recorded
    }

    /// Best-effort fan-out of one request shape to every server; whether
    /// every one answered `Ok`.
    fn broadcast(
        &self,
        compute: &ComputeServer,
        servers: &[NodeId],
        req: impl Fn(NodeId) -> CommitRequest,
    ) -> bool {
        let calls: Vec<(NodeId, CommitRequest)> = servers.iter().map(|&s| (s, req(s))).collect();
        self.call_many(compute, &calls)
            .into_iter()
            .all(|reply| matches!(reply, Ok(CommitReply::Ok)))
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
