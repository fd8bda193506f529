//! Resilient computations: n parallel execution threads over r replicas
//! with quorum commit (§5.2.2, Figure 5).

use crate::replica::ReplicatedObject;
use clouds::consistency_hooks::CpSession;
use clouds::{CloudsError, ComputeServer};
use clouds_codec::PageBytes;
use clouds_consistency::RemoteLockHooks;
use clouds_dsm::proto::{ports, CommitReply, CommitRequest, WireWriteBack};
use clouds_ra::SysName;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static PET_OWNER: AtomicU64 = AtomicU64::new(1);
static PET_TXN: AtomicU64 = AtomicU64::new(1);
/// Seeds the derived trace id of a resilient computation started with
/// no ambient causal context (deterministic as long as such top-level
/// calls are issued in a deterministic order, which the harnesses do).
static PET_ROOT: AtomicU64 = AtomicU64::new(1);

/// Tuning for a resilient computation.
#[derive(Debug, Clone)]
pub struct PetOptions {
    /// Number of parallel execution threads ("the number of nodes is
    /// another parameter provided by the user, and reflects the degree
    /// of resilience required").
    pub pets: usize,
    /// Minimum replicas that must accept the terminating thread's
    /// updates; `None` means a majority of the replication degree.
    pub write_quorum: Option<usize>,
    /// Lock-wait deadline per PET, milliseconds.
    pub lock_wait_ms: u64,
}

impl Default for PetOptions {
    fn default() -> Self {
        PetOptions {
            pets: 2,
            write_quorum: None,
            lock_wait_ms: 2_000,
        }
    }
}

/// What a successful resilient computation reports.
#[derive(Debug, Clone)]
pub struct PetOutcome {
    /// The terminating thread's result bytes.
    pub result: Vec<u8>,
    /// Index of the PET chosen as terminating thread.
    pub winner: usize,
    /// Replica indices whose data servers accepted the committed update.
    pub committed_replicas: Vec<usize>,
    /// PETs that failed (their index and error text).
    pub failed_pets: Vec<(usize, String)>,
}

impl fmt::Display for PetOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PET winner #{} committed to {} replicas ({} pets failed)",
            self.winner,
            self.committed_replicas.len(),
            self.failed_pets.len()
        )
    }
}

/// What one PET produced: its return bytes plus the shadow pages it
/// wrote, keyed by (segment, page).
type PetUpdates = Result<(Vec<u8>, Vec<((SysName, u32), Vec<u8>)>), CloudsError>;

struct PetResult {
    pet: usize,
    replica: usize,
    compute: ComputeServer,
    outcome: PetUpdates,
}

/// Run `entry(args)` on a replicated object as a resilient computation.
///
/// PET `i` executes on `computes[i % computes.len()]` against replica
/// `i % degree`. All PETs run as independent gcp-threads (locks +
/// shadow pages, never touching canonical state). When all have
/// finished, completed PETs are considered in order; the first whose
/// updates reach a write quorum of replicas becomes the terminating
/// thread, and every other PET is aborted.
///
/// # Errors
///
/// [`CloudsError::ThreadFailed`] if no PET completes;
/// [`CloudsError::ConsistencyAbort`] if no completed PET's updates can
/// reach a quorum.
///
/// # Panics
///
/// Panics if `computes` is empty or `opts.pets` is zero.
pub fn resilient_invoke(
    computes: &[ComputeServer],
    robj: &ReplicatedObject,
    entry: &str,
    args: &[u8],
    opts: &PetOptions,
) -> Result<PetOutcome, CloudsError> {
    assert!(!computes.is_empty(), "need at least one compute server");
    assert!(opts.pets > 0, "need at least one parallel execution thread");
    let quorum = opts
        .write_quorum
        .unwrap_or(robj.degree() / 2 + 1)
        .clamp(1, robj.degree());
    let obs = Arc::clone(computes[0].ratp().obs());
    let detail = format!(
        "pets={} degree={} quorum={quorum}",
        opts.pets,
        robj.degree()
    );
    // Child of the ambient span when one exists (a PET launched from
    // inside an invocation); otherwise the root of a fresh trace.
    let mut span = if clouds_obs::current_ctx().is_some() {
        obs.traced_span("pet", "resilient_invoke", &detail)
    } else {
        let seq = PET_ROOT.fetch_add(1, Ordering::Relaxed);
        let trace_id = clouds_obs::derive_trace_id(0xBE7u64 << 48, seq);
        obs.root_span(trace_id, "pet", "resilient_invoke", &detail)
    };
    span.set_args(detail);
    let pet_ctx = span.ctx();

    // Phase 1: launch the PETs ("the separate threads run independently
    // as if there is no replication").
    let mut handles = Vec::new();
    for pet in 0..opts.pets {
        let compute = computes[pet % computes.len()].clone();
        let replica = pet % robj.degree();
        let target = robj.replica(replica).sysname;
        let entry = entry.to_string();
        let args = args.to_vec();
        let lock_wait = opts.lock_wait_ms;
        handles.push(std::thread::spawn(move || {
            // Inherit the resilient_invoke span: each PET's invocation
            // becomes a child in the same trace instead of a new root.
            let _trace = pet_ctx.is_some().then(|| clouds_obs::install_ctx(pet_ctx));
            let owner = PET_OWNER.fetch_add(1, Ordering::Relaxed) | (0xBE7u64 << 48);
            let hooks = Arc::new(RemoteLockHooks::new(
                Arc::clone(compute.ratp()),
                Arc::clone(compute.dsm()),
                lock_wait,
            ));
            let session = CpSession::new(owner, Arc::clone(&hooks) as _);
            let outcome = compute
                .invoke(target, &entry, &args, Some(Arc::clone(&session)))
                .map(|bytes| (bytes, session.take_shadows()));
            session.discard_shadows();
            hooks.release_all(owner);
            compute.ratp().obs().instant(
                "pet",
                "pet_run",
                format!("pet={pet} replica={replica} ok={}", outcome.is_ok()),
            );
            PetResult {
                pet,
                replica,
                compute,
                outcome,
            }
        }));
    }

    let mut completed = Vec::new();
    let mut failed = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(result) => match result.outcome {
                Ok((bytes, shadows)) => {
                    completed.push((result.pet, result.replica, result.compute, bytes, shadows))
                }
                Err(e) => failed.push((result.pet, e.to_string())),
            },
            Err(_) => failed.push((usize::MAX, "pet thread panicked".to_string())),
        }
    }
    if completed.is_empty() {
        return Err(CloudsError::ThreadFailed(format!(
            "no parallel execution thread completed ({} failures: {:?})",
            failed.len(),
            failed
        )));
    }

    // Phase 2: pick a terminating thread and propagate its updates to a
    // quorum of replicas. "If there is a failure in committing this
    // thread, another completed thread is chosen."
    let mut last_commit_error = None;
    for (pet, replica, compute, bytes, shadows) in completed {
        match commit_to_quorum(&compute, robj, replica, &shadows, quorum) {
            Ok(committed_replicas) => {
                obs.instant(
                    "pet",
                    "terminate",
                    format!("pet={pet} replicas={}", committed_replicas.len()),
                );
                return Ok(PetOutcome {
                    result: bytes,
                    winner: pet,
                    committed_replicas,
                    failed_pets: failed,
                });
            }
            Err(e) => last_commit_error = Some(e),
        }
    }
    Err(last_commit_error.unwrap_or_else(|| {
        CloudsError::ConsistencyAbort("no terminating thread could commit".into())
    }))
}

/// Propagate the winner's shadow pages to every replica, demanding at
/// least `quorum` full per-replica installs. Each replica's segments are
/// co-located on one data server, so the per-replica install is atomic
/// there (the participant's `ApplyLocal`).
fn commit_to_quorum(
    compute: &ComputeServer,
    robj: &ReplicatedObject,
    winner_replica: usize,
    shadows: &[((SysName, u32), Vec<u8>)],
    quorum: usize,
) -> Result<Vec<usize>, CloudsError> {
    if shadows.is_empty() {
        // Read-only computation: every live replica is trivially current.
        return Ok((0..robj.degree()).collect());
    }
    let txn = PET_TXN.fetch_add(1, Ordering::Relaxed) | (0x9E7u64 << 48);
    let mut committed = Vec::new();
    for target in 0..robj.degree() {
        let mut pages = Vec::with_capacity(shadows.len());
        for ((seg, page), data) in shadows {
            match robj.translate_segment(winner_replica, target, *seg) {
                Some(tseg) => pages.push(WireWriteBack {
                    seg: tseg,
                    page: *page,
                    data: PageBytes::copy_from_slice(data),
                }),
                None => {
                    // The PET wrote outside the replicated object (e.g. a
                    // nested invocation of a non-replicated object): that
                    // update belongs to exactly one physical object and is
                    // applied only once, with the winner's replica.
                    if target == winner_replica {
                        pages.push(WireWriteBack {
                            seg: *seg,
                            page: *page,
                            data: PageBytes::copy_from_slice(data),
                        });
                    }
                }
            }
        }
        let home = robj.replica(target).home_node();
        let req = CommitRequest::ApplyLocal { txn, pages };
        let payload = bytes::Bytes::from(clouds_codec::to_bytes(&req).expect("encodes"));
        let applied = compute
            .ratp()
            .call_with_budget(home, ports::COMMIT, payload, 60)
            .ok()
            .and_then(|b| clouds_codec::from_bytes::<CommitReply>(&b).ok())
            == Some(CommitReply::Ok);
        compute.ratp().obs().instant(
            "pet",
            "replica_vote",
            format!("replica={target} accepted={applied}"),
        );
        compute
            .ratp()
            .obs()
            .counter(if applied {
                "pet.replica_accepts"
            } else {
                "pet.replica_rejects"
            })
            .inc();
        if applied {
            committed.push(target);
        }
    }
    if committed.len() >= quorum {
        Ok(committed)
    } else {
        Err(CloudsError::ConsistencyAbort(format!(
            "only {}/{} replicas accepted the terminating thread (quorum {quorum})",
            committed.len(),
            robj.degree()
        )))
    }
}

/// Read from the first reachable replica, preferring the given order.
///
/// # Errors
///
/// The last replica's error if none are reachable.
pub fn read_any(
    compute: &ComputeServer,
    robj: &ReplicatedObject,
    entry: &str,
    args: &[u8],
    prefer: &[usize],
) -> Result<Vec<u8>, CloudsError> {
    let mut order: Vec<usize> = prefer.to_vec();
    for i in 0..robj.degree() {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    let mut last = None;
    for i in order {
        match compute.invoke(robj.replica(i).sysname, entry, args, None) {
            Ok(bytes) => return Ok(bytes),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| CloudsError::ThreadFailed("no replicas".into())))
}
