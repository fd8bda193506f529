//! End-to-end tests for §5.2.1: s/lcp/gcp threads, automatic locking,
//! shadow recovery, two-phase commit, and crash recovery.

#![allow(
    clippy::disallowed_methods,
    reason = "real-time windows open the interleavings under test"
)]

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_codec::PageBytes;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_dsm::proto::{self, CommitReply, CommitRequest, DsmReply, DsmRequest, WireWriteBack};
use clouds_dsm::{ports, DsmServer, LockMode, LockOutcome, LockRequest};
use clouds_ra::PAGE_SIZE;
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId};
use clouds_store::{Crashed, InDoubt, IntentPage, ReplicaRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A bank account whose deposits are labeled GCP and whose
/// unsafe_deposit stays an s-thread — the paper's "interesting (as well
/// as dangerous) execution time possibilities".
struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" | "unsafe_deposit" | "lcp_deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "slow_deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)?;
                // Window for an s-thread to sneak in between the
                // cp-thread's read and its commit.
                std::thread::sleep(std::time::Duration::from_millis(80));
                ctx.persistent().write_u64(0, v + amount)?;
                encode_result(&(v + amount))
            }
            "fail_after_write" => {
                ctx.persistent().write_u64(0, 999_999)?;
                Err(CloudsError::Application("deliberate failure".into()))
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "deposit" | "slow_deposit" | "fail_after_write" => OperationLabel::Gcp,
            "lcp_deposit" => OperationLabel::Lcp,
            _ => OperationLabel::S,
        }
    }
}

/// Transfers between two accounts stored in *different objects* (and,
/// with two data servers, usually on different nodes): the classic
/// atomicity workload.
struct Transfer;

impl ObjectCode for Transfer {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "move" => {
                let (from, to, amount): (SysName, SysName, u64) = decode_args(args)?;
                move_between(ctx, from, to, amount)
            }
            // A move that also reads `witness`, locking its segment for
            // reading only.
            "witnessed_move" => {
                let ((from, to, amount), witness): ((SysName, SysName, u64), SysName) =
                    decode_args(args)?;
                ctx.invoke(witness, "balance", &clouds::encode_args(&())?)?;
                move_between(ctx, from, to, amount)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "move" | "witnessed_move" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }
}

/// Withdraw `amount` from `from`, then deposit it at `to`.
fn move_between(ctx: &mut Invocation<'_>, from: SysName, to: SysName, amount: u64) -> EntryResult {
    let balance: u64 = decode_args(&ctx.invoke(from, "balance", &clouds::encode_args(&())?)?)?;
    if balance < amount {
        return Err(CloudsError::Application("insufficient funds".into()));
    }
    ctx.invoke(from, "set", &clouds::encode_args(&(balance - amount))?)?;
    let to_balance: u64 = decode_args(&ctx.invoke(to, "balance", &clouds::encode_args(&())?)?)?;
    ctx.invoke(to, "set", &clouds::encode_args(&(to_balance + amount))?)?;
    encode_result(&())
}

/// Raw account with set/balance for the transfer tests.
struct RawAccount;

impl ObjectCode for RawAccount {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "set" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&())
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// A cluster with the test classes registered and no consistency
/// runtime; `server_ratp` overrides the servers' RaTP budget.
fn cluster(computes: usize, datas: usize, server_ratp: Option<RatpConfig>) -> Cluster {
    let mut builder = Cluster::builder()
        .compute_servers(computes)
        .data_servers(datas)
        .workstations(0)
        .cost_model(CostModel::zero());
    if let Some(config) = server_ratp {
        builder = builder.server_ratp_config(config);
    }
    let cluster = builder.build().unwrap();
    cluster.register_class("account", Account).unwrap();
    cluster.register_class("raw-account", RawAccount).unwrap();
    cluster.register_class("transfer", Transfer).unwrap();
    cluster
}

fn bed(computes: usize, datas: usize) -> (Cluster, Arc<ConsistencyRuntime>) {
    let cluster = cluster(computes, datas, None);
    let runtime = ConsistencyRuntime::install(&cluster);
    (cluster, runtime)
}

/// One commit-protocol call from `from` to the data server `node`.
fn commit_call(from: &Arc<RatpNode>, node: NodeId, req: &CommitRequest) -> CommitReply {
    let reply = from.call(node, ports::COMMIT, proto::encode(req)).unwrap();
    proto::decode(&reply).unwrap()
}

/// A `Decide` proposing `commit` for `txn`, settling nothing.
fn decide(txn: u64, commit: bool) -> CommitRequest {
    let settled = vec![];
    CommitRequest::Decide {
        txn,
        commit,
        settled,
    }
}

#[test]
fn gcp_deposit_commits_durably() {
    let (cluster, runtime) = bed(1, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let v: u64 = decode_args(
        &runtime
            .invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&50u64).unwrap())
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v, 50);
    // Visible to a plain s-thread afterwards.
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 50);
    assert_eq!(runtime.stats().commits, 1);
}

#[test]
fn failed_gcp_thread_leaves_no_trace() {
    let (cluster, runtime) = bed(1, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let err = runtime
        .invoke_labeled(
            cs,
            acct,
            "fail_after_write",
            &clouds::encode_args(&()).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, CloudsError::Application(_)));
    // The write inside the failed cp-thread was a shadow: discarded.
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 0);
}

#[test]
fn read_only_gcp_thread_commits_nothing() {
    let (cluster, runtime) = bed(1, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &runtime
            .invoke(
                cs,
                OperationLabel::Gcp,
                acct,
                "balance",
                &clouds::encode_args(&()).unwrap(),
                &CpOptions::default(),
            )
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 0);
    assert_eq!(cluster.data_server(0).dsm().log().intents().len(), 0);
}

#[test]
fn lcp_deposit_commits() {
    let (cluster, runtime) = bed(1, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let cs = cluster.compute(0);
    for _ in 0..3 {
        runtime
            .invoke_labeled(
                cs,
                acct,
                "lcp_deposit",
                &clouds::encode_args(&10u64).unwrap(),
            )
            .unwrap();
    }
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 30);
}

#[test]
fn concurrent_gcp_deposits_never_lose_updates() {
    let (cluster, runtime) = bed(2, 2);
    let acct = cluster.create_object("account", "A").unwrap();
    let mut handles = Vec::new();
    for i in 0..4 {
        let cs = cluster.compute(i % 2).clone();
        let runtime = Arc::clone(&runtime);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke_labeled(&cs, acct, "deposit", &clouds::encode_args(&1u64).unwrap())
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 40);
    assert_eq!(runtime.stats().commits, 40);
    assert_eq!(runtime.stats().failures, 0);
}

#[test]
fn s_threads_do_lose_updates_under_contention() {
    // The control experiment: the same workload WITHOUT cp semantics
    // exhibits lost updates — the paper's motivation for cp-threads.
    // (Not guaranteed every run; we only assert it never exceeds the
    // true total, and run enough rounds that losses are overwhelmingly
    // likely. If this test ever flakes "all updates survived", increase
    // the rounds.)
    let (cluster, _runtime) = bed(2, 1);
    let acct = cluster.create_object("account", "A").unwrap();
    let mut handles = Vec::new();
    for i in 0..4 {
        let cs = cluster.compute(i % 2).clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let _ = cs.invoke(
                    acct,
                    "unsafe_deposit",
                    &clouds::encode_args(&1u64).unwrap(),
                    None,
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let cs = cluster.compute(0);
    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert!(balance <= 200, "balance {balance}");
}

#[test]
fn gcp_transfer_across_data_servers_is_atomic() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    // Force the two accounts onto different data servers.
    let from = cs
        .create_object(
            "raw-account",
            Some("From"),
            Some(cluster.data_server(1).node_id()),
        )
        .unwrap();
    let to = cs
        .create_object(
            "raw-account",
            Some("To"),
            Some(cluster.data_server(2).node_id()),
        )
        .unwrap();
    let mover = cs.create_object("transfer", Some("Mover"), None).unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
        .unwrap();

    runtime
        .invoke_labeled(
            cs,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 30u64)).unwrap(),
        )
        .unwrap();

    let f: u64 = decode_args(
        &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    let t: u64 = decode_args(
        &cs.invoke(to, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((f, t), (70, 30));

    // Insufficient funds: whole transfer rolls back, nothing moves.
    let err = runtime
        .invoke_labeled(
            cs,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 1000u64)).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, CloudsError::Application(_)));
    let f2: u64 = decode_args(
        &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(f2, 70);
}

#[test]
fn deadlock_is_broken_by_timeout_and_retry() {
    // Two transfer threads in opposite directions: the canonical
    // deadlock. Lock-wait timeouts abort one side; retries succeed.
    let (cluster, runtime) = bed(2, 2);
    let cs0 = cluster.compute(0).clone();
    let cs1 = cluster.compute(1).clone();
    let a = cs0
        .create_object("raw-account", Some("AcctA"), None)
        .unwrap();
    let b = cs0
        .create_object("raw-account", Some("AcctB"), None)
        .unwrap();
    let mover = cs0.create_object("transfer", Some("M"), None).unwrap();
    cs0.invoke(a, "set", &clouds::encode_args(&500u64).unwrap(), None)
        .unwrap();
    cs0.invoke(b, "set", &clouds::encode_args(&500u64).unwrap(), None)
        .unwrap();

    let opts = CpOptions {
        lock_wait_ms: 150,
        max_retries: 30,
    };
    let r1 = {
        let runtime = Arc::clone(&runtime);
        let opts = opts.clone();
        std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke(
                        &cs0,
                        OperationLabel::Gcp,
                        mover,
                        "move",
                        &clouds::encode_args(&(a, b, 1u64)).unwrap(),
                        &opts,
                    )
                    .unwrap();
            }
        })
    };
    let r2 = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            for _ in 0..10 {
                runtime
                    .invoke(
                        &cs1,
                        OperationLabel::Gcp,
                        mover,
                        "move",
                        &clouds::encode_args(&(b, a, 1u64)).unwrap(),
                        &opts,
                    )
                    .unwrap();
            }
        })
    };
    r1.join().unwrap();
    r2.join().unwrap();

    let cs = cluster.compute(0);
    let fa: u64 = decode_args(
        &cs.invoke(a, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    let fb: u64 = decode_args(
        &cs.invoke(b, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    // Equal and opposite transfers: totals preserved and balanced.
    assert_eq!(fa + fb, 1000);
    assert_eq!(fa, 500);
    assert_eq!(runtime.stats().commits, 20);
}

#[test]
fn participant_crash_between_prepare_and_commit_recovers() {
    let (cluster, runtime) = bed(1, 2);
    let cs = cluster.compute(0);
    let acct = cs
        .create_object("account", Some("A"), Some(cluster.data_server(1).node_id()))
        .unwrap();

    // Normal committed deposit to learn the txn machinery works.
    runtime
        .invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&5u64).unwrap())
        .unwrap();

    // Simulate a participant that prepared and then crashed before the
    // commit message: stage pages directly, record the outcome, crash,
    // restart, recover.
    let participant = cluster.data_server(1).dsm();
    let seg = {
        // Find the account's data segment by reading its meta.
        let meta = clouds::object::ObjectMeta::load(
            &**cluster.compute(0).object_manager().partition(),
            acct,
        )
        .unwrap();
        meta.data_seg
    };
    let (_, mut page) = cluster
        .data_server(1)
        .dsm()
        .log()
        .read_page(seg, 0)
        .unwrap()
        .unwrap();
    page[..8].copy_from_slice(&777u64.to_le_bytes());

    // Stage via the wire path.
    let txn = 0xFEED;
    let prepare = CommitRequest::Prepare {
        txn,
        pages: vec![WireWriteBack {
            seg,
            page: 0,
            data: page.into(),
        }],
    };
    let [registry, home] = [0, 1].map(|i| cluster.data_server(i).node_id());
    assert_eq!(commit_call(cs.ratp(), home, &prepare), CommitReply::Ok);
    assert_eq!(participant.log().intents().len(), 1);
    assert_eq!(
        commit_call(cs.ratp(), registry, &decide(txn, true)),
        CommitReply::Committed
    );

    // Crash + restart the participant's node; recovery must install.
    cluster.crash_data_server(1);
    cluster.restart_data_server(1);
    let (installed, aborted) = participant.recover_intents();
    assert_eq!((installed, aborted), (1, 0));

    let balance: u64 = decode_args(
        &cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(balance, 777);
}

/// The data segment of `obj`.
fn data_seg(cs: &clouds::ComputeServer, obj: SysName) -> SysName {
    clouds::object::ObjectMeta::load(&**cs.object_manager().partition(), obj)
        .unwrap()
        .data_seg
}

/// The `u64` at the start of `seg`, read in its data server's log (0 if
/// never written; `seg` must be live).
fn stored_u64(ds: &clouds::node::DataServer, seg: SysName) -> u64 {
    ds.dsm().log().segment_len(seg).expect("segment live");
    let read = ds.dsm().log().read_page(seg, 0).expect("not in doubt");
    read.map_or(0, |(_, page)| {
        u64::from_le_bytes(page[..8].try_into().unwrap())
    })
}

/// Settled outcomes are forgotten: however many transfers commit, the
/// registry host caches one outcome and its log index holds no more live
/// slots than after the first.
#[test]
fn the_registry_forgets_every_settled_transfer() {
    const TRANSFERS: u64 = 2_000;
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let [one, two] = [1, 2].map(|i| cluster.data_server(i).node_id());
    let from = cs
        .create_object("raw-account", Some("From"), Some(one))
        .unwrap();
    let to = cs
        .create_object("raw-account", Some("To"), Some(two))
        .unwrap();
    let mover = cs
        .create_object("transfer", Some("Mover"), Some(one))
        .unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&TRANSFERS).unwrap(), None)
        .unwrap();
    let transfer = || {
        let args = clouds::encode_args(&(from, to, 1u64)).unwrap();
        runtime.invoke_labeled(cs, mover, "move", &args).unwrap();
    };
    transfer();
    let log = cluster.data_server(0).dsm().log();
    let before = log.stats();
    for _ in 1..TRANSFERS {
        transfer();
    }
    let after = log.stats();
    assert_eq!(runtime.stats().commits, TRANSFERS);
    assert_eq!(stored_u64(cluster.data_server(1), data_seg(cs, from)), 0);
    assert_eq!(
        stored_u64(cluster.data_server(2), data_seg(cs, to)),
        TRANSFERS
    );
    let registry = cluster.data_server(0).dsm();
    assert!(
        registry.log().outcomes().len() <= 1,
        "registry caches {} outcomes",
        registry.log().outcomes().len()
    );
    assert!(
        after.live_slots <= before.live_slots,
        "registry host's live slots grew {} → {}",
        before.live_slots,
        after.live_slots
    );
    // An 18-byte verdict and a 17-byte settlement a transfer, reclaimed by
    // compaction once their log segment seals: the media never holds more
    // than two segments' worth of them.
    assert!(
        after.media_bytes - before.media_bytes <= 2 * clouds_store::LOG_SEGMENT_BYTES as u64,
        "registry host's media grew {} → {}",
        before.media_bytes,
        after.media_bytes
    );
}

/// A participant that misses phase 2 answers something other than `Ok`,
/// so the transaction is not settled: the registry keeps its outcome
/// while later transactions settle, the participant refuses the
/// `Commit` while its crashed server awaits the replay, and its
/// crash-and-recover still installs the pages.
#[test]
fn a_participant_that_misses_phase_two_keeps_the_outcome_it_needs() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let [one, two] = [1, 2].map(|i| cluster.data_server(i).node_id());
    let from = cs
        .create_object("raw-account", Some("From"), Some(one))
        .unwrap();
    let to = cs
        .create_object("raw-account", Some("To"), Some(two))
        .unwrap();
    let mover = cs
        .create_object("transfer", Some("Mover"), Some(one))
        .unwrap();
    let side = cs
        .create_object("account", Some("Side"), Some(one))
        .unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
        .unwrap();

    // The second server swallows phase 2: it installs nothing and says so.
    let participant = Arc::clone(cluster.data_server(2).dsm());
    let ratp = cluster.data_server(2).ratp();
    let missed = Arc::new(parking_lot::Mutex::new(Vec::new()));
    {
        let (participant, missed) = (Arc::clone(&participant), Arc::clone(&missed));
        ratp.register_service(ports::COMMIT, move |req: Request| {
            if let Ok(CommitRequest::Commit { txn }) = clouds_codec::from_bytes(&req.payload) {
                missed.lock().push(txn);
                return bytes::Bytes::from(clouds_codec::to_bytes(&CommitReply::Refused).unwrap());
            }
            participant.serve_commit_wire(req.src, &req.payload)
        });
    }
    let args = clouds::encode_args(&(from, to, 30u64)).unwrap();
    runtime.invoke_labeled(cs, mover, "move", &args).unwrap();
    let txn = match missed.lock()[..] {
        [txn] => txn,
        ref other => panic!("phase 2 reached the second server {other:?}"),
    };
    assert_eq!(participant.log().intents().len(), 1);
    {
        let participant = Arc::clone(&participant);
        ratp.register_service(ports::COMMIT, move |req: Request| {
            participant.serve_commit_wire(req.src, &req.payload)
        });
    }

    // Two more commits: the first is settled by the second's `Decide`,
    // and the missed one is not.
    for _ in 0..2 {
        runtime
            .invoke_labeled(cs, side, "deposit", &clouds::encode_args(&1u64).unwrap())
            .unwrap();
    }
    let registry = cluster.data_server(0).dsm();
    assert_eq!(registry.log().outcome(txn), Ok(Some(true)));
    assert_eq!(
        registry.log().outcomes().len(),
        2,
        "the missed txn and the last deposit"
    );

    // The second server loses its memory; until it has re-staged its
    // intents from the log it cannot say a `Commit` was installed. The
    // network is restored first, so the `Commit` reaches the server
    // between its crash and its replay.
    cluster.crash_data_server(2);
    assert_eq!(participant.log().intents().len(), 0);
    cluster.network().restart(two);
    // `cs` dropped its copy of `To` before the transfer's `Commit`, and
    // has not read it since: it may send one.
    assert_eq!(
        commit_call(cs.ratp(), two, &CommitRequest::Commit { txn }),
        CommitReply::Refused
    );
    cluster.restart_data_server(2);
    assert_eq!(participant.log().intents().len(), 1);
    assert_eq!(participant.recover_intents(), (1, 0));
    assert_eq!(stored_u64(cluster.data_server(2), data_seg(cs, to)), 30);
    assert_eq!(stored_u64(cluster.data_server(1), data_seg(cs, from)), 70);
}

/// A data server's crash takes its participant's staged table with the
/// rest of its DRAM, and the restart's log replay alone brings the
/// intent back: a `Commit` then installs the prepared image.
#[test]
fn a_crash_loses_the_staged_table_and_the_replay_restores_it() {
    let cluster = cluster(1, 2, None);
    let cs = cluster.compute(0);
    let ds = cluster.data_server(1);
    let acct = cs
        .create_object("account", Some("A"), Some(ds.node_id()))
        .unwrap();
    let seg = data_seg(cs, acct);
    // The `Commit` below comes from `cs`, which holds no copy of the
    // page, as a `Commit`'s sender must.
    assert!(!cs.dsm().cache().discard((seg, 0)));
    let commit = |req: &CommitRequest| commit_call(cs.ratp(), ds.node_id(), req);
    let mut data = vec![0u8; PAGE_SIZE];
    data[..8].copy_from_slice(&4242u64.to_le_bytes());
    let txn = 0xD1CE;
    let pages = vec![WireWriteBack {
        seg,
        page: 0,
        data: data.into(),
    }];
    assert_eq!(
        commit(&CommitRequest::Prepare { txn, pages }),
        CommitReply::Ok
    );
    assert_eq!(ds.dsm().log().intents().len(), 1);

    cluster.crash_data_server(1);
    assert_eq!(
        ds.dsm().log().intents().len(),
        0,
        "the crashed machine kept its staged table"
    );
    cluster.restart_data_server(1);
    assert_eq!(
        ds.dsm().log().intents().len(),
        1,
        "the replay did not re-stage the intent"
    );
    assert_eq!(commit(&CommitRequest::Commit { txn }), CommitReply::Ok);
    assert_eq!(ds.dsm().log().intents().len(), 0);
    assert_eq!(stored_u64(ds, seg), 4242);
}

/// Every data server is a 2PC participant from boot: with no consistency
/// runtime installed, a `Prepare` is answered and staged.
#[test]
fn a_data_server_serves_two_phase_commit_from_boot() {
    let cluster = cluster(1, 2, None);
    let cs = cluster.compute(0);
    let ds = cluster.data_server(1);
    let acct = cs
        .create_object("account", Some("A"), Some(ds.node_id()))
        .unwrap();
    let prepare = CommitRequest::Prepare {
        txn: 1,
        pages: vec![WireWriteBack {
            seg: data_seg(cs, acct),
            page: 0,
            data: vec![1u8; PAGE_SIZE].into(),
        }],
    };
    assert_eq!(
        commit_call(cs.ratp(), ds.node_id(), &prepare),
        CommitReply::Ok
    );
    assert_eq!(ds.dsm().log().intents().len(), 1);
}

/// Recovery drops an intent only on the registry's `Aborted`. While the
/// registry host is down there is no verdict, and the intent — here a
/// committed one — stays staged until the host is back.
#[test]
fn recovery_keeps_an_intent_in_doubt_while_the_registry_is_down() {
    // A short budget, so asking the dead registry host fails fast.
    let short = RatpConfig {
        retry_interval: std::time::Duration::from_millis(5),
        max_retries: 40,
    };
    let cluster = cluster(1, 2, Some(short));
    let cs = cluster.compute(0);
    let ds = cluster.data_server(1);
    let registry = cluster.data_server(0).node_id();
    let acct = cs
        .create_object("account", Some("A"), Some(ds.node_id()))
        .unwrap();
    let seg = data_seg(cs, acct);
    let txn = 0xD0B7;
    let mut data = vec![0u8; PAGE_SIZE];
    data[..8].copy_from_slice(&31337u64.to_le_bytes());
    let prepare = CommitRequest::Prepare {
        txn,
        pages: vec![WireWriteBack {
            seg,
            page: 0,
            data: data.into(),
        }],
    };
    assert_eq!(
        commit_call(cs.ratp(), ds.node_id(), &prepare),
        CommitReply::Ok
    );
    assert_eq!(
        commit_call(cs.ratp(), registry, &decide(txn, true)),
        CommitReply::Committed
    );

    cluster.crash_data_server(0);
    assert_eq!(
        ds.dsm().recover_intents(),
        (0, 0),
        "no verdict is not a presumed abort"
    );
    assert_eq!(
        ds.dsm().log().intents().len(),
        1,
        "the intent in doubt was retired"
    );

    cluster.restart_data_server(0);
    assert_eq!(ds.dsm().recover_intents(), (1, 0));
    assert_eq!(ds.dsm().log().intents().len(), 0);
    assert_eq!(stored_u64(ds, seg), 31337);
}

/// Between its crash and its replay the registry host's outcome table is
/// empty, not valid: it refuses to decide rather than log an abort for a
/// committed transaction. After the replay the commit, logged first,
/// answers every later proposal.
#[test]
fn the_registry_refuses_a_verdict_until_its_table_is_replayed() {
    let cluster = cluster(1, 2, None);
    let cs = cluster.compute(0);
    let registry = cluster.data_server(0).node_id();
    let txn = 0x0DD;
    assert_eq!(
        commit_call(cs.ratp(), registry, &decide(txn, true)),
        CommitReply::Committed
    );
    let query = decide(txn, false);

    cluster.crash_data_server(0);
    cluster.network().restart(registry);
    assert_eq!(
        commit_call(cs.ratp(), registry, &query),
        CommitReply::Refused
    );

    cluster.restart_data_server(0);
    assert_eq!(
        commit_call(cs.ratp(), registry, &query),
        CommitReply::Committed
    );
}

/// Accounts `from` (100, homed on data server 1, participant P) and `to`
/// (0, on data server 2, Q) with a mover between them; the registry is on
/// data server 0. `computes` compute servers; `server_ratp` as for
/// [`cluster`].
fn two_participants(
    computes: usize,
    server_ratp: Option<RatpConfig>,
) -> (Cluster, Arc<ConsistencyRuntime>) {
    let cluster = cluster(computes, 3, server_ratp);
    let runtime = ConsistencyRuntime::install(&cluster);
    let cs = cluster.compute(0);
    let [p, q] = [1, 2].map(|i| Some(cluster.data_server(i).node_id()));
    let from = cs.create_object("raw-account", Some("From"), p).unwrap();
    cs.create_object("raw-account", Some("To"), q).unwrap();
    cs.create_object("transfer", Some("Mover"), p).unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
        .unwrap();
    (cluster, runtime)
}

/// Move 30 from `From` to `To` once, with no retry, as a gcp-thread on
/// compute server `on`.
fn move_30(
    cluster: &Cluster,
    runtime: &ConsistencyRuntime,
    on: usize,
) -> Result<Vec<u8>, CloudsError> {
    let cs = cluster.compute(on);
    let [from, to, mover] = ["From", "To", "Mover"].map(|n| cluster.naming().lookup(n).unwrap());
    let args = clouds::encode_args(&(from, to, 30u64)).unwrap();
    let opts = CpOptions {
        lock_wait_ms: 800,
        max_retries: 0,
    };
    runtime.invoke(cs, OperationLabel::Gcp, mover, "move", &args, &opts)
}

/// The two balances as P's and Q's logs hold them.
fn balances(cluster: &Cluster) -> (u64, u64) {
    let cs = cluster.compute(0);
    let [from, to] = ["From", "To"].map(|n| data_seg(cs, cluster.naming().lookup(n).unwrap()));
    let [p, q] = [1, 2].map(|i| cluster.data_server(i));
    (stored_u64(p, from), stored_u64(q, to))
}

/// Whether a commit-wire payload is a `Decide`.
fn is_decide(payload: &[u8]) -> bool {
    matches!(
        clouds_codec::from_bytes(payload),
        Ok(CommitRequest::Decide { .. })
    )
}

/// The registry logs the coordinator's commit and is then cut off from it
/// for the whole retry budget, and P is down across what the coordinator
/// does next. With no verdict the coordinator sends neither phase 2 (an
/// `Abort` here would reach only Q, and P's recovery would then install
/// half a transfer). Once P is back, recovery installs it at both.
#[test]
fn an_unanswered_decide_leaves_the_transfer_in_doubt_not_half_applied() {
    // A short budget, so the cut-off calls fail fast.
    let short = RatpConfig {
        retry_interval: std::time::Duration::from_millis(5),
        max_retries: 40,
    };
    let (cluster, runtime) = two_participants(1, Some(short));
    let [registry, p] = [0, 1].map(|i| cluster.data_server(i).node_id());
    let coordinator = cluster.compute(0).node_id();
    let host = Arc::clone(cluster.data_server(0).dsm());
    let net = cluster.network().clone();
    let armed = AtomicBool::new(true);
    let ratp = cluster.data_server(0).ratp();
    ratp.register_service(ports::COMMIT, move |req: Request| {
        let reply = host.serve_commit_wire(req.src, &req.payload);
        if is_decide(&req.payload) && armed.swap(false, Ordering::SeqCst) {
            net.partition(&[registry], &[coordinator]);
            net.crash(p);
        }
        reply
    });

    let err = move_30(&cluster, &runtime, 0).unwrap_err();
    assert!(matches!(err, CloudsError::InDoubt(_)), "{err}");
    let obs = cluster.compute(0).ratp().obs().registry();
    assert_eq!(obs.counter_value("2pc.in_doubt"), 1);
    assert_eq!(obs.counter_value("2pc.aborts"), 0);

    cluster.network().heal();
    cluster.crash_data_server(1);
    cluster.restart_data_server(1);
    for i in [1, 2] {
        let resolved = cluster.data_server(i).dsm().recover_intents();
        assert_eq!(resolved, (1, 0), "data server {i}");
    }
    assert_eq!(balances(&cluster), (70, 30), "half applied");
}

/// The early-query race: P's recovery proposes abort for a txn whose
/// coordinator has not decided yet. The first writer wins, so the
/// coordinator's commit proposal hears `Aborted` and neither account
/// moves (a presumed abort at P beside a commit at Q would move one).
#[test]
fn a_recovering_participant_that_decides_first_aborts_the_whole_transfer() {
    let (cluster, runtime) = two_participants(1, None);
    let host = Arc::clone(cluster.data_server(0).dsm());
    let p = Arc::clone(cluster.data_server(1).dsm());
    let armed = AtomicBool::new(true);
    let early = Arc::new(parking_lot::Mutex::new(None));
    {
        let early = Arc::clone(&early);
        let ratp = cluster.data_server(0).ratp();
        ratp.register_service(ports::COMMIT, move |req: Request| {
            if is_decide(&req.payload) && armed.swap(false, Ordering::SeqCst) {
                let resolved = p.recover_intents();
                *early.lock() = Some(resolved);
            }
            host.serve_commit_wire(req.src, &req.payload)
        });
    }

    let outcome = move_30(&cluster, &runtime, 0);
    assert_eq!(balances(&cluster), (100, 0), "half applied");
    assert_eq!(*early.lock(), Some((0, 1)), "P's early recovery aborted");
    let err = outcome.unwrap_err();
    assert!(matches!(err, CloudsError::ConsistencyAbort(_)), "{err}");
    for i in [1, 2] {
        assert!(cluster.data_server(i).dsm().log().intents().is_empty());
    }
}

/// The balance of account `name` as an s-thread on compute server `on`
/// reads it: through its cache, faulting in what it does not hold.
fn read_balance(cluster: &Cluster, on: usize, name: &str) -> u64 {
    let account = cluster.naming().lookup(name).unwrap();
    let unit = clouds::encode_args(&()).unwrap();
    let reply = cluster.compute(on).invoke(account, "balance", &unit, None);
    decode_args(&reply.unwrap()).unwrap()
}

/// Make data server `i` answer every `Commit` with `Refused`, serving
/// none of it, while `armed` holds: to the coordinator, a participant
/// cut off for the whole phase 2. Its `ReleaseAll` still gets through.
fn miss_commits(cluster: &Cluster, i: usize, armed: &Arc<AtomicBool>) {
    let (participant, armed) = (Arc::clone(cluster.data_server(i).dsm()), Arc::clone(armed));
    let ratp = cluster.data_server(i).ratp();
    ratp.register_service(ports::COMMIT, move |req: Request| {
        let commit = matches!(
            clouds_codec::from_bytes(&req.payload),
            Ok(CommitRequest::Commit { .. })
        );
        if commit && armed.load(Ordering::SeqCst) {
            return proto::encode(&CommitReply::Refused);
        }
        participant.serve_commit_wire(req.src, &req.payload)
    });
}

/// The registry logs the coordinator's commit, whose `Decide` wrapper
/// then cuts the coordinator off from both participants for its whole
/// phase 2 and its `ReleaseAll`, as ROADMAP 17's scenario does.
fn cut_off_after_the_verdict(cluster: &Cluster) {
    let [p, q] = [1, 2].map(|i| cluster.data_server(i).node_id());
    let coordinator = cluster.compute(0).node_id();
    let host = Arc::clone(cluster.data_server(0).dsm());
    let net = cluster.network().clone();
    let armed = AtomicBool::new(true);
    let ratp = cluster.data_server(0).ratp();
    ratp.register_service(ports::COMMIT, move |req: Request| {
        let reply = host.serve_commit_wire(req.src, &req.payload);
        if is_decide(&req.payload) && armed.swap(false, Ordering::SeqCst) {
            net.partition(&[coordinator], &[p, q]);
        }
        reply
    });
}

/// ROADMAP 17: the transfer commits at the registry and misses phase 2
/// at both participants. Healed, an s-thread on compute server `on`
/// reads the two accounts and must see the committed transfer, not the
/// pre-images.
fn a_missed_phase_two_then_a_read_on(on: usize) {
    // A short budget, so the cut-off calls fail fast.
    let short = RatpConfig {
        retry_interval: std::time::Duration::from_millis(5),
        max_retries: 40,
    };
    let (cluster, runtime) = two_participants(2, Some(short));
    cut_off_after_the_verdict(&cluster);
    move_30(&cluster, &runtime, 0).unwrap();
    let obs = cluster.compute(0).ratp().obs().registry();
    assert_eq!(obs.counter_value("2pc.phase2_unacked"), 1);
    assert_eq!(
        still_staged(&cluster),
        [1, 1],
        "phase 2 reached a participant"
    );

    cluster.network().heal();
    let read = ["From", "To"].map(|name| read_balance(&cluster, on, name));
    assert_eq!(read, [70, 30], "the read served a pre-image");
    assert_eq!(still_staged(&cluster), [0, 0]);
    assert_eq!(balances(&cluster), (70, 30));
}

/// The read runs on the other compute server: each fetch finds its page
/// staged and resolves the intent where it was touched.
#[test]
fn a_read_after_a_missed_phase_two_sees_the_committed_transfer() {
    a_missed_phase_two_then_a_read_on(1);
}

/// The read runs on the coordinator's own compute server, which cached
/// both pre-images while the transfer ran: it must not serve them from
/// its cache.
#[test]
fn the_coordinator_reads_no_pre_image_it_cached_after_a_missed_phase_two() {
    a_missed_phase_two_then_a_read_on(0);
}

/// The intents P and Q still stage.
fn still_staged(cluster: &Cluster) -> [usize; 2] {
    [1, 2].map(|i| cluster.data_server(i).dsm().log().intents().len())
}

/// A missed phase 2 at both participants — their `ReleaseAll` gets
/// through — and the next gcp runs on a compute server whose cache still
/// holds both pre-images, read there before the transfer: it faults
/// nothing in. Its lock acquires find the intents staged and resolve
/// them, and the installs recall the cached pre-images, so the second
/// transfer builds on the first.
#[test]
fn the_next_gcp_does_not_build_on_pre_images_its_node_cached() {
    let (cluster, runtime) = two_participants(2, None);
    assert_eq!(
        ["From", "To"].map(|n| read_balance(&cluster, 1, n)),
        [100, 0]
    );
    let armed = Arc::new(AtomicBool::new(true));
    for i in [1, 2] {
        miss_commits(&cluster, i, &armed);
    }
    move_30(&cluster, &runtime, 0).unwrap();
    armed.store(false, Ordering::SeqCst);
    assert_eq!(still_staged(&cluster), [1, 1]);

    move_30(&cluster, &runtime, 1).unwrap();
    assert_eq!(balances(&cluster), (40, 60), "a transfer was lost");
    assert_eq!(still_staged(&cluster), [0, 0]);
}

/// ROADMAP 17's fourth bullet: P misses its `Commit` but gets the
/// `ReleaseAll`, so its segment is unlocked with the intent still
/// staged. A second gcp, on the other compute server, locks the segment:
/// the acquire resolves the intent first, and the transfer reads the
/// committed balance, not the pre-image.
#[test]
fn a_lock_on_a_segment_with_a_staged_intent_resolves_it_first() {
    let (cluster, runtime) = two_participants(2, None);
    let armed = Arc::new(AtomicBool::new(true));
    miss_commits(&cluster, 1, &armed);
    move_30(&cluster, &runtime, 0).unwrap();
    armed.store(false, Ordering::SeqCst);
    assert_eq!(still_staged(&cluster), [1, 0]);

    move_30(&cluster, &runtime, 1).unwrap();
    assert_eq!(balances(&cluster), (40, 60), "money was made");
    assert_eq!(still_staged(&cluster), [0, 0]);
}

/// ROADMAP 17(e): the coordinator is cut off from both participants for
/// good after its `Decide`, so neither its `Commit` nor its `ReleaseAll`
/// reaches them, and the txn's write locks stay held there. The resolve
/// of each intent releases the txn's locks as its phase 2 would have: a
/// second gcp on those segments then commits, whether an s-thread read
/// at the other compute server resolved the intents first or the
/// second gcp's own lock waits, timing out, resolve them.
#[test]
fn a_resolve_releases_the_locks_of_a_coordinator_that_is_gone() {
    for read_first in [true, false] {
        // A short budget, so the cut-off calls fail fast.
        let short = RatpConfig {
            retry_interval: std::time::Duration::from_millis(5),
            max_retries: 40,
        };
        let (cluster, runtime) = two_participants(2, Some(short));
        cut_off_after_the_verdict(&cluster);
        move_30(&cluster, &runtime, 0).unwrap();
        assert_eq!(still_staged(&cluster), [1, 1]);

        if read_first {
            let read = ["From", "To"].map(|name| read_balance(&cluster, 1, name));
            assert_eq!(read, [70, 30], "the read served a pre-image");
            assert_eq!(still_staged(&cluster), [0, 0]);
        }
        move_30(&cluster, &runtime, 1).unwrap_or_else(|e| {
            panic!("read first {read_first}: the first transfer's locks are held: {e}")
        });
        cluster.network().heal();
        assert_eq!(balances(&cluster), (40, 60), "read first {read_first}");
    }
}

/// Poll `flag` until it is set; panic after 10 s.
fn wait_for(flag: &AtomicBool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(std::time::Instant::now() < deadline, "timed out waiting");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A grant issued to the coordinator's node before the `Prepare` staged
/// its page is still on its way when the verdict is commit: an s-thread
/// on that node writes the `From` account the transfer read (an upgrade
/// fault), and P holds the reply until after the `Decide`. The
/// coordinator's drop of its copies waits for that fault to land and
/// drops what it installed, so the `Commit`, which recalls nothing from
/// the coordinator's node, leaves no pre-image there.
#[test]
fn a_fault_in_flight_when_the_coordinator_drops_its_copies_leaves_no_pre_image() {
    #[derive(Default)]
    struct Steps {
        preparing: AtomicBool,
        granted: AtomicBool,
        decided: AtomicBool,
    }
    let (cluster, runtime) = two_participants(2, None);
    let cs = cluster.compute(0);
    let from = cluster.naming().lookup("From").unwrap();
    let from_seg = data_seg(cs, from);
    // Compute server 0 set the opening balance. A read at compute server
    // 1 demotes its copy to a shared one, so the s-thread's write faults.
    assert_eq!(read_balance(&cluster, 1, "From"), 100);
    let steps = Arc::new(Steps::default());
    let p = cluster.data_server(1);
    {
        // P's first `Prepare` waits for the grant below before it stages.
        let (dsm, steps) = (Arc::clone(p.dsm()), Arc::clone(&steps));
        p.ratp()
            .register_service(ports::COMMIT, move |req: Request| {
                let prepare = matches!(
                    clouds_codec::from_bytes(&req.payload),
                    Ok(CommitRequest::Prepare { .. })
                );
                if prepare && !steps.preparing.swap(true, Ordering::SeqCst) {
                    wait_for(&steps.granted);
                }
                dsm.serve_commit_wire(req.src, &req.payload)
            });
    }
    {
        // A write fault of `From` meanwhile is granted the pre-image, and
        // its reply held until 100 ms after the `Decide`.
        let (dsm, steps) = (Arc::clone(p.dsm()), Arc::clone(&steps));
        p.ratp()
            .register_service(ports::DSM_SERVER, move |req: Request| {
                let reply = dsm.serve_wire(req.src, &req.payload);
                let write = matches!(
                    proto::decode(&req.payload),
                    Ok(DsmRequest::FetchPages { seg, mode: proto::WireMode::Write, .. })
                        if seg == from_seg
                );
                if write
                    && steps.preparing.load(Ordering::SeqCst)
                    && !steps.granted.swap(true, Ordering::SeqCst)
                {
                    wait_for(&steps.decided);
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                reply
            });
    }
    {
        let (host, steps) = (Arc::clone(cluster.data_server(0).dsm()), Arc::clone(&steps));
        cluster
            .data_server(0)
            .ratp()
            .register_service(ports::COMMIT, move |req: Request| {
                let reply = host.serve_commit_wire(req.src, &req.payload);
                if is_decide(&req.payload) {
                    steps.decided.store(true, Ordering::SeqCst);
                }
                reply
            });
    }

    std::thread::scope(|scope| {
        let transfer = scope.spawn(|| move_30(&cluster, &runtime, 0));
        wait_for(&steps.preparing);
        let five = clouds::encode_args(&5u64).unwrap();
        cs.invoke(from, "set", &five, None).unwrap();
        transfer.join().unwrap().unwrap();
    });
    assert!(steps.granted.load(Ordering::SeqCst));
    assert_eq!(
        read_balance(&cluster, 0, "From"),
        70,
        "the coordinator's node kept what the fault in flight installed"
    );
    assert_eq!(balances(&cluster), (70, 30));
}

/// What each data server's lock manager was asked, in order: the
/// server's index and the request, with the owner left out.
type LockLog = Arc<parking_lot::Mutex<Vec<(usize, &'static str)>>>;

/// Re-register every data server's `ports::LOCKS` with a closure that
/// logs each request and falls through to the server's lock table.
fn tap_locks(cluster: &Cluster) -> LockLog {
    let log = LockLog::default();
    for (i, ds) in cluster.data_servers().iter().enumerate() {
        let (log, dsm) = (Arc::clone(&log), Arc::clone(ds.dsm()));
        ds.ratp()
            .register_service(ports::LOCKS, move |req: Request| {
                let asked = match proto::decode(&req.payload).unwrap() {
                    LockRequest::Acquire { .. } => "acquire",
                    LockRequest::ReleaseAll { .. } => "release_all",
                    LockRequest::Release { .. } => panic!("a cp-thread releases all or nothing"),
                };
                log.lock().push((i, asked));
                dsm.serve_lock_wire(&req.payload)
            });
    }
    log
}

/// The requests `log` holds for data server `server`.
fn asked(log: &LockLog, server: usize) -> Vec<&'static str> {
    let log = log.lock();
    log.iter()
        .filter(|(i, _)| *i == server)
        .map(|(_, req)| *req)
        .collect()
}

/// Where an attempt sends `ReleaseAll`: a participant that answers `Ok`
/// to its `Commit` has released the txn's locks itself, so a fault-free
/// transfer sends none. A server the transfer only read-locked at gets
/// one, and so does a participant whose `Commit` goes unanswered.
#[test]
fn release_all_goes_only_where_no_phase_two_released() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let [p, q, w] = [0, 1, 2].map(|i| Some(cluster.data_server(i).node_id()));
    let from = cs.create_object("raw-account", Some("From"), p).unwrap();
    let to = cs.create_object("raw-account", Some("To"), q).unwrap();
    let witness = cs.create_object("raw-account", Some("Seen"), w).unwrap();
    let mover = cs.create_object("transfer", Some("Mover"), p).unwrap();
    cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
        .unwrap();
    let log = tap_locks(&cluster);
    let releases = || {
        [0, 1, 2].map(|server| {
            let asked = asked(&log, server);
            asked.iter().filter(|req| **req == "release_all").count()
        })
    };
    let opts = CpOptions {
        lock_wait_ms: 800,
        max_retries: 0,
    };
    let transfer = |entry: &str, args: Vec<u8>| {
        runtime
            .invoke(cs, OperationLabel::Gcp, mover, entry, &args, &opts)
            .unwrap();
    };

    transfer("move", clouds::encode_args(&(from, to, 10u64)).unwrap());
    assert_eq!(releases(), [0, 0, 0], "a fault-free transfer");
    for server in [0, 1] {
        assert!(asked(&log, server).contains(&"acquire"), "server {server}");
    }

    let args = clouds::encode_args(&((from, to, 10u64), witness)).unwrap();
    transfer("witnessed_move", args);
    assert_eq!(releases(), [0, 0, 1], "the witness was only read-locked");

    let armed = Arc::new(AtomicBool::new(true));
    miss_commits(&cluster, 1, &armed);
    transfer("move", clouds::encode_args(&(from, to, 10u64)).unwrap());
    armed.store(false, Ordering::SeqCst);
    assert_eq!(releases(), [0, 1, 1], "Q's `Commit` went unanswered");
}

/// An acquire that times out may have been queued, so the aborted
/// attempt releases at the server it asked, and only there.
#[test]
fn an_attempt_aborted_by_a_lock_wait_timeout_releases_where_it_asked() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let home = Some(cluster.data_server(1).node_id());
    let acct = cs.create_object("account", Some("Held"), home).unwrap();
    let seg = data_seg(cs, acct);
    let holder = u64::MAX;
    let wait = std::time::Duration::from_secs(1);
    let locks = cluster.data_server(1).dsm().locks();
    assert_eq!(
        locks.acquire(seg, LockMode::Exclusive, holder, wait),
        LockOutcome::Granted
    );
    let log = tap_locks(&cluster);

    let opts = CpOptions {
        lock_wait_ms: 20,
        max_retries: 0,
    };
    let args = clouds::encode_args(&5u64).unwrap();
    let err = runtime
        .invoke(cs, OperationLabel::Gcp, acct, "deposit", &args, &opts)
        .unwrap_err();
    assert!(matches!(err, CloudsError::ConsistencyAbort(_)), "{err}");
    assert_eq!(
        *log.lock(),
        vec![(1, "acquire"), (1, "release_all")],
        "the timed-out acquire is released at its server"
    );
    assert_eq!(locks.release_all(holder), 1);
}

/// An attempt that fails before it touches persistent memory asked no
/// lock manager anything, so it sends no `ReleaseAll` either.
#[test]
fn an_attempt_that_locked_nothing_releases_nothing() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let acct = cs.create_object("account", Some("Idle"), None).unwrap();
    let log = tap_locks(&cluster);
    let err = runtime
        .invoke(
            cs,
            OperationLabel::Gcp,
            acct,
            "no_such_entry",
            &[],
            &CpOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, CloudsError::NoSuchEntryPoint(_)), "{err}");
    assert_eq!(*log.lock(), Vec::new());
}

#[test]
fn mixing_s_threads_with_cp_threads_is_dangerous_as_documented() {
    // §5.2.1: "Since s-threads do not automatically acquire locks, nor
    // are they blocked by any system acquired locks, they can freely
    // interleave with other s-threads and cp-threads … various
    // combinations … lead to many interesting (as well as dangerous)
    // execution time possibilities."
    //
    // Here the danger is concrete: an s-thread writes while a gcp-thread
    // is between its read and its commit; the commit installs the
    // cp-thread's page image and the s-thread's update vanishes.
    let (cluster, runtime) = bed(2, 1);
    let acct = cluster.create_object("account", "A").unwrap();

    let cs0 = cluster.compute(0).clone();
    let rt = Arc::clone(&runtime);
    let gcp = std::thread::spawn(move || {
        rt.invoke_labeled(
            &cs0,
            acct,
            "slow_deposit",
            &clouds::encode_args(&10u64).unwrap(),
        )
        .unwrap()
    });
    // While the gcp-thread sleeps inside its window, an s-thread writes
    // straight through the DSM (no locks stop it).
    std::thread::sleep(std::time::Duration::from_millis(30));
    let cs1 = cluster.compute(1);
    cs1.invoke(
        acct,
        "unsafe_deposit",
        &clouds::encode_args(&5u64).unwrap(),
        None,
    )
    .unwrap();
    gcp.join().unwrap();

    let balance: u64 = decode_args(
        &cs1.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    // The s-thread's 5 was clobbered by the gcp commit image: 10, not 15.
    assert_eq!(
        balance, 10,
        "the documented s/cp anomaly should have destroyed the s-thread's update"
    );
}

#[test]
fn lcp_is_lightweight_gcp_is_atomic_under_partial_failure() {
    // The semantic difference the labels buy (§5.2.1): LCP commits
    // per data server with no cross-server atomicity; GCP is all-or-
    // nothing. With one of the two involved data servers dead at commit
    // time:
    //   * GCP's prepare phase fails → abort → nothing changes anywhere.
    //   * LCP applies at the live server, fails at the dead one → a
    //     PARTIAL update survives (lightweight, as advertised).
    let run_one = |label: OperationLabel| -> (u64, u64, bool) {
        let (cluster, runtime) = bed(1, 3);
        let cs = cluster.compute(0);
        let from = cs
            .create_object(
                "raw-account",
                Some("From"),
                Some(cluster.data_server(1).node_id()),
            )
            .unwrap();
        let to = cs
            .create_object(
                "raw-account",
                Some("To"),
                Some(cluster.data_server(2).node_id()),
            )
            .unwrap();
        let mover = cs.create_object("transfer", Some("Mover"), None).unwrap();
        cs.invoke(from, "set", &clouds::encode_args(&100u64).unwrap(), None)
            .unwrap();

        // The destination's data server dies before the transfer; the
        // cp-thread still *executes* (shadow writes need no server), but
        // the commit must reach both servers.
        // NOTE: locks for `to` live on the dead server too, so use a
        // short lock wait and accept the abort path for GCP.
        cluster.crash_data_server(2);
        let outcome = runtime.invoke(
            cs,
            label,
            mover,
            "move",
            &clouds::encode_args(&(from, to, 30u64)).unwrap(),
            &CpOptions {
                lock_wait_ms: 100,
                max_retries: 0,
            },
        );
        let from_balance: u64 = decode_args(
            &cs.invoke(from, "balance", &clouds::encode_args(&()).unwrap(), None)
                .unwrap(),
        )
        .unwrap();
        // `to` is unreachable; report whether the source changed.
        (from_balance, 30, outcome.is_ok())
    };

    let (gcp_from, _, gcp_ok) = run_one(OperationLabel::Gcp);
    assert!(!gcp_ok, "gcp must fail without both participants");
    assert_eq!(gcp_from, 100, "gcp: all-or-nothing, source untouched");

    let (lcp_from, _, lcp_ok) = run_one(OperationLabel::Lcp);
    assert!(!lcp_ok, "lcp also reports the failure…");
    // …but, being lightweight, it may have already applied the source
    // debit at the live server: partial state is possible by design.
    // (Whether it did depends on commit ordering; assert only that LCP
    // does not *guarantee* atomicity — i.e. we accept either value —
    // while documenting the observed partial commit when it happens.)
    assert!(
        lcp_from == 70 || lcp_from == 100,
        "unexpected source balance {lcp_from}"
    );
}

/// The coordinator routes by its cached `home_of`. When the home was
/// demoted behind its back, the refusal must cost one abort — not the
/// whole retry budget against the same stale route — and the retry
/// commits at the promoted primary.
#[test]
fn stale_commit_route_costs_one_abort_then_commits_at_the_promoted_primary() {
    let (cluster, runtime) = bed(1, 3);
    let cs = cluster.compute(0);
    let [old, new] = [cluster.data_server(1), cluster.data_server(2)];
    let acct = cs
        .create_object("account", Some("A"), Some(old.node_id()))
        .unwrap();
    let seg = clouds::object::ObjectMeta::load(&**cs.object_manager().partition(), acct)
        .unwrap()
        .data_seg;
    // Replicate the account's data segment by hand: `old` primary,
    // `new` backup.
    let members = vec![old.node_id(), new.node_id()];
    let create = DsmRequest::MirrorCreate {
        seg,
        len: old.dsm().log().segment_len(seg).unwrap(),
        members: members.iter().map(|n| n.0).collect(),
        epoch: 1,
    };
    let created = new.dsm().serve_wire(old.node_id(), &proto::encode(&create));
    assert!(matches!(proto::decode(&created).unwrap(), DsmReply::Ok));
    old.dsm().adopt_replica_config(seg, members, 1);
    let deposit = |amount: u64| {
        runtime.invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&amount).unwrap())
    };
    let balance_at = |ds: &clouds::node::DataServer| stored_u64(ds, seg);
    deposit(5).unwrap();
    assert_eq!((balance_at(old), balance_at(new)), (5, 5), "mirrored");
    // An s-thread read leaves the page cached at the compute server, so
    // the next cp-thread faults nothing and meets the stale route only
    // at commit.
    cs.invoke(acct, "balance", &clouds::encode_args(&()).unwrap(), None)
        .unwrap();

    new.dsm().promote_segment(seg, 2).unwrap();
    old.dsm()
        .adopt_replica_config(seg, vec![new.node_id(), old.node_id()], 2);
    assert_eq!(
        cs.dsm().home_of(seg).unwrap(),
        old.node_id(),
        "route is stale"
    );
    let installs_at_old = counted(old.dsm(), "dsm.server.write_backs");

    deposit(7).unwrap();
    assert_eq!(runtime.stats().aborts, 1, "one abort, then a fresh route");
    assert_eq!(runtime.stats().commits, 2);
    assert_eq!(cs.dsm().home_of(seg).unwrap(), new.node_id());
    assert_eq!(
        (balance_at(new), balance_at(old)),
        (12, 12),
        "committed at the primary, mirrored back"
    );
    assert_eq!(
        counted(old.dsm(), "dsm.server.write_backs"),
        installs_at_old,
        "nothing installed at `old`"
    );
}

// ---------------------------------------------------------------------
// 2PC across a promotion, at the wire: two data servers (each a commit
// participant from install) and a bare client node — no cluster, no failover
// monitor, no wall-clock waits.
// ---------------------------------------------------------------------

const A: NodeId = NodeId(10);
const B: NodeId = NodeId(11);

struct Pair {
    _net: Network,
    servers: [Arc<DsmServer>; 2],
    /// The servers' transports, for a test that re-registers a port.
    ratps: [Arc<RatpNode>; 2],
    client: Arc<RatpNode>,
}

/// Data servers A (hosting the outcome registry) and B, plus a client.
/// The client has no page cache, so a `Commit` it sends holds to
/// `CommitRequest::Commit`'s contract: its sender holds no copy.
fn pair() -> Pair {
    let net = Network::new(CostModel::zero());
    let (mut servers, mut ratps) = (Vec::new(), Vec::new());
    for node in [A, B] {
        let ratp = RatpNode::spawn(net.register(node).unwrap(), RatpConfig::default());
        let dsm = DsmServer::install(&ratp);
        dsm.use_outcome_registry(A);
        servers.push(dsm);
        ratps.push(ratp);
    }
    let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
    Pair {
        _net: net,
        servers: servers.try_into().expect("two servers"),
        ratps: ratps.try_into().expect("two servers"),
        client,
    }
}

impl Pair {
    fn dsm(&self, node: NodeId, req: &DsmRequest) -> DsmReply {
        let reply = self
            .client
            .call(node, ports::DSM_SERVER, proto::encode(req))
            .unwrap();
        proto::decode(&reply).unwrap()
    }

    fn commit(&self, node: NodeId, req: &CommitRequest) -> CommitReply {
        commit_call(&self.client, node, req)
    }

    /// A one-page segment replicated on A (primary) and B (backup).
    fn replicated(&self, seg: SysName) {
        let create = DsmRequest::CreateReplicated {
            seg,
            len: PAGE_SIZE as u64,
            members: vec![A.0, B.0],
        };
        assert!(matches!(self.dsm(A, &create), DsmReply::Ok));
    }
}

fn image(seg: SysName, stamp: u8) -> Vec<WireWriteBack> {
    vec![WireWriteBack {
        seg,
        page: 0,
        data: vec![stamp; PAGE_SIZE].into(),
    }]
}

/// Counter `name` in `server`'s node registry.
fn counted(server: &DsmServer, name: &str) -> u64 {
    server.obs().registry().counter_value(name)
}

/// First byte of page 0 (the images above are one byte repeated; 0 if
/// never written; `seg` must be live).
fn stamp(server: &DsmServer, seg: SysName) -> u8 {
    server.log().segment_len(seg).expect("segment live");
    server
        .log()
        .read_page(seg, 0)
        .expect("not in doubt")
        .map_or(0, |(_, page)| page[0])
}

/// A prepared transaction whose participant is demoted while it is down:
/// the ex-primary replays the intent, is told `Commit`, and must not
/// install behind the promoted primary's back — the committed image has
/// to be what B serves, and A may hold it only as B's mirror.
#[test]
fn commit_of_a_prepared_txn_lands_at_the_promoted_primary() {
    let bed = pair();
    let [a, b] = &bed.servers;
    let seg = SysName::from_parts(7, 1);
    let txn = 0xC0FFEE;
    bed.replicated(seg);
    let prepare = CommitRequest::Prepare {
        txn,
        pages: image(seg, 0xAB),
    };
    assert_eq!(bed.commit(A, &prepare), CommitReply::Ok);

    b.promote_segment(seg, 2).unwrap();
    a.crash();
    a.recover_from_log();
    a.adopt_replica_config(seg, vec![B, A], 2);
    a.finish_recovery();
    assert_eq!(a.log().intents().len(), 1, "the intent is re-staged");

    assert_eq!(
        bed.commit(A, &CommitRequest::Commit { txn }),
        CommitReply::Ok
    );
    assert_eq!(stamp(b, seg), 0xAB, "the primary serves the old page");
    assert_eq!(
        counted(b, "dsm.server.write_backs"),
        1,
        "installed through B's write path"
    );
    assert_eq!(stamp(a, seg), 0xAB);
    assert_eq!(
        (
            counted(a, "dsm.server.write_backs"),
            counted(a, "dsm.server.mirror_applies")
        ),
        (0, 1),
        "A holds the image as B's backup, not by a local install"
    );
    assert_eq!(a.log().intents().len(), 0);
    // Retired durably: another crash of A does not re-stage it.
    a.log().replay();
    assert_eq!(a.log().intents().len(), 0);
}

/// A backup holds the segment (the mirror plane gave it one) but does
/// not serve it: it votes no and installs nothing.
#[test]
fn a_backup_refuses_prepare_and_apply_local() {
    let bed = pair();
    let b = &bed.servers[1];
    let seg = SysName::from_parts(7, 2);
    bed.replicated(seg);
    let appends = b.log().stats().appends;
    let pages = image(seg, 0xEE);
    for (what, req) in [
        (
            "Prepare",
            CommitRequest::Prepare {
                txn: 1,
                pages: pages.clone(),
            },
        ),
        ("ApplyLocal", CommitRequest::ApplyLocal { txn: 2, pages }),
    ] {
        assert_eq!(bed.commit(B, &req), CommitReply::Refused, "{what}");
        assert_eq!(stamp(b, seg), 0, "{what} reached the store");
        assert_eq!(b.log().stats().appends, appends, "{what} reached the log");
        assert_eq!(b.log().intents().len(), 0, "{what} was staged");
    }
}

/// A committed transaction's install at A, the primary, fails to
/// mirror to B after the serving check: B refuses the push, or B is
/// promoted (and A told) while the push is on its way. A answers
/// `Refused` and keeps the intent staged; the retried `Commit` then puts
/// the image where the segment is served and on its backup.
#[test]
fn a_commit_whose_mirror_fails_stays_staged_until_the_backup_holds_it() {
    for promote in [false, true] {
        let bed = pair();
        let [a, b] = &bed.servers;
        let seg = SysName::from_parts(7, 3);
        let txn = 0xBEEF;
        bed.replicated(seg);
        let prepare = CommitRequest::Prepare {
            txn,
            pages: image(seg, 0xCD),
        };
        assert_eq!(bed.commit(A, &prepare), CommitReply::Ok);
        assert_eq!(bed.commit(A, &decide(txn, true)), CommitReply::Committed);
        let armed = AtomicBool::new(true);
        let (backup, primary) = (Arc::clone(b), Arc::clone(a));
        bed.ratps[1].register_service(ports::DSM_SERVER, move |req: Request| {
            let mirror = matches!(
                proto::decode(&req.payload),
                Ok(DsmRequest::MirrorWrite { .. })
            );
            if mirror && armed.swap(false, Ordering::SeqCst) {
                if !promote {
                    let refused = proto::WireError::Other("backup refuses".into());
                    return proto::encode(&DsmReply::Err(refused));
                }
                backup.promote_segment(seg, 2).unwrap();
                primary.adopt_replica_config(seg, vec![B, A], 2);
            }
            backup.serve_wire(req.src, &req.payload)
        });
        let commit = CommitRequest::Commit { txn };
        assert_eq!(bed.commit(A, &commit), CommitReply::Refused);
        assert_eq!(
            a.log().intents().len(),
            1,
            "promote={promote}: retired before B held the image"
        );
        assert_eq!(bed.commit(A, &commit), CommitReply::Ok, "promote={promote}");
        assert_eq!(a.log().intents().len(), 0);
        assert_eq!(
            (stamp(a, seg), stamp(b, seg)),
            (0xCD, 0xCD),
            "promote={promote}"
        );
    }
}

/// Reads that fault in a staged page between its transaction's
/// `Prepare` and `Decide` abort nothing: B asks the registry for a
/// verdict already logged, finds none, and serves nothing — an error
/// the faulting client retries — and the commit then goes through. A
/// transaction whose coordinator goes silent after its `Prepare` is
/// aborted by the third read in a row, which then serves the committed
/// image the transaction would have replaced.
#[test]
fn a_read_between_prepare_and_decide_aborts_nothing() {
    let bed = pair();
    let b = &bed.servers[1];
    let seg = SysName::from_parts(7, 4);
    let create = DsmRequest::CreateSegment {
        seg,
        len: PAGE_SIZE as u64,
    };
    assert!(matches!(bed.dsm(B, &create), DsmReply::Ok));
    let fetch = DsmRequest::FetchPages {
        seg,
        first: 0,
        count: 1,
        mode: proto::WireMode::Read,
        release: vec![],
    };
    let in_doubt = |txn: u64| match bed.dsm(B, &fetch) {
        DsmReply::Err(proto::WireError::Other(e)) => assert!(e.contains("in doubt"), "{e}"),
        other => panic!("txn {txn}: a staged page was served: {other:?}"),
    };
    let served = |what: &str| match bed.dsm(B, &fetch) {
        DsmReply::Pages { pages, .. } => pages[0].data[0],
        other => panic!("{what}: {other:?}"),
    };
    let prepare = |txn: u64, stamp: u8| {
        let pages = image(seg, stamp);
        let prepare = CommitRequest::Prepare { txn, pages };
        assert_eq!(bed.commit(B, &prepare), CommitReply::Ok);
    };

    prepare(1, 0x5A);
    in_doubt(1);
    in_doubt(1);
    assert_eq!(bed.servers[0].log().outcome(1), Ok(None), "a read decided");
    assert_eq!(bed.commit(A, &decide(1, true)), CommitReply::Committed);
    assert_eq!(
        bed.commit(B, &CommitRequest::Commit { txn: 1 }),
        CommitReply::Ok
    );
    assert_eq!(served("after the commit"), 0x5A);

    prepare(2, 0x6B);
    in_doubt(2);
    in_doubt(2);
    assert_eq!(b.log().intents().len(), 1);
    assert_eq!(served("the third read"), 0x5A);
    assert_eq!(bed.servers[0].log().outcome(2), Ok(Some(false)));
    assert_eq!(b.log().intents().len(), 0);
}

/// Does serving the request change state the server must bring back
/// after a crash? No `_` arm: a new wire variant does not compile until
/// it is classified here, and a mutating one needs a row in
/// `every_acked_mutation_is_replayable`. (A fetch can absorb a recalled
/// dirty page, but through the same `apply_write` a `WriteBack` takes.)
fn dsm_mutates(req: &DsmRequest) -> bool {
    match req {
        DsmRequest::CreateSegment { .. }
        | DsmRequest::DestroySegment { .. }
        | DsmRequest::WriteBack { .. }
        | DsmRequest::WriteBackBatch { .. }
        | DsmRequest::CreateReplicated { .. }
        | DsmRequest::MirrorCreate { .. }
        | DsmRequest::MirrorWrite { .. }
        | DsmRequest::MirrorDestroy { .. }
        | DsmRequest::PromoteSegment { .. } => true,
        DsmRequest::SegmentLen { .. }
        | DsmRequest::FetchPage { .. }
        | DsmRequest::FetchPages { .. }
        | DsmRequest::ReleasePage { .. }
        | DsmRequest::InstallAck { .. }
        | DsmRequest::InstallAckBatch { .. } => false,
    }
}

/// As [`dsm_mutates`], for the commit participant's wire.
fn commit_mutates(req: &CommitRequest) -> bool {
    match req {
        CommitRequest::Prepare { .. }
        | CommitRequest::Commit { .. }
        | CommitRequest::Abort { .. }
        | CommitRequest::ApplyLocal { .. }
        | CommitRequest::Decide { .. } => true,
        CommitRequest::Verdict { .. } => false,
    }
}

enum Step {
    Dsm(NodeId, DsmRequest),
    Commit(NodeId, CommitRequest),
}

type Pages = BTreeMap<u32, Result<(u64, Vec<u8>), InDoubt>>;

/// What one server serves: `segs` as its log's read side has them
/// (length, and each page's version and image), its replica views, its
/// staged intents and each of `txns`' standing verdicts.
struct Served {
    /// Segment → (length, page → (version, image)).
    segments: BTreeMap<SysName, (u64, Pages)>,
    views: BTreeMap<SysName, ReplicaRecord>,
    staged: BTreeMap<u64, Vec<IntentPage>>,
    recorded: Vec<Result<Option<bool>, Crashed>>,
}

fn served(dsm: &DsmServer, segs: &[SysName], txns: &[u64]) -> Served {
    let segments = segs
        .iter()
        .filter_map(|&seg| {
            let len = dsm.log().segment_len(seg)?;
            let pages = (0..len.div_ceil(PAGE_SIZE as u64) as u32)
                .filter_map(|p| Some((p, dsm.log().read_page(seg, p).transpose()?)))
                .collect();
            Some((seg, (len, pages)))
        })
        .collect();
    let views = dsm
        .replicated_segments()
        .into_iter()
        .map(|(seg, members, epoch)| {
            let members = members.iter().map(|n| n.0).collect();
            (seg, ReplicaRecord { members, epoch })
        })
        .collect();
    Served {
        segments,
        views,
        staged: dsm.log().intents(),
        recorded: txns.iter().map(|txn| dsm.log().outcome(*txn)).collect(),
    }
}

/// What each server serves is exactly what it serves again after a
/// replay of its log. The reads are taken first, off the index the
/// appends kept, so the incremental index is checked against the one
/// the replay rebuilds.
fn assert_replayable(bed: &Pair, segs: &[SysName], txns: &[u64], after: &str) {
    for (i, dsm) in bed.servers.iter().enumerate() {
        let before = served(dsm, segs, txns);
        dsm.log().replay();
        let replayed = served(dsm, segs, txns);
        // Not assert_eq!: a mismatch would print whole pages.
        assert!(
            replayed.segments == before.segments,
            "server {i} after {after}: segments differ from the log's"
        );
        assert_eq!(replayed.views, before.views, "server {i} after {after}");
        assert!(
            replayed.staged == before.staged,
            "server {i} after {after}: staged intents differ from the log's"
        );
        assert_eq!(
            replayed.recorded, before.recorded,
            "server {i} after {after}: outcomes of {txns:?}"
        );
    }
}

/// Write-ahead, behaviourally: after every acknowledged mutating request
/// — each such variant of both wires, as the wire carries it — a crash
/// would lose nothing the reply promised.
#[test]
fn every_acked_mutation_is_replayable() {
    let bed = pair();
    let page = |stamp: u8| PageBytes::from(vec![stamp; PAGE_SIZE]);
    let [plain, rep, ghost] = [1, 2, 3].map(|n| SysName::from_parts(8, n));
    // The client plays primary towards B for the mirror-plane rows.
    let ghost_view = vec![1, B.0];
    let steps = [
        Step::Dsm(
            A,
            DsmRequest::CreateSegment {
                seg: plain,
                len: 2 * PAGE_SIZE as u64,
            },
        ),
        Step::Dsm(
            A,
            DsmRequest::WriteBack {
                seg: plain,
                page: 0,
                data: page(1),
                release: false,
            },
        ),
        Step::Dsm(
            A,
            DsmRequest::WriteBackBatch {
                pages: vec![
                    WireWriteBack {
                        seg: plain,
                        page: 0,
                        data: page(2),
                    },
                    WireWriteBack {
                        seg: plain,
                        page: 1,
                        data: page(3),
                    },
                ],
            },
        ),
        Step::Dsm(
            A,
            DsmRequest::CreateReplicated {
                seg: rep,
                len: PAGE_SIZE as u64,
                members: vec![A.0, B.0],
            },
        ),
        // Mirrored: B's log must keep up with A's acknowledgement too.
        Step::Dsm(
            A,
            DsmRequest::WriteBack {
                seg: rep,
                page: 0,
                data: page(4),
                release: false,
            },
        ),
        Step::Dsm(
            B,
            DsmRequest::MirrorCreate {
                seg: ghost,
                len: PAGE_SIZE as u64,
                members: ghost_view.clone(),
                epoch: 1,
            },
        ),
        Step::Dsm(
            B,
            DsmRequest::MirrorWrite {
                seg: ghost,
                page: 0,
                data: page(5),
                version: 1,
                members: ghost_view,
                epoch: 1,
            },
        ),
        Step::Dsm(
            B,
            DsmRequest::MirrorDestroy {
                seg: ghost,
                epoch: 1,
            },
        ),
        Step::Dsm(A, DsmRequest::DestroySegment { seg: plain }),
        Step::Commit(
            A,
            CommitRequest::Prepare {
                txn: 1,
                pages: image(rep, 6),
            },
        ),
        Step::Commit(A, decide(1, true)),
        Step::Commit(A, CommitRequest::Commit { txn: 1 }),
        Step::Commit(
            A,
            CommitRequest::Prepare {
                txn: 2,
                pages: image(rep, 7),
            },
        ),
        Step::Commit(A, decide(2, false)),
        Step::Commit(A, CommitRequest::Abort { txn: 2 }),
        Step::Commit(
            A,
            CommitRequest::ApplyLocal {
                txn: 3,
                pages: image(rep, 8),
            },
        ),
        // Settles txn 1: the registry host must forget it durably.
        Step::Commit(
            A,
            CommitRequest::Decide {
                txn: 4,
                commit: true,
                settled: vec![1],
            },
        ),
        // Last: it demotes A.
        Step::Dsm(B, DsmRequest::PromoteSegment { seg: rep, epoch: 2 }),
    ];
    // The variant's name: the `Debug` form up to its payload.
    let variant = |req: &dyn std::fmt::Debug| -> String {
        let form = format!("{req:?}");
        form.split([' ', '{']).next().unwrap().to_string()
    };
    let mut covered = [BTreeSet::new(), BTreeSet::new()];
    for step in &steps {
        let what = match step {
            Step::Dsm(node, req) => {
                assert!(dsm_mutates(req));
                let what = variant(req);
                match bed.dsm(*node, req) {
                    DsmReply::Ok => {}
                    DsmReply::WriteBackResults { results } => {
                        assert!(results.iter().all(Result::is_ok), "{what}: {results:?}");
                    }
                    other => panic!("{what} answered {other:?}"),
                }
                covered[0].insert(what.clone());
                what
            }
            Step::Commit(node, req) => {
                assert!(commit_mutates(req));
                let what = variant(req);
                let want = match req {
                    CommitRequest::Decide { commit: true, .. } => CommitReply::Committed,
                    CommitRequest::Decide { .. } => CommitReply::Aborted,
                    _ => CommitReply::Ok,
                };
                assert_eq!(bed.commit(*node, req), want, "{what}");
                covered[1].insert(what.clone());
                what
            }
        };
        assert_replayable(&bed, &[plain, rep, ghost], &[1, 2, 3, 4], &what);
    }
    // Every variant the classifiers above call mutating has a row.
    assert_eq!((covered[0].len(), covered[1].len()), (9, 5), "{covered:?}");
    assert_eq!(stamp(&bed.servers[0], rep), 8);
    assert_eq!(bed.servers[0].log().outcome(1), Ok(None), "settled");
    assert_eq!(bed.servers[0].log().outcome(2), Ok(Some(false)));
    assert_eq!(bed.servers[0].log().outcome(4), Ok(Some(true)));
}
