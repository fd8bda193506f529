//! Fault-tolerance tests for PET (§5.2.2): static failures, dynamic
//! failures, quorum behaviour, and the resources-vs-resilience
//! trade-off.

#![allow(
    clippy::disallowed_methods,
    reason = "real-time windows land crashes mid-computation"
)]

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_consistency::ConsistencyRuntime;
use clouds_pet::{read_any, resilient_invoke, PetOptions, ReplicatedObject};
use clouds_simnet::CostModel;
use std::sync::Arc;

/// A work item: deterministic computation plus persistent accumulation.
struct Worker;

impl ObjectCode for Worker {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "work" => {
                let rounds: u64 = decode_args(args)?;
                let mut acc = ctx.persistent().read_u64(0)?;
                for i in 0..rounds {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                ctx.persistent().write_u64(0, acc)?;
                ctx.persistent().write_u64(8, rounds)?;
                encode_result(&acc)
            }
            "slow_work" => {
                // Gives the test time to crash nodes mid-computation.
                std::thread::sleep(std::time::Duration::from_millis(150));
                let v = ctx.persistent().read_u64(0)? + 1;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn bed(computes: usize, datas: usize) -> (Cluster, Arc<ConsistencyRuntime>) {
    let cluster = Cluster::builder()
        .compute_servers(computes)
        .data_servers(datas)
        .workstations(0)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("worker", Worker).unwrap();
    let runtime = ConsistencyRuntime::install(&cluster);
    (cluster, runtime)
}

#[test]
fn all_replicas_converge_after_commit() {
    let (cluster, _rt) = bed(3, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&10u64).unwrap(),
        &PetOptions {
            pets: 3,
            ..PetOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.committed_replicas.len(), 3);
    assert!(outcome.failed_pets.is_empty());
    let expected: u64 = decode_args(&outcome.result).unwrap();

    // Every replica now answers with the same committed value.
    for i in 0..3 {
        let v: u64 = decode_args(
            &cluster
                .compute(0)
                .invoke(
                    robj.replica(i).sysname,
                    "get",
                    &clouds::encode_args(&()).unwrap(),
                    None,
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(v, expected, "replica {i}");
    }
}

#[test]
fn static_data_server_failure_is_tolerated() {
    // "Replication of objects, for tolerating static and dynamic
    // failures": one replica's data server is already dead when the
    // computation starts.
    let (cluster, _rt) = bed(3, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    cluster.crash_data_server(2); // replica 2's home

    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&5u64).unwrap(),
        &PetOptions {
            pets: 2, // replicas 0 and 1: both live
            ..PetOptions::default()
        },
    )
    .unwrap();
    // Quorum of 2/3 reached without the dead replica.
    assert!(outcome.committed_replicas.len() >= 2);
    assert!(!outcome.committed_replicas.contains(&2));
}

#[test]
fn static_compute_server_failure_is_tolerated() {
    let (cluster, _rt) = bed(3, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    cluster.crash_compute(1); // PET 1's executor is already dead

    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&5u64).unwrap(),
        &PetOptions {
            pets: 3,
            ..PetOptions::default()
        },
    )
    .unwrap();
    // PET 1 failed (its compute server cannot reach storage), but the
    // other two completed and one committed.
    assert!(outcome.failed_pets.iter().any(|(p, _)| *p == 1));
    assert!(outcome.committed_replicas.len() >= 2);
}

#[test]
fn dynamic_compute_failure_mid_run_is_tolerated() {
    let (cluster, _rt) = bed(3, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();

    // Crash compute 0 while the PETs are inside slow_work.
    let net = cluster.network().clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(40));
        net.crash(clouds_simnet::NodeId(1)); // compute server 0
    });

    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "slow_work",
        &clouds::encode_args(&()).unwrap(),
        &PetOptions {
            pets: 3,
            ..PetOptions::default()
        },
    )
    .unwrap();
    killer.join().unwrap();
    // At least one PET survived and committed a quorum.
    assert!(outcome.committed_replicas.len() >= 2);
    let v: u64 = decode_args(&outcome.result).unwrap();
    assert_eq!(v, 1);
}

#[test]
fn insufficient_quorum_fails_cleanly() {
    let (cluster, _rt) = bed(2, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    // Kill two of three replica homes: majority quorum unreachable.
    cluster.crash_data_server(1);
    cluster.crash_data_server(2);

    let result = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&3u64).unwrap(),
        &PetOptions {
            pets: 1, // PET 0 uses replica 0, whose home is alive
            ..PetOptions::default()
        },
    );
    assert!(matches!(
        result,
        Err(CloudsError::ConsistencyAbort(_)) | Err(CloudsError::ThreadFailed(_))
    ));
}

#[test]
fn explicit_quorum_one_commits_anywhere() {
    let (cluster, _rt) = bed(2, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    cluster.crash_data_server(1);
    cluster.crash_data_server(2);

    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&3u64).unwrap(),
        &PetOptions {
            pets: 1,
            write_quorum: Some(1),
            ..PetOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.committed_replicas, vec![0]);
}

#[test]
fn read_any_falls_through_dead_replicas() {
    let (cluster, _rt) = bed(2, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&4u64).unwrap(),
        &PetOptions {
            pets: 2,
            ..PetOptions::default()
        },
    )
    .unwrap();
    cluster.crash_data_server(0); // replica 0's home dies after commit

    let bytes = read_any(
        cluster.compute(0),
        &robj,
        "get",
        &clouds::encode_args(&()).unwrap(),
        &[0], // prefer the dead one: must fall through
    )
    .unwrap();
    let v: u64 = decode_args(&bytes).unwrap();
    assert_ne!(v, 0);
}

#[test]
fn more_pets_increase_success_probability_under_failures() {
    // The §5.2.2 trade-off, in miniature: with one compute server dead,
    // pets=1 placed on the dead server always fails, pets=3 never does.
    let (cluster, _rt) = bed(3, 3);
    let robj = ReplicatedObject::create(cluster.compute(0), "worker", 3).unwrap();
    cluster.crash_compute(0);

    let one = resilient_invoke(
        &cluster.computes()[..1], // only the dead server available
        &robj,
        "work",
        &clouds::encode_args(&2u64).unwrap(),
        &PetOptions {
            pets: 1,
            ..PetOptions::default()
        },
    );
    assert!(one.is_err());

    let three = resilient_invoke(
        cluster.computes(),
        &robj,
        "work",
        &clouds::encode_args(&2u64).unwrap(),
        &PetOptions {
            pets: 3,
            ..PetOptions::default()
        },
    );
    assert!(three.is_ok());
}
