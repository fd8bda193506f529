//! Asynchronous invocation (§2.4) and load-aware thread placement
//! (§3.2 "may depend on such factors as scheduling policies and the
//! load at each compute server").

#![allow(
    clippy::disallowed_methods,
    reason = "real-time windows open the interleavings under test"
)]

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_simnet::CostModel;
use std::time::{Duration, Instant};

struct Fanout;

impl ObjectCode for Fanout {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "slow_add" => {
                // Each caller owns a distinct slot: slow_add is an s-thread,
                // so concurrent read-modify-writes of a *shared* word would
                // be a lost-update race (that spectrum is E5's subject, not
                // this test's).
                let (slot, delta): (u64, u64) = decode_args(args)?;
                std::thread::sleep(std::time::Duration::from_millis(20));
                let v = ctx.persistent().read_u64(slot * 8)? + delta;
                ctx.persistent().write_u64(slot * 8, v)?;
                encode_result(&v)
            }
            "ask" => {
                // Says it is ready on its terminal, then waits for a line.
                ctx.write_line("ready")?;
                encode_result(&ctx.read_line(10_000)?)
            }
            "total" => {
                let slots: u64 = decode_args(args)?;
                let mut sum = 0;
                for slot in 0..slots {
                    sum += ctx.persistent().read_u64(slot * 8)?;
                }
                encode_result(&sum)
            }
            "fan" => {
                // Start three asynchronous children on this server, then
                // continue immediately and finally collect their results.
                let (peer, n): (SysName, u64) = decode_args(args)?;
                let handles: Vec<_> = (0..n)
                    .map(|slot| {
                        ctx.invoke_async(
                            peer,
                            "slow_add",
                            &clouds::encode_args(&(slot, 1u64)).expect("args"),
                        )
                    })
                    .collect();
                // The caller keeps working while children run.
                let concurrent_marker = ctx.persistent().read_u64(0)?;
                let mut results = Vec::new();
                for h in handles {
                    let v: u64 = clouds::decode_args(&h.join()?)?;
                    results.push(v);
                }
                encode_result(&(concurrent_marker, results))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

#[test]
fn asynchronous_invocations_run_concurrently() {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .cost_model(CostModel::zero())
        .cpus(8)
        .build()
        .unwrap();
    cluster.register_class("fanout", Fanout).unwrap();
    let a = cluster
        .compute(0)
        .create_object("fanout", Some("A"), None)
        .unwrap();
    let b = cluster
        .compute(0)
        .create_object("fanout", Some("B"), None)
        .unwrap();

    let started = std::time::Instant::now();
    let (_, results): (u64, Vec<u64>) = decode_args(
        &cluster
            .compute(0)
            .invoke(a, "fan", &clouds::encode_args(&(b, 3u64)).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    let elapsed = started.elapsed();
    // Three 20 ms children; they must overlap (well under 3×20 ms plus
    // slack) and all take effect exactly once.
    assert_eq!(results.len(), 3);
    let final_b: u64 = decode_args(
        &cluster
            .compute(0)
            .invoke(b, "total", &clouds::encode_args(&3u64).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(final_b, 3);
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "children did not overlap: {elapsed:?}"
    );
}

fn fanout_cluster() -> Cluster {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(1)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("fanout", Fanout).unwrap();
    cluster.workstation(0).create_object("fanout", "F").unwrap();
    cluster
}

/// A workstation's threads are RaTP calls in flight: any number may be
/// outstanding, and each completes whenever its handle is joined.
#[test]
fn workstation_threads_join_in_any_order() {
    let cluster = fanout_cluster();
    let ws = cluster.workstation(0);
    let handles: Vec<_> = (0..4u64)
        .map(|slot| ws.spawn("F", "slow_add", clouds::encode_args(&(slot, 1u64)).unwrap()))
        .collect();
    for handle in handles.into_iter().rev() {
        let v: u64 = decode_args(&handle.join().unwrap()).unwrap();
        assert_eq!(v, 1);
    }
    let total: u64 = ws.run_wait_decode("F", "total", &4u64).unwrap();
    assert_eq!(total, 4);
}

/// Joined long after it was spawned, over a lossy network, a thread's
/// request is retransmitted by `join` and still runs exactly once.
#[test]
fn a_late_join_on_a_lossy_network_runs_the_entry_once() {
    const ROUNDS: u64 = 3;
    let cluster = fanout_cluster();
    let ws = cluster.workstation(0);
    cluster.network().set_loss(0.2);
    for round in 1..=ROUNDS {
        let handle = ws.spawn("F", "slow_add", clouds::encode_args(&(0u64, 1u64)).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(200));
        let v: u64 = decode_args(&handle.join().unwrap()).unwrap();
        assert_eq!(v, round, "the entry ran once per spawn");
    }
    cluster.network().set_loss(0.0);
    let total: u64 = ws.run_wait_decode("F", "total", &1u64).unwrap();
    assert_eq!(total, ROUNDS);
}

#[test]
fn least_loaded_placement_avoids_busy_server() {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(1)
        .cost_model(CostModel::zero())
        .cpus(1)
        .build()
        .unwrap();
    cluster.register_class("fanout", Fanout).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("fanout", "F").unwrap();
    let obj = cluster.naming().lookup("F").unwrap();

    // Saturate compute 0's single virtual CPU with queued IsiBas.
    let busy: Vec<_> = (0..6)
        .map(|_| {
            cluster.compute(0).start_thread(
                obj,
                "slow_add",
                clouds::encode_args(&(0u64, 0u64)).unwrap(),
                None,
            )
        })
        .collect();
    // Give the queue a moment to fill.
    std::thread::sleep(std::time::Duration::from_millis(10));

    let picked = ws.least_loaded_compute();
    assert_eq!(picked, cluster.compute(1).node_id());

    for h in busy {
        let _ = h.join();
    }

    // With a dead server, the live one is chosen regardless of load.
    cluster.crash_compute(1);
    let picked = ws.least_loaded_compute();
    assert_eq!(picked, cluster.compute(0).node_id());
}

/// A workstation's thread runs on no IsiBa of the compute server, yet
/// counts in that server's load while it waits on its terminal, so
/// load-aware placement steers the next thread elsewhere.
#[test]
fn a_workstation_thread_blocked_on_its_terminal_counts_in_its_servers_load() {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(1)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("fanout", Fanout).unwrap();
    // Created by compute 0 itself, so the workstation's first spawn,
    // placed round-robin, is also the first to pick a server: compute 0.
    cluster
        .compute(0)
        .create_object("fanout", Some("F"), None)
        .unwrap();
    let ws = cluster.workstation(0);
    let handle = ws.spawn("F", "ask", clouds::encode_args(&()).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    while ws.output(handle.id()).is_empty() {
        assert!(Instant::now() < deadline, "the thread never got going");
        std::thread::sleep(Duration::from_millis(1));
    }

    assert_eq!(cluster.compute(0).load(), 1);
    assert_eq!(cluster.compute(1).load(), 0);
    assert_eq!(ws.least_loaded_compute(), cluster.compute(1).node_id());

    ws.type_line(handle.id(), "go");
    let answer: Option<String> = decode_args(&handle.join().unwrap()).unwrap();
    assert_eq!(answer.as_deref(), Some("go"));
    assert_eq!(
        cluster.compute(0).load(),
        0,
        "a finished thread still counts"
    );
}
