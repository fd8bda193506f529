//! Recursive invocations (§2.2 "object invocations can be nested or
//! recursive") and cluster-builder behaviour.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_simnet::CostModel;

/// Recursion through the OS: factorial where every level is a full
/// object invocation.
struct Recursor;

impl ObjectCode for Recursor {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "factorial" => {
                let n: u64 = decode_args(args)?;
                if n <= 1 {
                    return encode_result(&1u64);
                }
                let below: u64 = decode_args(&ctx.invoke(
                    ctx.object(),
                    "factorial",
                    &clouds::encode_args(&(n - 1))?,
                )?)?;
                encode_result(&(n * below))
            }
            "forever" => {
                // Unbounded self-recursion: must be stopped by the kernel,
                // not by a host stack overflow.
                ctx.invoke(ctx.object(), "forever", &clouds::encode_args(&())?)
            }
            "depth" => encode_result(&ctx.visited().len()),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn bed() -> Cluster {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("recursor", Recursor).unwrap();
    cluster
}

#[test]
fn recursive_invocation_works() {
    let cluster = bed();
    let obj = cluster
        .compute(0)
        .create_object("recursor", None, None)
        .unwrap();
    let v: u64 = decode_args(
        &cluster
            .compute(0)
            .invoke(
                obj,
                "factorial",
                &clouds::encode_args(&10u64).unwrap(),
                None,
            )
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v, 3_628_800);
}

#[test]
fn runaway_recursion_is_faulted_not_crashed() {
    let cluster = bed();
    let obj = cluster
        .compute(0)
        .create_object("recursor", None, None)
        .unwrap();
    let err = cluster
        .compute(0)
        .invoke(obj, "forever", &clouds::encode_args(&()).unwrap(), None)
        .unwrap_err();
    assert!(matches!(err, CloudsError::ThreadFailed(_)), "{err}");
}

#[test]
fn visited_objects_are_tracked() {
    let cluster = bed();
    let obj = cluster
        .compute(0)
        .create_object("recursor", None, None)
        .unwrap();
    // Depth 5 recursion: the thread visited the object 5 times when the
    // innermost frame asks.
    let inner_visits: usize = decode_args(
        &cluster
            .compute(0)
            .invoke(obj, "factorial", &clouds::encode_args(&5u64).unwrap(), None)
            .unwrap(),
    )
    .map(|_: u64| 0usize)
    .unwrap_or(0);
    let _ = inner_visits;
    let depth: usize = decode_args(
        &cluster
            .compute(0)
            .invoke(obj, "depth", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(depth, 1); // fresh thread: one visited object
}

#[test]
#[should_panic(expected = "at least one compute server")]
fn builder_rejects_zero_computes() {
    let _ = Cluster::builder().compute_servers(0).build();
}

#[test]
#[should_panic(expected = "at least one data server")]
fn builder_rejects_zero_data_servers() {
    let _ = Cluster::builder().data_servers(0).build();
}

#[test]
fn builder_shapes_cluster() {
    let cluster = Cluster::builder()
        .compute_servers(3)
        .data_servers(2)
        .workstations(2)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    assert_eq!(cluster.computes().len(), 3);
    assert_eq!(cluster.data_servers().len(), 2);
    assert_eq!(cluster.workstations().len(), 2);
    // Only the first data server hosts the name server.
    assert!(cluster.data_server(0).naming().is_some());
    assert!(cluster.data_server(1).naming().is_none());
    // All node ids distinct.
    let mut ids: Vec<u32> = cluster
        .computes()
        .iter()
        .map(|c| c.node_id().0)
        .chain(cluster.data_servers().iter().map(|d| d.node_id().0))
        .chain(cluster.workstations().iter().map(|w| w.node_id().0))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 7);
}
