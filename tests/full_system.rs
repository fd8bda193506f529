//! Whole-system integration tests spanning every crate: the complete
//! Clouds environment of Figure 3 — workstations, compute servers, data
//! servers — with naming, terminal I/O, consistency and PET running
//! together on one simulated Ethernet.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_consistency::ConsistencyRuntime;
use clouds_pet::{resilient_invoke, PetOptions, ReplicatedObject};
use clouds_simnet::CostModel;

/// An inventory ledger used by the end-to-end scenario.
struct Ledger;

impl ObjectCode for Ledger {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_u64(0, 0)
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "record" => {
                let (item, qty): (String, u64) = decode_args(args)?;
                let count = ctx.persistent().read_u64(0)?;
                // Entries stored on the persistent heap as a linked list.
                let node = ctx.persistent().heap_alloc(64)?;
                let head = ctx.persistent().read_u64(8)?;
                let encoded = clouds_codec::to_bytes(&(item.clone(), qty))
                    .map_err(|e| CloudsError::BadArguments(e.to_string()))?;
                ctx.persistent()
                    .heap_write(node, &(encoded.len() as u64).to_le_bytes())?;
                ctx.persistent().heap_write(node + 8, &encoded)?;
                ctx.persistent()
                    .heap_write(node + 48, &head.to_le_bytes())?;
                ctx.persistent().write_u64(8, node)?;
                ctx.persistent().write_u64(0, count + 1)?;
                ctx.write_line(&format!("recorded {qty} × {item}"))?;
                encode_result(&(count + 1))
            }
            "count" => encode_result(&ctx.persistent().read_u64(0)?),
            "dump" => {
                let mut items = Vec::new();
                let mut cursor = ctx.persistent().read_u64(8)?;
                while cursor != 0 {
                    let len = u64::from_le_bytes(
                        ctx.persistent()
                            .heap_read(cursor, 8)?
                            .try_into()
                            .expect("8"),
                    );
                    let raw = ctx.persistent().heap_read(cursor + 8, len as usize)?;
                    let (item, qty): (String, u64) = clouds_codec::from_bytes(&raw)
                        .map_err(|e| CloudsError::BadArguments(e.to_string()))?;
                    items.push((item, qty));
                    cursor = u64::from_le_bytes(
                        ctx.persistent()
                            .heap_read(cursor + 48, 8)?
                            .try_into()
                            .expect("8"),
                    );
                }
                encode_result(&items)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "record" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }
}

#[test]
fn complete_environment_scenario() {
    // A realistic small site: 2 compute servers, 2 data servers, 1 user
    // workstation, full cost model (virtual time flows like 1988).
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(2)
        .workstations(1)
        .build()
        .unwrap();
    cluster.register_class("ledger", Ledger).unwrap();
    let runtime = ConsistencyRuntime::install(&cluster);
    let ws = cluster.workstation(0);

    // The user creates the ledger from the workstation and names it.
    ws.create_object("ledger", "Inventory").unwrap();
    let obj = ws.naming().lookup("Inventory").unwrap();

    // Interactive s-thread usage with terminal output.
    let t = ws.spawn(
        "Inventory",
        "record",
        clouds::encode_args(&("widgets".to_string(), 3u64)).unwrap(),
    );
    let tid = t.id();
    t.join().unwrap();
    assert_eq!(ws.output(tid), "recorded 3 × widgets\n");

    // Labeled (gcp) records through the consistency runtime from both
    // compute servers.
    for (i, item) in ["bolts", "nuts", "gears"].iter().enumerate() {
        runtime
            .invoke_labeled(
                cluster.compute(i % 2),
                obj,
                "record",
                &clouds::encode_args(&(item.to_string(), (i as u64 + 1) * 10)).unwrap(),
            )
            .unwrap();
    }

    let count: u64 = ws.run_wait_decode("Inventory", "count", &()).unwrap();
    assert_eq!(count, 4);

    // Crash-restart the second data server; persistent state survives.
    cluster.crash_data_server(1);
    cluster.restart_data_server(1);
    let dump: Vec<(String, u64)> = ws.run_wait_decode("Inventory", "dump", &()).unwrap();
    assert_eq!(dump.len(), 4);
    assert!(dump.iter().any(|(n, q)| n == "widgets" && *q == 3));
    assert!(dump.iter().any(|(n, q)| n == "gears" && *q == 30));

    // Virtual time moved like an actual 1988 run: whole scenario took
    // hundreds of milliseconds of modeled time.
    let vt = cluster
        .network()
        .clock(cluster.compute(0).node_id())
        .unwrap()
        .now();
    assert!(vt > clouds_simnet::Vt::from_millis(100), "vt {vt}");
}

#[test]
fn pet_and_consistency_compose() {
    let cluster = Cluster::builder()
        .compute_servers(3)
        .data_servers(3)
        .workstations(0)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("ledger", Ledger).unwrap();
    let _runtime = ConsistencyRuntime::install(&cluster);

    let robj = ReplicatedObject::create(cluster.compute(0), "ledger", 3).unwrap();
    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "count",
        &clouds::encode_args(&()).unwrap(),
        &PetOptions {
            pets: 2,
            ..PetOptions::default()
        },
    )
    .unwrap();
    let count: u64 = decode_args(&outcome.result).unwrap();
    assert_eq!(count, 0);

    // A write with one dead replica home still reaches a quorum.
    cluster.crash_data_server(2);
    let outcome = resilient_invoke(
        cluster.computes(),
        &robj,
        "record",
        &clouds::encode_args(&("anvils".to_string(), 1u64)).unwrap(),
        &PetOptions {
            pets: 2,
            ..PetOptions::default()
        },
    )
    .unwrap();
    assert!(outcome.committed_replicas.len() >= 2);
}

#[test]
fn name_space_is_cluster_wide() {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(2)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("ledger", Ledger).unwrap();

    // Created at workstation 0…
    cluster
        .workstation(0)
        .create_object("ledger", "Shared")
        .unwrap();
    // …visible by name at workstation 1 and both compute servers.
    let from_ws1 = cluster.workstation(1).naming().lookup("Shared").unwrap();
    let from_cs0 = cluster.compute(0).naming().lookup("Shared").unwrap();
    let from_cs1 = cluster.compute(1).naming().lookup("Shared").unwrap();
    assert_eq!(from_ws1, from_cs0);
    assert_eq!(from_cs0, from_cs1);

    // And the listing shows it.
    let names = cluster.naming().list("").unwrap();
    assert!(names.iter().any(|(n, _)| n == "Shared"));
}

#[test]
fn threads_span_machines_with_same_identity() {
    struct Echo;
    impl ObjectCode for Echo {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "whoami" => encode_result(&(ctx.thread_id().0, ctx.node_id().0)),
                "relay" => {
                    let (node, target): (u32, SysName) = decode_args(args)?;
                    ctx.invoke_remote(
                        clouds_simnet::NodeId(node),
                        target,
                        "whoami",
                        &clouds::encode_args(&())?,
                    )
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(0)
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    cluster.register_class("echo", Echo).unwrap();
    let obj = cluster
        .compute(0)
        .create_object("echo", Some("E"), None)
        .unwrap();

    let remote_node = cluster.compute(1).node_id().0;
    let (tid, node): (u64, u32) = decode_args(
        &cluster
            .compute(0)
            .invoke(
                obj,
                "relay",
                &clouds::encode_args(&(remote_node, obj)).unwrap(),
                None,
            )
            .unwrap(),
    )
    .unwrap();
    // The remote segment of the computation ran on the other machine but
    // under the SAME Clouds thread identity (§4.2: a thread is a
    // collection of Clouds processes across nodes).
    assert_eq!(node, remote_node);
    let origin = clouds::ThreadId(tid).origin_node();
    assert_eq!(origin, cluster.compute(0).node_id());
}
