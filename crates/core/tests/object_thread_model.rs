//! End-to-end tests of the Clouds object–thread model: the paper's §2
//! programming model, §3 environment, and §4.2 system objects, running
//! on a full simulated cluster.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_simnet::CostModel;

/// The paper's §2.4 rectangle class.
struct Rectangle;

impl ObjectCode for Rectangle {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "size" => {
                let (x, y): (i32, i32) = decode_args(args)?;
                ctx.persistent().write_i32(0, x)?;
                ctx.persistent().write_i32(4, y)?;
                encode_result(&())
            }
            "area" => {
                let x = ctx.persistent().read_i32(0)?;
                let y = ctx.persistent().read_i32(4)?;
                encode_result(&(x * y))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// A counter exercising constructors, nested invocation and I/O.
struct Counter;

impl ObjectCode for Counter {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_u64(0, 1000) // counters start at 1000
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "add" => {
                let delta: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + delta;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            "announce" => {
                let v = ctx.persistent().read_u64(0)?;
                ctx.write_line(&format!("counter is {v}"))?;
                encode_result(&())
            }
            "add_via" => {
                // Nested invocation: add to *another* counter by name.
                let (peer, delta): (String, u64) = decode_args(args)?;
                let encoded = clouds::encode_args(&delta)?;
                let reply = ctx.invoke_named(&peer, "add", &encoded)?;
                Ok(reply)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn fast_cluster(computes: usize, datas: usize) -> Cluster {
    Cluster::builder()
        .compute_servers(computes)
        .data_servers(datas)
        .workstations(1)
        .cost_model(CostModel::zero())
        .build()
        .unwrap()
}

#[test]
fn rectangle_quickstart_from_the_paper() {
    let cluster = fast_cluster(1, 1);
    cluster.register_class("rectangle", Rectangle).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("rectangle", "Rect01").unwrap();
    ws.run_wait("Rect01", "size", &(5i32, 10i32)).unwrap();
    let area: i32 = ws.run_wait_decode("Rect01", "area", &()).unwrap();
    assert_eq!(area, 50); // "will print 50"
}

#[test]
fn objects_persist_across_invocations_and_servers() {
    let cluster = fast_cluster(2, 1);
    cluster.register_class("counter", Counter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("counter", "C1").unwrap();

    // Constructor ran.
    let v: u64 = ws.run_wait_decode("C1", "get", &()).unwrap();
    assert_eq!(v, 1000);

    // Workstation round-robins across both compute servers; state is
    // one-copy regardless of where each invocation lands.
    for i in 1..=10u64 {
        let v: u64 = ws.run_wait_decode("C1", "add", &1u64).unwrap();
        assert_eq!(v, 1000 + i);
    }
}

#[test]
fn unknown_names_classes_and_entries_error_cleanly() {
    let cluster = fast_cluster(1, 1);
    cluster.register_class("rectangle", Rectangle).unwrap();
    let ws = cluster.workstation(0);

    assert!(matches!(
        ws.create_object("nonexistent-class", "X"),
        Err(CloudsError::NoSuchClass(_))
    ));
    assert!(ws.run_wait("NoSuchName", "area", &()).is_err());

    ws.create_object("rectangle", "R").unwrap();
    assert!(matches!(
        ws.run_wait("R", "perimeter", &()),
        Err(CloudsError::NoSuchEntryPoint(_))
    ));
}

#[test]
fn duplicate_user_name_rejected() {
    let cluster = fast_cluster(1, 1);
    cluster.register_class("rectangle", Rectangle).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("rectangle", "R").unwrap();
    assert!(ws.create_object("rectangle", "R").is_err());
}

#[test]
fn output_routes_to_origin_workstation_terminal() {
    let cluster = fast_cluster(2, 1);
    cluster.register_class("counter", Counter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("counter", "C").unwrap();

    // Run announce on both compute servers; output must appear on the
    // workstation terminal of each thread regardless of execution site.
    let t1 = ws.spawn("C", "announce", clouds::encode_args(&()).unwrap());
    let id1 = t1.id();
    t1.join().unwrap();
    let t2 = ws.spawn("C", "announce", clouds::encode_args(&()).unwrap());
    let id2 = t2.id();
    t2.join().unwrap();
    assert_eq!(ws.output(id1), "counter is 1000\n");
    assert_eq!(ws.output(id2), "counter is 1000\n");
}

#[test]
fn nested_invocation_between_objects() {
    let cluster = fast_cluster(1, 1);
    cluster.register_class("counter", Counter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("counter", "A").unwrap();
    ws.create_object("counter", "B").unwrap();

    // A.add_via(B, 5): the thread leaves A, enters B, and returns.
    let v: u64 = ws
        .run_wait_decode("A", "add_via", &("B".to_string(), 5u64))
        .unwrap();
    assert_eq!(v, 1005);
    let b: u64 = ws.run_wait_decode("B", "get", &()).unwrap();
    assert_eq!(b, 1005);
    // A itself is untouched.
    let a: u64 = ws.run_wait_decode("A", "get", &()).unwrap();
    assert_eq!(a, 1000);
}

#[test]
fn concurrent_threads_with_semaphore_mutual_exclusion() {
    struct SafeCounter;
    impl ObjectCode for SafeCounter {
        fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
            let sem = ctx.sem_create(1)?;
            ctx.persistent().write_value(64, &sem)?;
            ctx.persistent().write_u64(0, 0)
        }
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "incr" => {
                    let times: u64 = decode_args(args)?;
                    let sem: SysName = ctx.persistent().read_value(64)?;
                    for _ in 0..times {
                        // The paper's §2.2: in-object concurrency control
                        // is the programmer's job, via system semaphores.
                        assert!(ctx.sem_p(sem, 30_000)?);
                        let v = ctx.persistent().read_u64(0)?;
                        ctx.persistent().write_u64(0, v + 1)?;
                        ctx.sem_v(sem)?;
                    }
                    encode_result(&())
                }
                "get" => encode_result(&ctx.persistent().read_u64(0)?),
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = fast_cluster(2, 1);
    cluster.register_class("safe-counter", SafeCounter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("safe-counter", "S").unwrap();

    let threads: Vec<_> = (0..4)
        .map(|_| ws.spawn("S", "incr", clouds::encode_args(&25u64).unwrap()))
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let v: u64 = ws.run_wait_decode("S", "get", &()).unwrap();
    assert_eq!(v, 100);
}

#[test]
fn per_thread_memory_is_thread_private() {
    struct Stamps;
    impl ObjectCode for Stamps {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "stamp" => {
                    let tag: String = decode_args(args)?;
                    // Per-thread memory survives across invocations by the
                    // same thread, but is invisible to other threads.
                    let seen = ctx
                        .per_thread_get("tag")
                        .map(|b| String::from_utf8_lossy(&b).to_string());
                    ctx.per_thread_set("tag", tag.clone().into_bytes());
                    encode_result(&seen)
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = fast_cluster(1, 1);
    cluster.register_class("stamps", Stamps).unwrap();
    let cs = cluster.compute(0);
    let obj = cs.create_object("stamps", Some("ST"), None).unwrap();

    // Thread 1: sees nothing, then its own value — within ONE thread we
    // must drive two invocations through the same ThreadState, which the
    // public API exposes via nested invocation; emulate with invoke()
    // twice under one synchronous thread each and confirm isolation
    // between those two separate threads instead.
    let first: Option<String> = clouds::decode_args(
        &cs.invoke(
            obj,
            "stamp",
            &clouds::encode_args(&"one".to_string()).unwrap(),
            None,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(first, None);
    // A different thread does not see thread 1's tag.
    let second: Option<String> = clouds::decode_args(
        &cs.invoke(
            obj,
            "stamp",
            &clouds::encode_args(&"two".to_string()).unwrap(),
            None,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(second, None);
}

#[test]
fn objects_survive_compute_server_crash() {
    let cluster = fast_cluster(2, 1);
    cluster.register_class("counter", Counter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("counter", "C").unwrap();
    // Write through compute 0 explicitly.
    let sys = cluster.naming().lookup("C").unwrap();
    cluster
        .compute(0)
        .invoke(sys, "add", &clouds::encode_args(&7u64).unwrap(), None)
        .unwrap();

    // Crash compute 0: the object is persistent, compute 1 still reads
    // the committed state ("a Clouds object exists forever and survives
    // system crashes", §2.1).
    cluster.crash_compute(0);
    let v: u64 = clouds::decode_args(
        &cluster
            .compute(1)
            .invoke(sys, "get", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(v, 1007);
}

#[test]
fn explicit_remote_invocation_spans_machines() {
    struct Prober;
    impl ObjectCode for Prober {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "where" => encode_result(&ctx.node_id().0),
                "probe_remote" => {
                    let (target_node, obj): (u32, SysName) = decode_args(args)?;
                    // RPC-style: run `where` on the given compute server.
                    let reply = ctx.invoke_remote(
                        clouds_simnet::NodeId(target_node),
                        obj,
                        "where",
                        &clouds::encode_args(&())?,
                    )?;
                    Ok(reply)
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = fast_cluster(2, 1);
    cluster.register_class("prober", Prober).unwrap();
    let cs0 = cluster.compute(0);
    let obj = cs0.create_object("prober", Some("P"), None).unwrap();

    let here: u32 = clouds::decode_args(
        &cs0.invoke(obj, "where", &clouds::encode_args(&()).unwrap(), None)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(here, cs0.node_id().0);

    let there: u32 = clouds::decode_args(
        &cs0.invoke(
            obj,
            "probe_remote",
            &clouds::encode_args(&(cluster.compute(1).node_id().0, obj)).unwrap(),
            None,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(there, cluster.compute(1).node_id().0);
}

#[test]
fn persistent_heap_backs_linked_data() {
    struct LinkedList;
    impl ObjectCode for LinkedList {
        // data[0] = head offset (0 = empty)
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "push" => {
                    let value: u64 = decode_args(args)?;
                    let node = ctx.persistent().heap_alloc(16)?;
                    let head = ctx.persistent().read_u64(0)?;
                    ctx.persistent().heap_write(node, &value.to_le_bytes())?;
                    ctx.persistent().heap_write(node + 8, &head.to_le_bytes())?;
                    ctx.persistent().write_u64(0, node)?;
                    encode_result(&())
                }
                "to_vec" => {
                    let mut out = Vec::new();
                    let mut cursor = ctx.persistent().read_u64(0)?;
                    while cursor != 0 {
                        let raw = ctx.persistent().heap_read(cursor, 16)?;
                        out.push(u64::from_le_bytes(raw[..8].try_into().unwrap()));
                        cursor = u64::from_le_bytes(raw[8..].try_into().unwrap());
                    }
                    encode_result(&out)
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = fast_cluster(2, 1);
    cluster.register_class("list", LinkedList).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("list", "L").unwrap();
    for v in [1u64, 2, 3] {
        ws.run_wait("L", "push", &v).unwrap();
    }
    // "The data can be kept in memory, in a form controlled by the
    // programs (e.g. lists, trees), even when not in use" — and read
    // back from any compute server.
    let vec: Vec<u64> = ws.run_wait_decode("L", "to_vec", &()).unwrap();
    assert_eq!(vec, vec![3, 2, 1]);
}

#[test]
fn terminal_input_reaches_thread() {
    struct Greeter;
    impl ObjectCode for Greeter {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
            match entry {
                "greet" => {
                    let name = ctx.read_line(5000)?.unwrap_or_else(|| "nobody".to_string());
                    ctx.write_line(&format!("hello {name}"))?;
                    encode_result(&())
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    let cluster = fast_cluster(1, 1);
    cluster.register_class("greeter", Greeter).unwrap();
    let ws = cluster.workstation(0);
    ws.create_object("greeter", "G").unwrap();
    let t = ws.spawn("G", "greet", clouds::encode_args(&()).unwrap());
    let id = t.id();
    ws.type_line(id, "clouds");
    t.join().unwrap();
    assert_eq!(ws.output(id), "hello clouds\n");
}
