//! Cross-node causal tracing, end to end: a fault-free 3-node cluster
//! (1 compute server, 1 data server, 1 workstation) runs the paper's
//! quickstart workload, the merged trace is written out as canonical
//! JSONL, and the causal reconstruction API must rebuild at least one
//! trace tree rooted at an invocation span that spans two nodes — with
//! zero orphan parents, zero cycles and no interval-nesting violations.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_obs::causal::{build_forest, parse_jsonl};

struct Rectangle;

impl ObjectCode for Rectangle {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_i32(0, 1)?;
        ctx.persistent().write_i32(4, 1)
    }

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

#[test]
fn quickstart_trace_reconstructs_across_nodes() {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(1)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("rectangle", Rectangle)
        .expect("class registers");

    let ws = cluster.workstation(0);
    ws.create_object("rectangle", "Rect01").expect("create");
    ws.run_wait("Rect01", "size", &(5i32, 10i32)).expect("size");
    let area: i32 = ws.run_wait_decode("Rect01", "area", &()).expect("area");
    assert_eq!(area, 50);

    // Round-trip through the on-disk format, not just the in-memory
    // ring: CLOUDS_TRACE consumers read exactly this file.
    let path =
        std::env::temp_dir().join(format!("clouds-causal-trace-{}.jsonl", std::process::id()));
    cluster.write_trace(&path).expect("trace writes");
    let text = std::fs::read_to_string(&path).expect("trace reads back");
    let _ = std::fs::remove_file(&path);

    let events = parse_jsonl(&text).expect("canonical JSONL parses");
    assert!(!events.is_empty(), "trace is not empty");
    let (forest, report) = build_forest(&events);
    assert!(
        report.is_clean(),
        "causal defects in fault-free trace:\n{}",
        report.findings().join("\n")
    );

    // At least one trace must be rooted at an invocation span and reach
    // a second node (the data server answering the page fetches).
    let compute = cluster.compute(0).node_id().0 as u64;
    let cross = forest.trees.values().find(|tree| {
        tree.roots.iter().any(|root| {
            let span = &tree.spans[root];
            span.layer == "invoke" && span.node == compute
        }) && tree.nodes().len() >= 2
    });
    let tree = cross.unwrap_or_else(|| {
        panic!(
            "no invocation-rooted trace spanning >=2 nodes; traces: {:?}",
            forest
                .trees
                .values()
                .map(|t| (t.trace_id, t.nodes()))
                .collect::<Vec<_>>()
        )
    });

    // The cross-node hop must be causally attributed: some span on a
    // remote node has a parent recorded on the compute server.
    let remote_child = tree.spans.values().any(|s| {
        s.node != compute
            && s.parent != 0
            && tree.spans.get(&s.parent).is_some_and(|p| p.node == compute)
    });
    assert!(
        remote_child,
        "no remote span parented by a compute-server span in trace {:#x}",
        tree.trace_id
    );

    // And the critical path through that tree telescopes: per-step self
    // times must sum back to the root's duration.
    let root = tree.roots[0];
    let path = tree.critical_path(root);
    assert!(!path.is_empty());
    let total: u64 = path.iter().map(|s| s.self_time).sum();
    assert_eq!(
        total,
        tree.spans[&root].dur.unwrap_or(0),
        "critical-path self times must telescope to the root duration"
    );
}
