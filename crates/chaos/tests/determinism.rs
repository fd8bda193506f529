//! Trace-determinism invariant: the same seed must produce the same
//! virtual-time event stream, byte for byte.
//!
//! Every `clouds-obs` event is stamped with *virtual* time, and the
//! canonical stream is sorted by `(ts, node, layer, name, args, dur)` —
//! so thread interleaving cannot reorder it. What CAN break equality is
//! genuine nondeterminism: wall-clock retransmission timers firing,
//! fault-RNG draws, or virtual-clock charges racing. This invariant
//! pins the fault-free case: a sequential workload on a freshly booted
//! cluster, run twice from the same seed in the same process, must
//! produce byte-identical canonical JSONL and identical protocol
//! counters.
//!
//! Under an active fault schedule the stream is *not* expected to be
//! byte-stable (retransmit instants depend on wall-clock timing), which
//! is why the chaos workloads in `workloads.rs` check semantic
//! invariants instead. Determinism is asserted exactly where the system
//! promises it.

use clouds::encode_result;
use clouds::prelude::*;
use clouds_ra::CacheStats;
use clouds_ratp::RatpConfig;
use clouds_simnet::CostModel;
use std::collections::BTreeMap;
use std::time::Duration;

/// One persistent cell: bump/get over a single page, so an s-thread
/// flush always carries exactly one dirty page.
struct Cell;

impl ObjectCode for Cell {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_u64(0, 0)
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
        match entry {
            "bump" => {
                let v = ctx.persistent().read_u64(0)?;
                ctx.persistent().write_u64(0, v + 1)?;
                encode_result(&(v + 1))
            }
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, _entry: &str) -> OperationLabel {
        OperationLabel::S
    }
}

/// Boot a one-compute/one-data cluster, run a sequential bump/get
/// workload, and return the canonical trace, its drop count, every
/// `dsm.*` counter of both nodes' registries by name, and the compute
/// node's page-cache counters (read-ahead's among them).
fn run_once(seed: u64) -> (String, u64, BTreeMap<String, u64>, CacheStats) {
    // Retransmissions are paced by *wall-clock* timers, and every
    // retransmitted packet charges virtual transport time — on a loaded
    // host that would leak real scheduling jitter into virtual
    // durations. A patient retry interval keeps a fault-free run
    // retransmit-free, so its virtual timeline depends only on the
    // workload.
    let patient = RatpConfig {
        retry_interval: Duration::from_secs(5),
        max_retries: 120,
    };
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .cost_model(CostModel::sun3_ethernet())
        .seed(seed)
        .server_ratp_config(patient)
        .build()
        .expect("cluster boots");
    cluster.register_class("cell", Cell).expect("register");
    let obj = cluster.create_object("cell", "the-cell").expect("create");
    let compute = cluster.compute(0);
    for _ in 0..5 {
        compute.invoke(obj, "bump", &[], None).expect("bump");
    }
    compute.invoke(obj, "get", &[], None).expect("get");

    let sink = cluster.trace_sink();
    let dsm = [compute.dsm().obs(), cluster.data_server(0).dsm().obs()]
        .into_iter()
        .flat_map(|obs| obs.registry().snapshot().counters)
        .filter(|(name, _)| name.starts_with("dsm."))
        .collect();
    (
        sink.canonical_jsonl(),
        sink.dropped(),
        dsm,
        compute.dsm().cache().stats(),
    )
}

#[test]
fn same_seed_produces_byte_identical_event_streams() {
    let (stream_a, dropped_a, dsm_a, cache_a) = run_once(0xC1A05);
    let (stream_b, dropped_b, dsm_b, cache_b) = run_once(0xC1A05);

    assert_eq!(dropped_a, 0, "ring must not overflow in this workload");
    assert_eq!(dropped_b, 0);
    assert!(!stream_a.is_empty(), "workload must produce events");

    // The stream spans every layer the workload exercises.
    for layer in [
        "\"layer\":\"invoke\"",
        "\"layer\":\"ratp\"",
        "\"layer\":\"dsm.client\"",
        "\"layer\":\"dsm.server\"",
    ] {
        assert!(stream_a.contains(layer), "missing {layer} in trace");
    }

    if stream_a != stream_b {
        if std::env::var_os("DETERMINISM_DUMP").is_some() {
            std::fs::write("/tmp/stream_a.jsonl", &stream_a).unwrap();
            std::fs::write("/tmp/stream_b.jsonl", &stream_b).unwrap();
        }
        let a: Vec<&str> = stream_a.lines().collect();
        let b: Vec<&str> = stream_b.lines().collect();
        let i = (0..a.len().max(b.len()))
            .find(|&i| a.get(i) != b.get(i))
            .unwrap_or(0);
        panic!(
            "same seed must replay the same virtual-time event stream\n\
             lengths: {} vs {} events; first divergence at line {i}:\n\
             run A: {}\nrun B: {}",
            a.len(),
            b.len(),
            a.get(i).unwrap_or(&"<eof>"),
            b.get(i).unwrap_or(&"<eof>"),
        );
    }
    assert_eq!(
        cache_a, cache_b,
        "page-cache counters must be deterministic"
    );
    // `dsm.server.shard_contention` counts `try_lock`s that found the
    // directory lock held: which of two threads touching the directory
    // gets there first is the host's decision, not the seed's, so it is
    // a host-timing counter and stays out of the comparison. Every
    // protocol counter, client's and server's, is compared.
    let protocol = |mut counts: BTreeMap<String, u64>| {
        counts
            .remove("dsm.server.shard_contention")
            .expect("the server registers shard_contention");
        counts
    };
    assert_eq!(
        protocol(dsm_a),
        protocol(dsm_b),
        "dsm protocol counters must be deterministic"
    );
}

#[test]
fn registry_counters_reconcile_with_trace_volume() {
    let (stream, _, dsm, _) = run_once(0xD15C0);
    // Every client fetch is a `FetchPages` and leaves one fetch_pages
    // span in the trace; the registry and the trace must tell the same
    // story.
    let fetch_spans = stream.matches("\"name\":\"fetch_pages\"").count() as u64;
    assert_eq!(fetch_spans, dsm["dsm.client.fetch_rpcs"]);
    // Pages granted as seen by the client equal grants served by the
    // server (speculative read-ahead grants count on both sides).
    assert_eq!(
        dsm["dsm.client.pages_granted"],
        dsm["dsm.server.read_grants"] + dsm["dsm.server.write_grants"]
    );
}
