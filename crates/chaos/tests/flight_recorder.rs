//! The chaos flight recorder: a run that violates an invariant must
//! leave a dump — merged cross-node trace, canonical registry snapshot
//! and a replay file carrying the seed — in `CHAOS_DUMP_DIR`, and
//! re-running that seed must reproduce the violation.

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_chaos::{arm_flight_recorder, run_chaos, ChaosConfig};
use clouds_obs::causal::{build_forest, parse_jsonl};
use clouds_simnet::{CostModel, FaultSchedule, NodeId, Vt};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

struct Counter;

impl ObjectCode for Counter {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_i32(0, 0)
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "add" => {
                let n: i32 = decode_args(args)?;
                let v = ctx.persistent().read_i32(0)?;
                ctx.persistent().write_i32(0, v + n)?;
                encode_result(&(v + n))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// The workload under test: runs real traffic (so the ring buffer has a
/// cross-node trace to dump), then reports an invariant violation
/// whenever the schedule contains any disruption. Deterministic in the
/// seed, so replaying the reported seed reproduces the violation.
fn violating_workload(schedule: &FaultSchedule) -> Result<(), String> {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .cost_model(CostModel::zero())
        .seed(schedule.seed)
        .build()
        .map_err(|e| format!("cluster boot: {e}"))?;
    arm_flight_recorder(cluster.trace_sink().clone(), cluster.registries());
    cluster
        .register_class("counter", Counter)
        .map_err(|e| format!("register: {e}"))?;
    let obj = cluster
        .create_object("counter", "FlightCounter")
        .map_err(|e| format!("create: {e}"))?;
    let v: i32 = cluster
        .compute(0)
        .invoke(obj, "add", &clouds::encode_args(&7i32).unwrap(), None)
        .and_then(|b| clouds::decode_args(&b))
        .map_err(|e| format!("invoke: {e}"))?;
    if v != 7 {
        return Err(format!("counter read {v}, expected 7"));
    }
    if schedule.disruptions.is_empty() {
        Ok(())
    } else {
        Err("synthetic invariant violation: schedule had disruptions".into())
    }
}

fn run_one(seed: u64, horizon: Vt) -> Result<(), String> {
    let cfg = ChaosConfig {
        schedules: 1,
        base_seed: 0,
        horizon,
        replay: Some(seed),
    };
    catch_unwind(AssertUnwindSafe(|| {
        run_chaos(
            "flightrec",
            &cfg,
            &[NodeId(1), NodeId(100)],
            violating_workload,
        );
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn violation_dumps_trace_registry_and_seed_and_replays() {
    let horizon = Vt::from_millis(50);
    let nodes = [NodeId(1), NodeId(100)];
    // Find a seed whose schedule actually disrupts something.
    let seed = (0..500u64)
        .find(|&s| {
            !FaultSchedule::generate(s, &nodes, horizon)
                .disruptions
                .is_empty()
        })
        .expect("some seed produces a disruption");

    // Route dumps to a private directory. Safe here: this integration
    // test binary holds exactly one test, so no other thread races the
    // process environment.
    let dump_root = std::env::temp_dir().join(format!("clouds-flightrec-{}", std::process::id()));
    std::env::set_var(clouds_chaos::CHAOS_DUMP_DIR_ENV, &dump_root);

    let msg = run_one(seed, horizon).expect_err("violating workload must panic");
    assert!(msg.contains("synthetic invariant violation"), "{msg}");
    assert!(msg.contains("flight recorder dump:"), "{msg}");

    let dir: PathBuf = dump_root.join(format!("flightrec-{seed:016x}"));
    assert!(dir.is_dir(), "dump directory missing: {}", dir.display());

    // The dump must carry a parseable merged trace…
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace.jsonl");
    let events = parse_jsonl(&trace).expect("dumped trace parses");
    assert!(!events.is_empty());
    let (_forest, report) = build_forest(&events);
    assert!(report.is_clean(), "{}", report.findings().join("\n"));

    // …a canonically sorted registry snapshot with per-node sections…
    let registry = std::fs::read_to_string(dir.join("registry.txt")).expect("registry.txt");
    assert!(registry.contains("# node 1\n"), "{registry}");
    assert!(registry.contains("# node 100\n"), "{registry}");
    assert!(registry.contains("counter "), "{registry}");

    // …and the failing seed, replayable.
    let replay = std::fs::read_to_string(dir.join("replay.txt")).expect("replay.txt");
    assert!(replay.contains(&format!("seed: {seed:#x}")), "{replay}");
    assert!(replay.contains("CHAOS_SEED="), "{replay}");

    // Re-running the recorded seed reproduces the violation.
    let again = run_one(seed, horizon).expect_err("replay must fail again");
    assert!(again.contains("synthetic invariant violation"), "{again}");

    let _ = std::fs::remove_dir_all(&dump_root);
}
