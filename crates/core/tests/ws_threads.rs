//! Thread census of a workstation request. A test binary of its own,
//! with one test: any other test running beside it in the process would
//! move the count.
#![cfg(target_os = "linux")]

use clouds::encode_result;
use clouds::prelude::*;
use clouds_simnet::CostModel;
use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// Names of this process's threads that start with `prefix`.
fn thread_names(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .filter(|name| name.starts_with(prefix))
        .collect()
}

/// Says it is ready on its terminal, then waits for a line there.
struct Prompt;

impl ObjectCode for Prompt {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
        match entry {
            "ask" => {
                ctx.write_line("ready")?;
                let answer = ctx.read_line(10_000)?;
                encode_result(&answer)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

#[test]
fn a_spawned_thread_has_no_workstation_thread_of_its_own() {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(1)
        .cost_model(CostModel::zero())
        .build()
        .expect("cluster boots");
    cluster.register_class("prompt", Prompt).expect("register");
    let ws = cluster.workstation(0);
    ws.create_object("prompt", "P").expect("create");

    // One request blocked in its terminal read until the line is typed.
    let ask = |census: &dyn Fn()| {
        let handle = ws.spawn("P", "ask", clouds::encode_args(&()).expect("args"));
        let id = handle.id();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ws.output(id).is_empty() {
            assert!(Instant::now() < deadline, "the thread never got going");
            std::thread::sleep(Duration::from_millis(1));
        }
        census();
        ws.type_line(id, "go");
        let answer: Option<String> =
            clouds::decode_args(&handle.join().expect("join")).expect("decode");
        assert_eq!(answer.as_deref(), Some("go"));
    };

    // Warm-up: the crews grow to this request's concurrency.
    ask(&|| {});
    let warm = os_threads();
    ask(&|| {
        assert_eq!(thread_names("ws-"), Vec::<String>::new());
        assert_eq!(os_threads(), warm, "the request started a thread");
    });
}
