//! `clouds-chaos` — the chaos-schedule test engine.
//!
//! The crates below this one each test their own layer; this crate tests
//! the *system*: whole workloads (object invocations, DSM traffic,
//! consistency transactions, resilient PET computations) run while a
//! seeded, time-varying [`FaultSchedule`] crashes nodes, opens partitions
//! and degrades links — and after the schedule heals, system-wide
//! invariants must hold:
//!
//! 1. **Durability** — effects confirmed to the caller survive; effects
//!    never confirmed are either absent or complete (no torn state).
//! 2. **DSM coherence** — one-copy semantics after heal: fresh clients
//!    agree on every page, and the directory can always reclaim pages.
//! 3. **At-most-once** — no RaTP request handler runs twice for one
//!    transaction, and no corrupted frame smuggles in a phantom request.
//! 4. **Replica agreement** — PET commits reach a write quorum, and the
//!    replicas of the final commit are byte-identical afterwards.
//!
//! Every run is generated from a single `u64` seed. On failure the
//! harness greedily shrinks the schedule to a minimal failing subset and
//! panics with a replay line (`CHAOS_SEED=0x… cargo test -p
//! clouds-chaos`), so any red run is reproducible from one number.
//!
//! The workloads themselves live in `tests/workloads.rs`; this library
//! provides the runner ([`run_chaos`]), the configuration
//! ([`ChaosConfig`]) and the real-time [`Pacer`] that drives schedule
//! application forward even when a fault has stalled all traffic.

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

use clouds_obs::{merged_registry_text, MetricsRegistry, TraceSink};
use clouds_simnet::{mix64, FaultSchedule, Network, NodeId, SplitMix64, Vt};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where flight-recorder dumps land; defaults to
/// `<tmp>/clouds-chaos-dumps` when unset.
pub const CHAOS_DUMP_DIR_ENV: &str = "CHAOS_DUMP_DIR";

/// How a chaos test run is parameterised. Read once per test from the
/// environment with [`ChaosConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of generated schedules to run (ignored when `replay` is
    /// set). Overridden by `CHAOS_SCHEDULES`.
    pub schedules: usize,
    /// First seed of the run; seed `i` is derived from it. Overridden by
    /// `CHAOS_BASE_SEED`.
    pub base_seed: u64,
    /// Virtual-time horizon of every schedule; all fault windows close by
    /// this instant. Overridden by `CHAOS_HORIZON_MS`.
    pub horizon: Vt,
    /// Replay exactly one seed (from a previous failure report) instead
    /// of the generated stream. Set via `CHAOS_SEED`.
    pub replay: Option<u64>,
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl ChaosConfig {
    /// Build a config from `CHAOS_SCHEDULES`, `CHAOS_BASE_SEED`,
    /// `CHAOS_HORIZON_MS` and `CHAOS_SEED`, falling back to
    /// `default_schedules`, seed `0xC1A05` and a 200 ms horizon.
    pub fn from_env(default_schedules: usize) -> ChaosConfig {
        let get = |k: &str| std::env::var(k).ok();
        ChaosConfig {
            schedules: get("CHAOS_SCHEDULES")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default_schedules),
            base_seed: get("CHAOS_BASE_SEED")
                .and_then(|v| parse_u64(&v))
                .unwrap_or(0xC1A05),
            horizon: Vt::from_millis(
                get("CHAOS_HORIZON_MS")
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(200),
            ),
            replay: get("CHAOS_SEED").and_then(|v| parse_u64(&v)),
        }
    }

    /// The seeds this config will run, in order.
    pub fn seeds(&self) -> Vec<u64> {
        match self.replay {
            Some(seed) => vec![seed],
            None => (0..self.schedules as u64)
                .map(|i| derive_seed(self.base_seed, i))
                .collect(),
        }
    }
}

/// SplitMix64 finalizer: spreads `base + i` into well-separated seeds.
fn derive_seed(base: u64, i: u64) -> u64 {
    mix64(
        base.wrapping_add(1) // keep seed 0 / index 0 off the weak all-zero point
            .wrapping_add(i.wrapping_mul(SplitMix64::GAMMA)),
    )
}

/// Background thread that maps real time onto schedule virtual time.
///
/// Workload traffic advances virtual clocks on its own, but a schedule
/// window that crashes the only server can stall *all* traffic — and with
/// it, the virtual time that would end the window. The pacer guarantees
/// forward progress: over `real_budget` of wall-clock time it sweeps
/// [`Network::advance_schedule_to`] from zero to the horizon, so every
/// fault window both opens and closes within a bounded real-time run.
///
/// [`Pacer::finish`] stops the sweep and jumps straight to the horizon,
/// leaving the network fully healed for invariant checking.
pub struct Pacer {
    stop: Arc<AtomicBool>,
    net: Network,
    horizon: Vt,
    handle: Option<JoinHandle<()>>,
}

impl Pacer {
    /// Start sweeping `net`'s schedule to `horizon` over `real_budget`.
    pub fn drive(net: &Network, horizon: Vt, real_budget: Duration) -> Pacer {
        const STEPS: u64 = 100;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_net = net.clone();
        let step = (horizon.as_nanos() / STEPS).max(1);
        let tick = real_budget / STEPS as u32;
        let handle = std::thread::Builder::new()
            .name("chaos-pacer".into())
            .spawn(move || {
                let mut t = 0u64;
                while !thread_stop.load(Ordering::Acquire) && t < horizon.as_nanos() {
                    t = (t + step).min(horizon.as_nanos());
                    thread_net.advance_schedule_to(Vt::from_nanos(t));
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the pacer spreads schedule application across the run in \
                                  real time; it never feeds virtual time"
                    )]
                    std::thread::sleep(tick);
                }
            })
            .expect("spawn chaos pacer");
        Pacer {
            stop,
            net: net.clone(),
            horizon,
            handle: Some(handle),
        }
    }

    /// Stop the sweep and force the schedule to its fully-healed end
    /// state. After this returns, no fault from the schedule is in force.
    pub fn finish(mut self) {
        self.halt();
        self.net.advance_schedule_to(self.horizon);
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Pacer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// What the flight recorder captures from the system under test: the
/// cluster-shared trace sink (every node, one virtual timeline) and the
/// per-node metrics registries.
struct FlightData {
    sink: Arc<TraceSink>,
    registries: Vec<(u64, Arc<MetricsRegistry>)>,
}

thread_local! {
    /// Armed per attempt, on the thread running the workload (workloads
    /// execute synchronously inside [`run_chaos`]'s `catch_unwind`).
    static FLIGHT: RefCell<Option<FlightData>> = const { RefCell::new(None) };
}

/// Arm the flight recorder for the current attempt: call right after
/// building the system under test, handing over its trace sink and the
/// per-node registries (e.g. `Cluster::trace_sink()` /
/// `Cluster::registries()`). The ring buffer stays always-on; nothing
/// is written unless the attempt fails. Re-arming replaces the previous
/// attempt's capture.
pub fn arm_flight_recorder(sink: Arc<TraceSink>, registries: Vec<(u64, Arc<MetricsRegistry>)>) {
    FLIGHT.with(|f| *f.borrow_mut() = Some(FlightData { sink, registries }));
}

/// Dump directory: `CHAOS_DUMP_DIR` or `<tmp>/clouds-chaos-dumps`.
fn dump_dir() -> PathBuf {
    std::env::var_os(CHAOS_DUMP_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("clouds-chaos-dumps"))
}

/// Write the armed capture out after a failed attempt: the merged
/// cross-node trace (canonical JSONL), the canonical registry snapshot
/// and a `replay.txt` carrying the seed, schedule and violation, so the
/// exact failing run can be re-created from the dump alone. Returns the
/// dump directory, or `None` when nothing was armed or writing failed
/// (failure to dump never masks the invariant violation itself).
fn dump_flight_record(
    name: &str,
    seed: u64,
    horizon: Vt,
    schedule: &FaultSchedule,
    violation: &str,
) -> Option<PathBuf> {
    let data = FLIGHT.with(|f| f.borrow_mut().take())?;
    let dir = dump_dir().join(format!("{name}-{seed:016x}"));
    std::fs::create_dir_all(&dir).ok()?;
    data.sink.write_to_path(&dir.join("trace.jsonl")).ok()?;
    let snapshots: Vec<_> = data
        .registries
        .iter()
        .map(|(node, reg)| (*node, reg.snapshot()))
        .collect();
    std::fs::write(dir.join("registry.txt"), merged_registry_text(&snapshots)).ok()?;
    let replay = format!(
        "workload: {name}\n\
         seed: {seed:#x}\n\
         horizon_ms: {}\n\
         violation: {violation}\n\
         {schedule}\
         replay: CHAOS_SEED={seed:#x} CHAOS_HORIZON_MS={} cargo test -p clouds-chaos {name}\n",
        horizon.as_nanos() / 1_000_000,
        horizon.as_nanos() / 1_000_000,
    );
    std::fs::write(dir.join("replay.txt"), replay).ok()?;
    Some(dir)
}

/// Run `workload` under every schedule the config yields.
///
/// `nodes` are the machines eligible for crash/partition disruptions; the
/// workload is a full system run — build the system, apply the schedule,
/// drive traffic, heal, check invariants — returning `Err(description)`
/// on any invariant violation (panics inside the workload are caught and
/// treated the same way).
///
/// # Panics
///
/// Panics on the first failing schedule, after greedily shrinking it to a
/// minimal failing subset, with a message carrying the seed (replayable
/// via `CHAOS_SEED`), the minimal schedule and the invariant violation.
pub fn run_chaos<F>(name: &str, cfg: &ChaosConfig, nodes: &[NodeId], workload: F)
where
    F: Fn(&FaultSchedule) -> Result<(), String>,
{
    let seeds = cfg.seeds();
    eprintln!(
        "chaos '{name}': {} schedule(s), horizon {}, base seed {:#x}",
        seeds.len(),
        cfg.horizon,
        cfg.base_seed
    );
    for seed in seeds {
        let schedule = FaultSchedule::generate(seed, nodes, cfg.horizon);
        if let Err(err) = attempt(&workload, &schedule) {
            // Flight recorder: dump the *initial* failing attempt's
            // capture before shrinking re-runs clobber the armed state.
            let dump = dump_flight_record(name, seed, cfg.horizon, &schedule, &err);
            let dump_line = match &dump {
                Some(dir) => format!("flight recorder dump: {}\n", dir.display()),
                None => String::new(),
            };
            let (minimal, last_err) = shrink(&workload, schedule.clone(), err);
            panic!(
                "chaos workload '{name}' failed\n\
                 \n\
                 full {schedule}\
                 minimal failing subset ({} of {} disruptions):\n\
                 {minimal}\
                 invariant violation: {last_err}\n\
                 {dump_line}\
                 \n\
                 replay with: CHAOS_SEED={seed:#x} CHAOS_HORIZON_MS={} \
                 cargo test -p clouds-chaos {name}",
                minimal.disruptions.len(),
                schedule.disruptions.len(),
                cfg.horizon.as_nanos() / 1_000_000,
            );
        }
    }
}

/// One guarded workload execution: a panic counts as a failure report.
fn attempt<F>(workload: &F, schedule: &FaultSchedule) -> Result<(), String>
where
    F: Fn(&FaultSchedule) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| workload(schedule))) {
        Ok(result) => result,
        Err(payload) => Err(panic_text(payload.as_ref())),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Greedy delta-debugging: repeatedly drop any disruption whose removal
/// keeps the workload failing, until no single removal does (or the
/// re-run budget is spent). Because [`FaultSchedule::without`] removes a
/// whole window — onset and recovery together — a shrunk schedule can
/// never strand a node crashed.
fn shrink<F>(
    workload: &F,
    mut current: FaultSchedule,
    mut last_err: String,
) -> (FaultSchedule, String)
where
    F: Fn(&FaultSchedule) -> Result<(), String>,
{
    let mut budget = 24usize;
    loop {
        let mut reduced = false;
        let mut idx = 0;
        while idx < current.disruptions.len() && budget > 0 {
            budget -= 1;
            let candidate = current.without(idx);
            match attempt(workload, &candidate) {
                Err(err) => {
                    current = candidate;
                    last_err = err;
                    reduced = true;
                }
                Ok(()) => idx += 1,
            }
        }
        if !reduced || budget == 0 {
            return (current, last_err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_simnet::DisruptionKind;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..32).map(|i| derive_seed(7, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| derive_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // CI's base seed: these are the schedules its chaos job replays.
        assert_eq!(
            (0..3).map(|i| derive_seed(0xC1A05, i)).collect::<Vec<_>>(),
            [
                0x1A1A_741D_DEAF_9BFB,
                0xCE59_7BA3_0DF6_E69A,
                0x1F0C_A1D7_F49F_A41A
            ]
        );
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0x2A"), Some(42));
        assert_eq!(parse_u64(" 0X2a "), Some(42));
        assert_eq!(parse_u64("nope"), None);
    }

    #[test]
    fn replay_config_yields_exactly_one_seed() {
        let cfg = ChaosConfig {
            schedules: 50,
            base_seed: 1,
            horizon: Vt::from_millis(10),
            replay: Some(0xABCD),
        };
        assert_eq!(cfg.seeds(), vec![0xABCD]);
    }

    #[test]
    fn passing_workload_runs_all_schedules() {
        let cfg = ChaosConfig {
            schedules: 5,
            base_seed: 3,
            horizon: Vt::from_millis(10),
            replay: None,
        };
        let runs = std::sync::atomic::AtomicUsize::new(0);
        run_chaos("noop", &cfg, &[NodeId(1)], |_s| {
            runs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(runs.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn failure_report_carries_seed_and_minimal_schedule() {
        // Fails whenever the schedule contains a crash of node 1; the
        // shrinker must strip everything else and the report must carry a
        // replayable seed.
        let nodes = [NodeId(1)];
        let target_seed = (0..500)
            .map(|i| derive_seed(99, i))
            .find(|&s| {
                let sched = FaultSchedule::generate(s, &nodes, Vt::from_millis(50));
                sched.disruptions.len() >= 2
                    && sched
                        .disruptions
                        .iter()
                        .any(|d| matches!(d.kind, DisruptionKind::Crash(NodeId(1))))
            })
            .expect("some seed produces a crash disruption");
        let cfg = ChaosConfig {
            schedules: 1,
            base_seed: 0,
            horizon: Vt::from_millis(50),
            replay: Some(target_seed),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_chaos("synthetic", &cfg, &nodes, |s| {
                if s.disruptions
                    .iter()
                    .any(|d| matches!(d.kind, DisruptionKind::Crash(NodeId(1))))
                {
                    Err("node 1 crashed".into())
                } else {
                    Ok(())
                }
            });
        }));
        let msg = panic_text(outcome.expect_err("must fail").as_ref());
        assert!(
            msg.contains(&format!("CHAOS_SEED={target_seed:#x}")),
            "{msg}"
        );
        assert!(msg.contains("minimal failing subset (1 of"), "{msg}");
        assert!(msg.contains("crash node1"), "{msg}");
        assert!(msg.contains("node 1 crashed"), "{msg}");
    }

    #[test]
    fn pacer_heals_schedule_without_any_traffic() {
        let net = Network::with_seed(clouds_simnet::CostModel::zero(), 5);
        let a = net.register(NodeId(1)).unwrap();
        let _b = net.register(NodeId(2)).unwrap();
        let horizon = Vt::from_millis(20);
        let schedule = FaultSchedule::generate(11, &[NodeId(1), NodeId(2)], horizon);
        net.set_schedule(&schedule);
        let pacer = Pacer::drive(&net, horizon, Duration::from_millis(30));
        pacer.finish();
        assert_eq!(net.schedule_pending(), 0);
        assert!(!net.is_crashed(NodeId(1)));
        assert!(!net.is_crashed(NodeId(2)));
        // Fully healed: a send goes through without schedule interference.
        a.send(NodeId(2), bytes::Bytes::from_static(b"ok")).unwrap();
    }
}
