//! E13 — open-loop SLO load harness.
//!
//! Closed-loop benchmarks (issue the next request when the previous one
//! returns) understate tail latency: when the system stalls, the load
//! generator politely stops offering load, so the stall never shows up
//! in the histogram — the *coordinated omission* problem. This harness
//! is open-loop: request arrival times come from a deterministic
//! Poisson process that does not care how the system is doing, and each
//! request's latency is measured from its **intended arrival time** to
//! completion. When the cluster saturates, the backlog charges queueing
//! delay into the tail percentiles instead of hiding it.
//!
//! Everything runs in virtual time on `clouds-simnet`, seeded from the
//! run seed: two same-seed runs produce equal [`LoadPoint`]s, which is
//! what lets `tests/goldens.rs` hold tail latency to the E13 rows of the
//! committed `paper_tables_output.txt` byte for byte — something a real
//! cluster cannot promise.
//!
//! The arrival process models the aggregate of [`CLIENTS`] independent
//! simulated clients; zipfian skew over the key working set gives the
//! hot-key concentration of production traffic.

use clouds::prelude::*;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_simnet::Vt;
use std::sync::Arc;

/// Simulated client population behind the arrival process (stamped into
/// each request's span discriminator, and the unit the per-client
/// arrival story is told in: an open loop is the limit of "clients
/// never wait for each other").
pub const CLIENTS: u64 = 2000;

/// Session objects in the KV working set.
pub const KV_KEYS: usize = 64;

/// Bank accounts in the ledger working set.
pub const LEDGER_ACCOUNTS: usize = 16;

/// Zipf exponent for both working sets (the classic web-caching value).
pub const ZIPF_S: f64 = 0.99;

/// Seed of `paper_tables` E13 and its committed golden rows.
pub const DEFAULT_SEED: u64 = 13;

// ---------------------------------------------------------------------
// Deterministic generators (no OS entropy, no wall clock: every draw
// derives from the seed).
// ---------------------------------------------------------------------

/// The workspace's seeded generator, the one simnet draws frame fates
/// from: the harness takes no entropy from the OS.
pub use clouds_simnet::SplitMix64;

/// Deterministic Poisson arrival process: exponential inter-arrival
/// gaps with the given mean rate, accumulated into absolute virtual
/// arrival times.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: SplitMix64,
    mean_gap_ns: f64,
    next: u64,
}

impl PoissonArrivals {
    /// Arrivals at `offered_rps` requests per virtual second, seeded.
    pub fn new(seed: u64, offered_rps: u64) -> PoissonArrivals {
        PoissonArrivals {
            rng: SplitMix64::new(seed),
            mean_gap_ns: 1e9 / offered_rps.max(1) as f64,
            next: 0,
        }
    }

    /// Absolute virtual time of the next arrival (strictly increasing).
    pub fn next_arrival(&mut self) -> Vt {
        let u = self.rng.next_f64();
        // Inverse-CDF sample of Exp(1/mean); 1-u ∈ (0, 1] keeps ln
        // finite. Gaps round to ≥ 1 ns so arrivals stay distinct.
        let gap = (-self.mean_gap_ns * (1.0 - u).ln()).round().max(1.0);
        self.next = self.next.saturating_add(gap as u64);
        Vt::from_nanos(self.next)
    }
}

/// Zipfian sampler over `0..n` (rank 0 hottest), via inverse CDF with
/// binary search — exact, deterministic, no rejection loop.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One measured offered-load point of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPoint {
    /// Scenario name (`kv` or `ledger`).
    pub scenario: &'static str,
    /// Offered load, requests per virtual second.
    pub offered_rps: u64,
    /// Requests issued (measurement window, excludes prewarm).
    pub requests: u64,
    /// Requests that returned an error (still measured for latency).
    pub errors: u64,
    /// Virtual duration from first intended arrival to last completion.
    pub elapsed: Vt,
    /// Achieved throughput in milli-requests per virtual second.
    pub achieved_rps_milli: u64,
    /// Latency percentiles from intended arrival to completion.
    pub p50: Vt,
    /// 99th percentile.
    pub p99: Vt,
    /// 99.9th percentile (the SLO tail).
    pub p999: Vt,
}

/// Session-store object: one persistent slot per session, `get`/`put`.
struct Session;

impl ObjectCode for Session {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "get" => encode_result(&ctx.persistent().read_u64(0)?),
            "put" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Bank-account object (the E5 ledger shape).
struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// The request issued at one arrival: which object, and how to call it.
enum Op {
    /// s-thread invocation (KV `get`/`put`).
    Plain { entry: &'static str, args: Vec<u8> },
    /// gcp-thread invocation through 2PC (ledger `deposit`).
    Gcp { entry: &'static str, args: Vec<u8> },
}

/// Drive one open-loop point: `requests` arrivals against `targets`,
/// latency into the node histogram `hist_name`, ops chosen by `pick`.
///
/// The driver is a single thread: it sleeps (advances the client's
/// virtual clock) until the next intended arrival when idle, and issues
/// immediately when behind — so a backlog charges queueing delay to
/// every queued request, which is exactly the coordinated-omission
/// correction.
#[allow(clippy::too_many_arguments)]
fn drive_open_loop(
    cluster: &Cluster,
    runtime: Option<&Arc<ConsistencyRuntime>>,
    scenario: &'static str,
    hist: Arc<clouds_obs::Histogram>,
    targets: &[SysName],
    seed: u64,
    offered_rps: u64,
    requests: u64,
    mut pick: impl FnMut(&mut SplitMix64, usize) -> Op,
) -> LoadPoint {
    let cs = cluster.compute(0);
    let obs = cs.ratp().obs();
    let clock = cluster.network().clock(cs.node_id()).expect("client clock");
    let registry = obs.registry();
    let requests_ctr = registry.counter("load.requests");
    let errors_ctr = registry.counter("load.errors");

    let mut arrivals = PoissonArrivals::new(seed ^ 0xA11A, offered_rps);
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let zipf = Zipf::new(targets.len(), ZIPF_S);
    let gcp_opts = CpOptions {
        lock_wait_ms: 500,
        max_retries: 40,
    };

    let start = clock.now();
    let mut errors = 0u64;
    for i in 0..requests {
        // Intended arrival, offset to the measurement window's origin.
        let arrival = start + arrivals.next_arrival();
        clock.advance_to(arrival.max(clock.now()));

        let rank = zipf.sample(&mut rng);
        let client = rng.next_range(CLIENTS);
        let obj = targets[rank];
        let trace_id = clouds_obs::derive_trace_id(seed ^ client, i);
        // The request span starts at the *intended* arrival — by now the
        // clock may be far past it — and parents the invocation span
        // through the ambient context, so each request is one
        // end-to-end trace tree.
        let span = obs
            .root_span_at(arrival, trace_id, "load", "request", scenario)
            .with_histogram(Arc::clone(&hist));
        requests_ctr.inc();
        let result = match pick(&mut rng, rank) {
            Op::Plain { entry, args } => cs.invoke(obj, entry, &args, None),
            Op::Gcp { entry, args } => runtime
                .expect("gcp scenario has a consistency runtime")
                .invoke(cs, OperationLabel::Gcp, obj, entry, &args, &gcp_opts),
        };
        if result.is_err() {
            errors += 1;
            errors_ctr.inc();
        }
        drop(span);
    }

    let elapsed = clock.now().saturating_sub(start);
    let summary = hist.summary();
    let achieved_rps_milli = (u128::from(requests) * 1_000_000_000_000u128
        / u128::from(elapsed.as_nanos().max(1))) as u64;
    LoadPoint {
        scenario,
        offered_rps,
        requests,
        errors,
        elapsed,
        achieved_rps_milli,
        p50: summary.p50,
        p99: summary.p99,
        p999: summary.p999,
    }
}

/// One KV/session-store point: 1 compute + 1 data server, [`KV_KEYS`]
/// session objects, zipf-skewed 70% `get` / 30% `put` mix. A hot
/// invocation costs ~8 ms virtual under the Sun-3 model, so a single
/// in-order server saturates near 125 rps.
pub fn run_kv_point(seed: u64, offered_rps: u64, requests: u64) -> LoadPoint {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .seed(seed)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("session", Session)
        .expect("register");
    let targets: Vec<SysName> = (0..KV_KEYS)
        .map(|k| {
            cluster
                .create_object("session", &format!("S{k}"))
                .expect("session object")
        })
        .collect();
    // Prewarm: touch every session once so the measurement window sees
    // the steady (hot) state, not 64 cold demand-page storms.
    let cs = cluster.compute(0);
    let probe = encode_args(&()).expect("args");
    for &obj in &targets {
        cs.invoke(obj, "get", &probe, None).expect("prewarm");
    }

    let hist = cs.ratp().obs().histogram("slo.kv.latency");
    drive_open_loop(
        &cluster,
        None,
        "kv",
        hist,
        &targets,
        seed,
        offered_rps,
        requests,
        |rng, rank| {
            if rng.next_f64() < 0.7 {
                Op::Plain {
                    entry: "get",
                    args: encode_args(&()).expect("args"),
                }
            } else {
                Op::Plain {
                    entry: "put",
                    args: encode_args(&(rank as u64)).expect("args"),
                }
            }
        },
    )
}

/// One bank-ledger point: 1 compute + 2 data servers,
/// [`LEDGER_ACCOUNTS`] accounts, every request a gcp-thread `deposit`
/// (lock + full 2PC), zipf-skewed over accounts.
pub fn run_ledger_point(seed: u64, offered_rps: u64, requests: u64) -> LoadPoint {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(2)
        .workstations(0)
        .seed(seed)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("account", Account)
        .expect("register");
    let runtime = ConsistencyRuntime::install(&cluster);
    let targets: Vec<SysName> = (0..LEDGER_ACCOUNTS)
        .map(|k| {
            cluster
                .create_object("account", &format!("A{k}"))
                .expect("account object")
        })
        .collect();
    let cs = cluster.compute(0);
    let probe = encode_args(&()).expect("args");
    for &obj in &targets {
        cs.invoke(obj, "balance", &probe, None).expect("prewarm");
    }

    let hist = cs.ratp().obs().histogram("slo.ledger.latency");
    drive_open_loop(
        &cluster,
        Some(&runtime),
        "ledger",
        hist,
        &targets,
        seed,
        offered_rps,
        requests,
        |_rng, _rank| Op::Gcp {
            entry: "deposit",
            args: encode_args(&1u64).expect("args"),
        },
    )
}

/// The canonical E13 sweep: ≥4 offered-load points per scenario,
/// bracketing each scenario's saturation knee. This exact configuration
/// (with [`DEFAULT_SEED`]) produced the committed E13 golden rows.
pub fn run_e13(seed: u64) -> Vec<LoadPoint> {
    let mut out = Vec::new();
    for &rps in &[40u64, 80, 110, 140] {
        out.push(run_kv_point(seed, rps, 300));
    }
    for &rps in &[10u64, 20, 30, 40] {
        out.push(run_ledger_point(seed, rps, 150));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_queueing_delay_past_saturation() {
        // Far past the ~125 rps knee the tail must blow up relative to
        // a lightly loaded run — that is the whole point of open loop.
        let light = run_kv_point(7, 30, 60);
        let heavy = run_kv_point(7, 400, 60);
        assert_eq!(light.errors, 0);
        assert!(
            heavy.p99.as_nanos() > light.p99.as_nanos() * 3,
            "no knee: light p99 {} vs heavy p99 {}",
            light.p99,
            heavy.p99
        );
        // Achieved throughput saturates below offered.
        assert!(heavy.achieved_rps_milli < 400_000);
    }

    #[test]
    fn kv_point_is_deterministic_for_a_fixed_seed() {
        let a = run_kv_point(11, 90, 50);
        let b = run_kv_point(11, 90, 50);
        assert_eq!(a, b);
        assert_ne!(a, run_kv_point(12, 90, 50), "seed must matter");
    }
}
