//! The modeled latency of a two-participant commit is a property of the
//! commit, not of how the host scheduled the participants' handlers.
//!
//! The coordinator fans prepare and commit out to both data servers.
//! When the first request of each fan-out went to a RaTP crew thread,
//! that thread raced the caller's own handler for the compute server's
//! clock, and identical transfers came out a packet charge or more
//! apart. The caller now serves every request of a `RatpNode::call_many`
//! itself, in a fixed order, and no transfer starts a crew job: every
//! transfer of every run costs the same.
//!
//! So does its count of round trips. Phase 2 is a transfer's last: a
//! participant releases the txn's locks where it answers `Commit`, so no
//! `ReleaseAll` follows, and the coordinator drops its own cached copies
//! before it sends `Commit`, so no install recalls one from its node.
//! The gate counts both, from the nodes' registries.

use clouds::prelude::*;
use clouds::{decode_args, encode_args, encode_result};
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_ratp::RatpConfig;
use clouds_simnet::{CostModel, Vt};
use std::time::Duration;

/// Ledger account: balance in the first word.
struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "add" => {
                let amount: u64 = decode_args(args)?;
                let balance = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, balance)?;
                encode_result(&balance)
            }
            // Debit here, credit `to` through a nested invocation in the
            // same transaction.
            "transfer" => {
                let (to, amount): (SysName, u64) = decode_args(args)?;
                let balance = ctx.persistent().read_u64(0)?;
                ctx.persistent().write_u64(0, balance - amount)?;
                ctx.invoke(to, "add", &encode_args(&amount)?)?;
                encode_result(&(balance - amount))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

const WARM_UP: usize = 4;
const TRANSFERS: usize = 300;

/// RaTP calls of one fault-free transfer, over every node: four lock
/// acquires (a read lock, then its upgrade, on each account's segment),
/// two page fetches (the last commit dropped both accounts' copies), two
/// `Prepare`s, one `Decide` and two `Commit`s.
const CALLS_PER_TRANSFER: u64 = 11;

/// What `TRANSFERS` identical gcp transfers cost after a warm-up.
struct Costs {
    /// Each one's cost on the compute server's clock.
    latencies: Vec<Vt>,
    /// The crew jobs they added on every node.
    crew_jobs: u64,
    /// The RaTP calls they issued from every node.
    calls: u64,
    /// The copies data servers recalled for them (`dsm.server.invalidations`).
    invalidations: u64,
}

/// Boot a cluster, warm it up, and measure `TRANSFERS` transfers.
fn transfer_costs() -> Costs {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(2)
        .workstations(0)
        .cost_model(CostModel::sun3_ethernet())
        // No frame is ever lost here, so no retransmission is ever
        // needed; a retry timer short enough to fire on a busy host is
        // a wall clock charging packets to the model (ROADMAP item 2),
        // which is not what this test is about.
        .server_ratp_config(RatpConfig {
            retry_interval: Duration::from_secs(2),
            max_retries: 30,
        })
        .build()
        .expect("cluster boots");
    cluster
        .register_class("account", Account)
        .expect("class registers");
    let runtime = ConsistencyRuntime::install(&cluster);
    let cs = cluster.compute(0);
    let account = |name: &str, server: usize| {
        let home = cluster.data_server(server).node_id();
        let obj = cs
            .create_object("account", Some(name), Some(home))
            .expect("account created");
        cs.invoke(obj, "add", &encode_args(&1_000_000u64).unwrap(), None)
            .expect("opening balance");
        obj
    };
    let (from, to) = (account("from", 0), account("to", 1));
    let args = encode_args(&(to, 1u64)).unwrap();
    let clock = cluster
        .network()
        .clock(cs.node_id())
        .expect("compute server is registered");
    let transfer = || {
        let before = clock.now();
        runtime
            .invoke(
                cs,
                OperationLabel::Gcp,
                from,
                "transfer",
                &args,
                &CpOptions::default(),
            )
            .expect("transfer commits");
        clock.now() - before
    };
    // The sum of counter `name` over every node's registry.
    let counted = |name: &str| -> u64 {
        let ratps = cluster.computes().iter().map(|c| c.ratp());
        ratps
            .chain(cluster.data_servers().iter().map(|d| d.ratp()))
            .map(|ratp| ratp.obs().registry().counter_value(name))
            .sum()
    };
    let names = ["ratp.crew_jobs", "ratp.calls", "dsm.server.invalidations"];
    (0..WARM_UP).for_each(|_| {
        transfer();
    });
    let before = names.map(counted);
    let latencies = (0..TRANSFERS).map(|_| transfer()).collect();
    let [crew_jobs, calls, invalidations] = [0, 1, 2].map(|i| counted(names[i]) - before[i]);
    Costs {
        latencies,
        crew_jobs,
        calls,
        invalidations,
    }
}

#[test]
fn every_two_participant_commit_costs_one_value_and_no_crew_job() {
    let runs: Vec<Costs> = (0..3).map(|_| transfer_costs()).collect();
    let first = runs[0].latencies[0];
    for (run, costs) in runs.iter().enumerate() {
        let latencies = &costs.latencies;
        let (lo, hi) = (latencies.iter().min(), latencies.iter().max());
        assert_eq!(
            (lo, hi),
            (Some(&first), Some(&first)),
            "run {run}: every transfer should cost {first}"
        );
        assert_eq!(
            costs.crew_jobs, 0,
            "run {run}: transfers ran handlers on the crew"
        );
        assert_eq!(
            costs.calls,
            CALLS_PER_TRANSFER * TRANSFERS as u64,
            "run {run}: RaTP calls of {TRANSFERS} transfers"
        );
        assert_eq!(
            costs.invalidations, 0,
            "run {run}: a commit recalled a copy"
        );
    }
}
