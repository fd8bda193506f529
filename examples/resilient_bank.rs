//! Reliability end to end (§5.2): gcp-threads for atomicity, PET for
//! forward progress under failures.
//!
//! A triplicated `vault` object receives deposits as resilient
//! computations while we crash machines under it:
//!
//! * a data server dies *before* a deposit (static failure),
//! * a compute server dies *during* a deposit (dynamic failure),
//!
//! and the vault never loses or double-applies a deposit.
//!
//! Run with: `cargo run --example resilient_bank`

#![allow(
    clippy::disallowed_methods,
    reason = "real-time windows land a crash mid-deposit"
)]

use clouds::prelude::*;
use clouds_consistency::ConsistencyRuntime;
use clouds_pet::{read_any, resilient_invoke, PetOptions, ReplicatedObject};

struct Vault;

impl ObjectCode for Vault {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" => {
                let amount: u64 = decode_args(args)?;
                // A little work so dynamic failures can hit mid-flight.
                std::thread::sleep(std::time::Duration::from_millis(30));
                let balance = ctx.persistent().read_u64(0)? + amount;
                let count = ctx.persistent().read_u64(8)? + 1;
                ctx.persistent().write_u64(0, balance)?;
                ctx.persistent().write_u64(8, count)?;
                encode_result(&balance)
            }
            "audit" => {
                let balance = ctx.persistent().read_u64(0)?;
                let count = ctx.persistent().read_u64(8)?;
                encode_result(&(balance, count))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn main() -> Result<(), CloudsError> {
    let cluster = Cluster::builder()
        .compute_servers(3)
        .data_servers(3)
        .workstations(0)
        .build()?;
    cluster.register_class("vault", Vault)?;
    let _runtime = ConsistencyRuntime::install(&cluster);

    println!("creating a triplicated vault (one replica per data server)");
    let vault = ReplicatedObject::create(cluster.compute(0), "vault", 3)?;
    let opts = PetOptions {
        pets: 3,
        ..PetOptions::default()
    };

    println!("deposit #1: healthy cluster");
    let o1 = resilient_invoke(
        cluster.computes(),
        &vault,
        "deposit",
        &encode_args(&100u64)?,
        &opts,
    )?;
    println!("  {o1}");

    println!("deposit #2: data server 2 is DOWN before we start (static failure)");
    cluster.crash_data_server(2);
    let o2 = resilient_invoke(
        cluster.computes(),
        &vault,
        "deposit",
        &encode_args(&50u64)?,
        &opts,
    )?;
    println!("  {o2}");
    cluster.restart_data_server(2);

    println!("deposit #3: compute server 0 crashes MID-RUN (dynamic failure)");
    let net = cluster.network().clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        net.crash(clouds_simnet::NodeId(1));
    });
    let o3 = resilient_invoke(
        cluster.computes(),
        &vault,
        "deposit",
        &encode_args(&25u64)?,
        &opts,
    )?;
    killer.join().expect("killer thread");
    println!("  {o3}");

    // Audit from a surviving compute server via any current replica.
    let audit = read_any(
        cluster.compute(1),
        &vault,
        "audit",
        &encode_args(&())?,
        &o3.committed_replicas,
    )?;
    let (balance, count): (u64, u64) = decode_args(&audit)?;
    println!("audit: balance={balance} after {count} deposits");
    assert_eq!(balance, 175, "every deposit applied exactly once");
    assert_eq!(count, 3);
    println!("three failures survived; the money is all there.");
    Ok(())
}
