//! E6 — the PET resources/resilience trade-off (§5.2.2).
//!
//! "This method allows a tradeoff in the amount of resources used (i.e.
//! the number of parallel threads started for each computation) and the
//! desired degree of resilience (number of failures the computation can
//! tolerate, while the computation is in progress.)"
//!
//! The sweep runs a resilient computation with replication degree `r`
//! and PET count `n` under injected failures (one data server and one
//! compute server crashed per trial, chosen round-robin by trial
//! number), and reports the success rate.

use clouds::prelude::*;
use clouds_consistency::ConsistencyRuntime;
use clouds_pet::{resilient_invoke, PetOptions, ReplicatedObject};
use clouds_simnet::CostModel;

/// One cell of the resilience sweep.
#[derive(Debug, Clone, Copy)]
pub struct PetPoint {
    /// Replication degree.
    pub replicas: usize,
    /// Parallel execution threads.
    pub pets: usize,
    /// Trials attempted.
    pub trials: u32,
    /// Trials that completed and committed a quorum.
    pub successes: u32,
}

struct Tally;

impl ObjectCode for Tally {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "add" => {
                let n: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + n;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Run one (replicas, pets) cell with `trials` trials. Each trial
/// crashes one compute server and one data server (different pick each
/// trial) *before* the computation starts.
pub fn run_cell(replicas: usize, pets: usize, trials: u32) -> PetPoint {
    let mut successes = 0;
    for trial in 0..trials {
        let cluster = Cluster::builder()
            .compute_servers(3)
            .data_servers(3)
            .workstations(0)
            .cost_model(CostModel::zero())
            .build()
            .expect("cluster boots");
        cluster.register_class("tally", Tally).expect("register");
        let _runtime = ConsistencyRuntime::install(&cluster);
        let robj =
            ReplicatedObject::create(cluster.compute(0), "tally", replicas).expect("replicas");

        // Static failures: one compute server, one data server.
        cluster.crash_compute(trial as usize % 3);
        cluster.crash_data_server((trial as usize + 1) % 3);

        let outcome = resilient_invoke(
            cluster.computes(),
            &robj,
            "add",
            &encode_args(&1u64).expect("args"),
            &PetOptions {
                pets,
                ..PetOptions::default()
            },
        );
        if outcome.is_ok() {
            successes += 1;
        }
    }
    PetPoint {
        replicas,
        pets,
        trials,
        successes,
    }
}

/// Virtual-time overhead of resilience on a *healthy* cluster: the
/// resources half of the §5.2.2 trade-off. Returns (pets, vt) pairs for
/// one `add` computation at replication degree 3.
pub fn overhead() -> Vec<(usize, clouds_simnet::Vt)> {
    use clouds_simnet::Vt;
    let mut out = Vec::new();
    for pets in [1usize, 2, 3] {
        let cluster = Cluster::builder()
            .compute_servers(3)
            .data_servers(3)
            .workstations(0)
            .build()
            .expect("cluster boots");
        cluster.register_class("tally", Tally).expect("register");
        let _runtime = ConsistencyRuntime::install(&cluster);
        let robj = ReplicatedObject::create(cluster.compute(0), "tally", 3).expect("replicas");
        let before: Vec<Vt> = (0..3)
            .map(|i| {
                cluster
                    .network()
                    .clock(cluster.compute(i).node_id())
                    .expect("clock")
                    .now()
            })
            .collect();
        resilient_invoke(
            cluster.computes(),
            &robj,
            "add",
            &encode_args(&1u64).expect("args"),
            &PetOptions {
                pets,
                ..PetOptions::default()
            },
        )
        .expect("healthy run succeeds");
        let spent = (0..3)
            .map(|i| {
                cluster
                    .network()
                    .clock(cluster.compute(i).node_id())
                    .expect("clock")
                    .now()
                    .saturating_sub(before[i])
            })
            .max()
            .expect("three nodes");
        out.push((pets, spent));
    }
    out
}

/// Run the full E6 sweep.
pub fn run(trials: u32) -> Vec<PetPoint> {
    let mut out = Vec::new();
    for &replicas in &[1usize, 3] {
        for &pets in &[1usize, 3] {
            out.push(run_cell(replicas, pets, trials));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_resources_buy_resilience() {
        // Minimal configuration fails under some failure placements…
        let weak = run_cell(1, 1, 3);
        // …while full replication + full PET fan-out always survives a
        // single compute + single data server crash.
        let strong = run_cell(3, 3, 3);
        assert_eq!(strong.successes, strong.trials, "{strong:?}");
        assert!(
            weak.successes < weak.trials,
            "r=1/n=1 should fail under some placements: {weak:?}"
        );
    }
}
