//! E4 — distributed sorting over DSM (§5.1 "Distributed Programming").
//!
//! Paper: "sorting algorithms can use multiple threads to perform a
//! sort, with each thread being executed at a different compute server,
//! even though the data itself is contained in one object … the
//! computation can be run in a distributed fashion without incurring a
//! high overhead. These experiments are helping us understand the
//! trade-off between computation and communication."
//!
//! The experiment reports, per worker count: makespan (virtual time),
//! speedup over one worker, and DSM page traffic.

use clouds::prelude::*;
use clouds_dsm::DsmServer;
use clouds_simnet::Vt;

/// Modeled per-comparison CPU cost (a Sun-3 was slow).
const SORT_STEP: Vt = Vt::from_micros(40);
/// Elements in the shared array (page-aligned chunks for 1..=8 workers).
pub const ELEMENTS: usize = 4096;

/// One row of the sort experiment.
#[derive(Debug, Clone, Copy)]
pub struct SortPoint {
    /// Parallel workers.
    pub workers: usize,
    /// Virtual completion time.
    pub makespan: Vt,
    /// Frames on the wire during the run.
    pub frames: u64,
    /// Exclusive page grants served by the data server.
    pub page_migrations: u64,
}

struct Sortable;

impl ObjectCode for Sortable {
    fn data_segment_len(&self) -> u64 {
        8 * ELEMENTS as u64
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "fill" => {
                let seed: u64 = decode_args(args)?;
                let mut x = seed | 1;
                let mut data = Vec::with_capacity(8 * ELEMENTS);
                for _ in 0..ELEMENTS {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    data.extend_from_slice(&x.to_le_bytes());
                }
                ctx.persistent().write_bytes(0, &data)?;
                encode_result(&())
            }
            "load_chunk" => {
                let (start, len): (u64, u64) = decode_args(args)?;
                let _ = ctx.persistent().read_bytes(8 * start, 8 * len as usize)?;
                encode_result(&())
            }
            "sort_chunk" => {
                let (start, len): (u64, u64) = decode_args(args)?;
                let raw = ctx.persistent().read_bytes(8 * start, 8 * len as usize)?;
                let mut values: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                values.sort_unstable();
                let n = values.len() as u64;
                ctx.charge(SORT_STEP.mul(n * (64 - n.leading_zeros() as u64)));
                let mut out = Vec::with_capacity(raw.len());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ctx.persistent().write_bytes(8 * start, &out)?;
                encode_result(&())
            }
            "merge_check" => {
                let raw = ctx.persistent().read_bytes(0, 8 * ELEMENTS)?;
                let mut values: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                values.sort_unstable();
                ctx.charge(SORT_STEP.mul(values.len() as u64));
                let mut out = Vec::with_capacity(raw.len());
                for v in &values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ctx.persistent().write_bytes(0, &out)?;
                let sorted = out
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect::<Vec<_>>()
                    .windows(2)
                    .all(|w| w[0] <= w[1]);
                encode_result(&sorted)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Run the sort with `workers` parallel threads on distinct compute
/// servers (plus a separate coordinator node for fill/merge).
///
/// # Panics
///
/// Panics if `workers` does not divide [`ELEMENTS`] into page-aligned
/// chunks, or on any OS-level failure.
pub fn run_sort(workers: usize) -> SortPoint {
    run_sort_with_cost(workers, clouds_simnet::CostModel::sun3_ethernet())
}

/// [`run_sort`] under an explicit cost model (ablation A1: how the
/// communication/computation balance moves the speedup curve).
///
/// # Panics
///
/// As for [`run_sort`].
pub fn run_sort_with_cost(workers: usize, cost: clouds_simnet::CostModel) -> SortPoint {
    assert!(
        ELEMENTS.is_multiple_of(workers),
        "chunks must be page-aligned"
    );
    let cluster = Cluster::builder()
        .compute_servers(workers + 1)
        .data_servers(1)
        .workstations(0)
        .cost_model(cost)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("sortable", Sortable)
        .expect("register");
    let coordinator = cluster.compute(workers).clone();
    let obj = coordinator
        .create_object("sortable", None, None)
        .expect("object");
    coordinator
        .invoke(obj, "fill", &encode_args(&42u64).expect("args"), None)
        .expect("fill");

    let before = cluster.network().stats();
    let before_grants: u64 = cluster
        .data_servers()
        .iter()
        .map(|d| write_grants(d.dsm()))
        .sum();
    let chunk = (ELEMENTS / workers) as u64;

    // Phase 1: all workers fault their chunk in (join = phase barrier,
    // aligning virtual clocks before the compute phase).
    let loads: Vec<_> = (0..workers)
        .map(|w| {
            let cs = cluster.compute(w).clone();
            let args = encode_args(&(w as u64 * chunk, chunk)).expect("args");
            std::thread::spawn(move || cs.invoke(obj, "load_chunk", &args, None))
        })
        .collect();
    for h in loads {
        h.join().expect("load thread").expect("load");
    }
    // Phase 2: parallel sorts.
    let sorts: Vec<_> = (0..workers)
        .map(|w| {
            let cs = cluster.compute(w).clone();
            let args = encode_args(&(w as u64 * chunk, chunk)).expect("args");
            std::thread::spawn(move || cs.invoke(obj, "sort_chunk", &args, None))
        })
        .collect();
    for h in sorts {
        h.join().expect("sort thread").expect("sort");
    }
    // Merge + verify on the coordinator.
    let sorted: bool = decode_args(
        &coordinator
            .invoke(obj, "merge_check", &encode_args(&()).expect("args"), None)
            .expect("merge"),
    )
    .expect("decode");
    assert!(sorted, "the array must end up sorted");

    let makespan = cluster
        .network()
        .clock(coordinator.node_id())
        .expect("clock")
        .now();
    let after_grants: u64 = cluster
        .data_servers()
        .iter()
        .map(|d| write_grants(d.dsm()))
        .sum();
    SortPoint {
        workers,
        makespan,
        frames: cluster.network().stats().since(&before).frames_sent,
        page_migrations: after_grants - before_grants,
    }
}

/// Pages `server` granted exclusive: E4's page migrations.
fn write_grants(server: &DsmServer) -> u64 {
    server
        .obs()
        .registry()
        .counter_value("dsm.server.write_grants")
}

/// Run the full E4 sweep.
pub fn run() -> Vec<SortPoint> {
    [1usize, 2, 4, 8].iter().map(|&w| run_sort(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_parallel_sort_speeds_up_then_plateaus() {
        let one = run_sort(1);
        let four = run_sort(4);
        let speedup = one.makespan.as_nanos() as f64 / four.makespan.as_nanos() as f64;
        assert!(speedup > 1.4, "speedup {speedup}");
        // Communication grows with distribution.
        assert!(four.frames > one.frames);
        assert!(four.page_migrations >= one.page_migrations);
    }
}
