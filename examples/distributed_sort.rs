//! Distributed programming over DSM (§5.1).
//!
//! "Using the DSM feature of Clouds, centralized algorithms can be run
//! as distributed computations with the expectation of achieving
//! speedup. For example, sorting algorithms can use multiple threads to
//! perform a sort, with each thread being executed at a different
//! compute server, even though the data itself is contained in one
//! object. … those parts of the data that are in use at a node migrate
//! to that node automatically."
//!
//! One `sortable` object holds an array of u64 in its persistent data
//! segment. Worker threads on different compute servers each sort one
//! chunk in place; a final merge pass runs on one server. The DSM pages
//! the chunks to whichever node is working on them.
//!
//! Run with: `cargo run --release --example distributed_sort`

use clouds::prelude::*;
use clouds_simnet::Vt;

/// Modeled CPU cost of one comparison/swap step on a Sun-3-class
/// machine. Sorting is *charged* to virtual time — computation was not
/// free in 1988 — which is what makes distributing it worthwhile.
const SORT_STEP: Vt = Vt::from_micros(40);

const N: usize = 4096; // u64 elements = 4 pages exactly
/// The array starts page-aligned at offset 0, so a worker's chunk is a
/// whole number of pages: workers never share pages, and the DSM moves
/// each page exactly where it is used (the paper's "those parts of the
/// data that are in use at a node migrate to that node").
const HDR: u64 = 0;

struct Sortable;

impl ObjectCode for Sortable {
    fn data_segment_len(&self) -> u64 {
        HDR + 8 * N as u64
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "fill" => {
                // Deterministic pseudo-random contents.
                let seed: u64 = decode_args(args)?;
                let mut x = seed | 1;
                let mut data = Vec::with_capacity(8 * N);
                for _ in 0..N {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    data.extend_from_slice(&x.to_le_bytes());
                }
                ctx.persistent().write_bytes(HDR, &data)?;
                encode_result(&())
            }
            "load_chunk" => {
                // Phase one: fault the chunk's pages to this node. The
                // driver joins all loads before starting the sorts, so
                // the parallel compute phase starts from aligned virtual
                // clocks (otherwise real-time thread skew lets one
                // worker's charged clock leak into another's page
                // fetches through the data-server clock).
                let (start, len): (u64, u64) = decode_args(args)?;
                let _ = ctx
                    .persistent()
                    .read_bytes(HDR + 8 * start, 8 * len as usize)?;
                encode_result(&())
            }
            "sort_chunk" => {
                let (start, len): (u64, u64) = decode_args(args)?;
                let raw = ctx
                    .persistent()
                    .read_bytes(HDR + 8 * start, 8 * len as usize)?;
                let mut values: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                values.sort_unstable();
                // Charge n·log2(n) comparison steps of modeled CPU time.
                let n = values.len() as u64;
                ctx.charge(SORT_STEP.mul(n * (64 - n.leading_zeros() as u64)));
                let mut out = Vec::with_capacity(raw.len());
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ctx.persistent().write_bytes(HDR + 8 * start, &out)?;
                encode_result(&())
            }
            "merge" => {
                let chunks: u64 = decode_args(args)?;
                let raw = ctx.persistent().read_bytes(HDR, 8 * N)?;
                let mut values: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                // The chunks are sorted; a k-way merge via sort_unstable
                // on nearly-sorted data keeps the example readable.
                let _ = chunks;
                values.sort_unstable();
                // A k-way merge is linear: charge n steps.
                ctx.charge(SORT_STEP.mul(values.len() as u64));
                let mut out = Vec::with_capacity(raw.len());
                for v in &values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ctx.persistent().write_bytes(HDR, &out)?;
                encode_result(&())
            }
            "is_sorted" => {
                let raw = ctx.persistent().read_bytes(HDR, 8 * N)?;
                let mut prev = 0u64;
                for c in raw.chunks_exact(8) {
                    let v = u64::from_le_bytes(c.try_into().expect("8 bytes"));
                    if v < prev {
                        return encode_result(&false);
                    }
                    prev = v;
                }
                encode_result(&true)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn run_sort(workers: usize) -> Result<(Vt, u64), CloudsError> {
    // workers compute servers for the sort + one for fill/merge, so the
    // coordinator's cached pages are not recalled out of worker clocks.
    let cluster = Cluster::builder()
        .compute_servers(workers + 1)
        .data_servers(1)
        .workstations(0)
        .build()?;
    cluster.register_class("sortable", Sortable)?;
    let coordinator = cluster.compute(workers).clone();
    let obj = coordinator.create_object("sortable", Some("BigArray"), None)?;
    coordinator.invoke(obj, "fill", &encode_args(&42u64)?, None)?;

    let before_stats = cluster.network().stats();
    let chunk = N as u64 / workers as u64;
    // Phase one: every worker faults in its chunk (join = barrier).
    let mut loads = Vec::new();
    for w in 0..workers {
        let cs = cluster.compute(w).clone();
        let args = encode_args(&(w as u64 * chunk, chunk))?;
        loads.push(std::thread::spawn(move || {
            cs.invoke(obj, "load_chunk", &args, None)
        }));
    }
    for h in loads {
        h.join().expect("load thread")?;
    }
    // Phase two: parallel in-place sorts.
    let mut handles = Vec::new();
    for w in 0..workers {
        let cs = cluster.compute(w).clone();
        let args = encode_args(&(w as u64 * chunk, chunk))?;
        handles.push(std::thread::spawn(move || {
            cs.invoke(obj, "sort_chunk", &args, None)
        }));
    }
    for h in handles {
        h.join().expect("worker thread")?;
    }
    coordinator.invoke(obj, "merge", &encode_args(&(workers as u64))?, None)?;
    let sorted: bool =
        decode_args(&coordinator.invoke(obj, "is_sorted", &encode_args(&())?, None)?)?;
    assert!(sorted, "sort must produce sorted data");

    // Virtual completion time: the coordinator's clock causally follows
    // every worker (the merge read their pages), so it is the makespan.
    let vt = cluster
        .network()
        .clock(coordinator.node_id())
        .expect("clock")
        .now();
    let traffic = cluster.network().stats().since(&before_stats);
    Ok((vt, traffic.frames_sent))
}

fn main() -> Result<(), CloudsError> {
    println!("distributed sort of one {N}-element object (§5.1)");
    println!("modeled CPU: {SORT_STEP} per comparison step; network: 10 Mb/s Ethernet");
    println!("{:>8} {:>14} {:>12}", "workers", "virtual time", "frames");
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let (vt, frames) = run_sort(workers)?;
        let speedup = baseline.get_or_insert(vt).as_nanos() as f64 / vt.as_nanos().max(1) as f64;
        println!(
            "{workers:>8} {:>14} {frames:>12}   speedup ×{speedup:.2}",
            vt.to_string()
        );
    }
    println!("data migrates to the nodes that use it; one object, many machines.");
    Ok(())
}
