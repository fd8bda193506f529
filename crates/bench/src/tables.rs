//! The paper-vs-measured tables, one `(title, rows)` section per
//! experiment. `paper_tables` prints every section; `tests/goldens.rs`
//! renders them and checks them against `paper_tables_output.txt`
//! (see [`crate::golden`]).

use crate::golden;
use crate::report::{ms, render_table, Row};
use crate::sort_exp::SortPoint;
use crate::{
    causal_exp, consistency_exp, invocation_exp, kernel_exp, load, network_exp, paging_exp,
    pet_exp, recovery_exp, sort_exp,
};
use clouds_simnet::{CostModel, Vt};

/// One table: its title (whose first word is the section id, e.g.
/// `E6b`) and the experiment that fills its rows.
pub type Section = (&'static str, fn() -> Vec<Row>);

/// Every table, in the order `paper_tables` prints them.
pub const SECTIONS: &[Section] = &[
    ("E1  Kernel microbenchmarks (§4.3)", e1),
    ("E2  Network (§4.3)", e2),
    ("E3  Null object invocation (§4.3)", e3),
    ("E4  Distributed sort over DSM (§5.1)", e4),
    ("E5  Consistency labels: s / lcp / gcp threads (§5.2.1)", e5),
    ("E6  PET: resources vs resilience (§5.2.2)", e6),
    ("E6b PET overhead on a healthy cluster (§5.2.2)", e6b),
    (
        "A1  Ablation: sort speedup vs network generation (design trade-off of §5.1)",
        a1,
    ),
    (
        "E7  Batched DSM paging: read-ahead + coalesced flush (ablation)",
        e7,
    ),
    (
        "E8  Per-layer latency breakdown of the batched scan (clouds-obs registry)",
        e8,
    ),
    (
        "E9  Causal critical path of a remote invocation (clouds-obs traces)",
        e9,
    ),
    (
        "E11 Concurrent demand-paging scans against one data server",
        e11,
    ),
    ("E12 Data-server crash recovery by log replay", e12),
    (
        "E13 Open-loop latency vs offered load (SLO sweep, seed-deterministic)",
        e13,
    ),
];

/// `section` as `paper_tables` prints it: its table, with every cell
/// [`golden::HOST_SCHEDULED`] names printed as [`golden::HOST`].
pub fn render(&(title, rows): &Section) -> String {
    let mut rows = rows();
    golden::mask(golden::section_id(title), &mut rows);
    render_table(title, &rows)
}

/// Rows whose measured cell is one virtual time each: `text` holds one
/// `quantity | paper | note` line per entry of `vts`.
fn timed<const N: usize>(text: &str, vts: [Vt; N]) -> Vec<Row> {
    assert_eq!(text.lines().count(), N, "one line per time");
    let rows = text.lines().zip(vts).map(|(line, vt)| {
        let c: Vec<&str> = line.split('|').map(str::trim).collect();
        Row::new(c[0], c[1], ms(vt), c[2])
    });
    rows.collect()
}

/// E1 — kernel microbenchmarks.
fn e1() -> Vec<Row> {
    let k = kernel_exp::run();
    let mut rows = timed(
        "context switch              | 0.14 ms  |
         page fault, zero-filled 8K  | 1.5 ms   | exact
         page fault, non-zero-filled | 0.629 ms | exact",
        [k.context_switch, k.fault_zero, k.fault_copy],
    );
    rows[0].note = format!("over {} switches", k.switches);
    rows
}

/// E2 — network.
fn e2() -> Vec<Row> {
    let n = network_exp::run();
    timed(
        "Ethernet round trip, 72 B | 2.4 ms  | calibration point
         RaTP reliable round trip  | 4.8 ms  | calibration point
         8K page transfer, RaTP    | 11.9 ms | 6 fragments + ack
         8K transfer, Unix NFS     | 50 ms   | block-RPC baseline
         8K transfer, Unix FTP     | 70 ms   | stop-and-wait baseline",
        [n.ethernet_rtt, n.ratp_rtt, n.ratp_8k, n.nfs_8k, n.ftp_8k],
    )
}

/// E3 — invocation.
fn e3() -> Vec<Row> {
    let i = invocation_exp::run();
    timed(
        "minimum (object in memory)       | 8 ms             | 2×(switch+remap)
         maximum (fetch from data server) | 103 ms           | header + code demand-paged
         locality-weighted mean (5% cold) | \"close to min\" | matches the paper's claim",
        [i.hot, i.cold, i.mixed_mean],
    )
}

/// Sort rows (E4, A1): makespan and speedup over one worker, per worker
/// count.
fn speedups(
    points: &[SortPoint],
    suffix: &str,
    paper: &str,
    note: fn(&SortPoint) -> String,
) -> Vec<Row> {
    let base = points[0].makespan.as_nanos() as f64;
    let speedup = |p: &SortPoint| base / p.makespan.as_nanos().max(1) as f64;
    let row = |p: &SortPoint| {
        let measured = format!("{}  (×{:.2})", ms(p.makespan), speedup(p));
        Row::new(
            format!("{} worker(s){suffix}", p.workers),
            paper,
            measured,
            note(p),
        )
    };
    points.iter().map(row).collect()
}

/// E4 — distributed sort.
fn e4() -> Vec<Row> {
    speedups(&sort_exp::run(), "", "speedup expected", |p| {
        format!("{} frames, {} page migrations", p.frames, p.page_migrations)
    })
}

/// E5 — consistency spectrum.
fn e5() -> Vec<Row> {
    consistency_exp::run()
        .iter()
        .map(|p| {
            Row::new(
                format!("{}-threads", p.label),
                match p.label.as_str() {
                    "S" => "fast, unsafe",
                    "LCP" => "locking, local commit",
                    _ => "locking + 2PC",
                },
                format!("{} /op", ms(p.vt_per_op)),
                format!(
                    "balance {}/{} ({} aborts){}",
                    p.final_balance,
                    p.attempted,
                    p.aborts,
                    if p.final_balance < p.attempted {
                        "  ← lost updates!"
                    } else {
                        ""
                    }
                ),
            )
        })
        .collect()
}

/// E6 — PET resilience.
fn e6() -> Vec<Row> {
    pet_exp::run(3)
        .iter()
        .map(|p| {
            Row::new(
                format!("r={} replicas, n={} PETs", p.replicas, p.pets),
                "more resources → more resilience",
                format!("{}/{} trials survive", p.successes, p.trials),
                "1 compute + 1 data server crashed per trial",
            )
        })
        .collect()
}

/// E6b — the other side of the trade-off: what the resources cost on a
/// healthy cluster (virtual time of one resilient computation).
fn e6b() -> Vec<Row> {
    pet_exp::overhead()
        .iter()
        .map(|(pets, vt)| {
            Row::new(
                format!("n={pets} PETs, r=3, no failures"),
                "resources cost",
                ms(*vt),
                "virtual time of one resilient add",
            )
        })
        .collect()
}

/// A1 — ablation: the same sort on a modern LAN, where communication is
/// ~40× cheaper relative to computation: finer granularity pays.
fn a1() -> Vec<Row> {
    let modern = [1, 2, 4, 8].map(|w| sort_exp::run_sort_with_cost(w, CostModel::modern_lan()));
    speedups(&modern, ", modern LAN", "(ablation)", |p| {
        format!("{} frames", p.frames)
    })
}

/// E7 — batched paging ablation: read-ahead grants vs one fetch RPC per
/// fault, the coalesced write-back flush, and write-ahead (exclusive
/// windows) vs one write fault per page.
fn e7() -> Vec<Row> {
    let p = paging_exp::run();
    let runs = [
        p.scan_unbatched,
        p.scan_batched,
        p.bound_scan_unbatched,
        p.bound_scan_batched,
        p.flush_batched,
        p.write_scan_unbatched,
        p.write_scan_batched,
    ];
    // The note column names the kind of RPC; the counts fill it in.
    let mut rows = timed(
        "128-page sequential scan, unbatched             | (baseline) | fetch
         128-page sequential scan, read-ahead 8          | (ours)     | fetch
         512-page scan in 128 frames, unbatched          | (baseline) | fetch
         512-page scan in 128 frames, read-ahead 8       | (ours)     | fetch
         32-dirty-page commit flush, coalesced           | (ours)     | write-back
         32-page sequential write + flush, per-page      | (baseline) | fetch
         32-page sequential write + flush, write-ahead 8 | (ours)     | fetch",
        runs.map(|m| m.vt),
    );
    for (row, m) in rows.iter_mut().zip(runs) {
        row.note = format!("{} {} RPCs", m.rpcs, row.note);
    }
    for i in [2, 3, 5, 6] {
        rows[i].note += &format!(", {} transactions", runs[i].calls);
    }
    rows
}

/// E8 — per-layer latency breakdown of the batched E7 scan, read from
/// the client's clouds-obs metrics registry.
fn e8() -> Vec<Row> {
    let b = paging_exp::run_layer_breakdown();
    let (fetch, call) = (&b.dsm_fetch, &b.ratp_call);
    let (overhead, local) = (b.dsm_overhead(), b.local_compute());
    let mut rows = timed(
        "whole scan (client clock)        | — |
         dsm.client.fetch (fault service) | — |
         ratp.call (wire transactions)    | — |
         dsm bookkeeping above transport  | — | fetch − wire: decode, install, acks
         local compute (no fault taken)   | — | scan − fetch: MMU hits + the reads",
        [b.total, fetch.sum, call.sum, overhead, local],
    );
    rows[0].note = format!("{} pages", paging_exp::SCAN_PAGES);
    for (row, h) in rows[1..3].iter_mut().zip([fetch, call]) {
        let share = 100.0 * h.sum.as_nanos() as f64 / b.total.as_nanos().max(1) as f64;
        let (n, p50, p99) = (h.count, ms(h.p50), ms(h.p99));
        row.note = format!("{share:.0}% of total; n={n}, p50 {p50}, p99 {p99}");
    }
    rows
}

/// E9 — causal critical path: where the virtual time of one remote
/// invocation actually lives, exclusive of children, derived from the
/// cross-node trace tree rather than per-layer histograms.
fn e9() -> Vec<Row> {
    let c = causal_exp::run();
    let mut rows = vec![Row::new(
        "invocation critical path (root)",
        "—",
        ms(c.root_dur),
        format!(
            "{} steps, {} nodes, {} traces / {} spans in run",
            c.path.len(),
            c.trace_nodes,
            c.traces,
            c.spans
        ),
    )];
    rows.extend(c.layer_self.iter().map(|(layer, self_ns)| {
        Row::new(
            format!("  self time in {layer}"),
            "—",
            ms(Vt::from_nanos(*self_ns)),
            format!(
                "{:.0}% of critical path",
                100.0 * *self_ns as f64 / c.root_dur.as_nanos().max(1) as f64
            ),
        )
    }));
    rows
}

/// E11 — concurrent-scan scaling: 1/2/4 clients demand-paging disjoint
/// segments from one data server, aggregate throughput and the worst
/// per-client fault-service p99 from the obs registry.
fn e11() -> Vec<Row> {
    paging_exp::run_concurrent_scans()
        .iter()
        .map(|r| {
            Row::new(
                format!(
                    "{} client{} × {} pages",
                    r.clients,
                    if r.clients == 1 { "" } else { "s" },
                    paging_exp::CONCURRENT_PAGES
                ),
                "—",
                ms(r.elapsed),
                format!(
                    "{:.1} MiB/s aggregate, fetch p99 {}",
                    r.mib_per_s,
                    ms(r.fetch_p99)
                ),
            )
        })
        .collect()
}

/// E12 — crash-recovery time from the append-only log: grow the log by
/// writing more pages through the server, reboot-crash it, and report
/// how long the replay keeps the server unavailable.
fn e12() -> Vec<Row> {
    recovery_exp::run()
        .iter()
        .map(|r| {
            Row::new(
                format!("{} dirty pages", r.pages_written),
                "—",
                ms(r.replay_vt),
                format!(
                    "{} KiB log, {} segment{}, {} records replayed",
                    r.log_bytes / 1024,
                    r.log_segments,
                    if r.log_segments == 1 { "" } else { "s" },
                    r.records
                ),
            )
        })
        .collect()
}

/// E13 — open-loop latency vs offered load: the saturation knee,
/// measured coordinated-omission-correctly (latency from *intended*
/// arrival, so queueing past the knee is charged, not hidden). Every
/// number is printed exactly (nanoseconds, milli-requests), so the golden
/// rows hold each [`load::LoadPoint`] field byte for byte.
fn e13() -> Vec<Row> {
    let exact_ms = |vt: Vt| {
        let ns = vt.as_nanos();
        format!("{}.{:06} ms", ns / 1_000_000, ns % 1_000_000)
    };
    load::run_e13(load::DEFAULT_SEED)
        .iter()
        .map(|p| {
            let (rps, elapsed) = (p.achieved_rps_milli, p.elapsed.as_nanos());
            Row::new(
                format!("{} @ {} rps offered", p.scenario, p.offered_rps),
                "knee expected",
                format!(
                    "p50 {}, p99 {}, p999 {}",
                    exact_ms(p.p50),
                    exact_ms(p.p99),
                    exact_ms(p.p999)
                ),
                format!(
                    "achieved {}.{:03} rps, {} reqs, {} errors, in {}.{:09} s",
                    rps / 1000,
                    rps % 1000,
                    p.requests,
                    p.errors,
                    elapsed / 1_000_000_000,
                    elapsed % 1_000_000_000
                ),
            )
        })
        .collect()
}
