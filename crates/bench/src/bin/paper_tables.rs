//! Regenerate every measured claim of the paper in one run:
//!
//! ```text
//! cargo run -p clouds-bench --release --bin paper_tables
//! ```
//!
//! Results are in virtual time under the calibrated Sun-3/Ethernet cost
//! model (see `clouds_simnet::CostModel::sun3_ethernet`); EXPERIMENTS.md
//! records a snapshot with commentary.

use clouds_bench::report::{ms, print_table, Row};
use clouds_bench::{
    causal_exp, consistency_exp, invocation_exp, kernel_exp, load, network_exp, paging_exp,
    pet_exp, recovery_exp, sort_exp,
};

fn main() {
    println!("Clouds reproduction — paper-vs-measured tables");
    println!("(virtual time, calibrated Sun-3 / 10 Mb/s Ethernet cost model)");

    // E1 — kernel microbenchmarks.
    let k = kernel_exp::run();
    print_table(
        "E1  Kernel microbenchmarks (§4.3)",
        &[
            Row::new(
                "context switch",
                "0.14 ms",
                ms(k.context_switch),
                format!("over {} switches", k.switches),
            ),
            Row::new("page fault, zero-filled 8K", "1.5 ms", ms(k.fault_zero), "exact"),
            Row::new("page fault, non-zero-filled", "0.629 ms", ms(k.fault_copy), "exact"),
        ],
    );

    // E2 — network.
    let n = network_exp::run();
    print_table(
        "E2  Network (§4.3)",
        &[
            Row::new("Ethernet round trip, 72 B", "2.4 ms", ms(n.ethernet_rtt), "calibration point"),
            Row::new("RaTP reliable round trip", "4.8 ms", ms(n.ratp_rtt), "calibration point"),
            Row::new("8K page transfer, RaTP", "11.9 ms", ms(n.ratp_8k), "6 fragments + ack"),
            Row::new("8K transfer, Unix NFS", "50 ms", ms(n.nfs_8k), "block-RPC baseline"),
            Row::new("8K transfer, Unix FTP", "70 ms", ms(n.ftp_8k), "stop-and-wait baseline"),
        ],
    );

    // E3 — invocation.
    let i = invocation_exp::run();
    print_table(
        "E3  Null object invocation (§4.3)",
        &[
            Row::new("minimum (object in memory)", "8 ms", ms(i.hot), "2×(switch+remap)"),
            Row::new(
                "maximum (fetch from data server)",
                "103 ms",
                ms(i.cold),
                "header + code demand-paged",
            ),
            Row::new(
                "locality-weighted mean (5% cold)",
                "\"close to min\"",
                ms(i.mixed_mean),
                "matches the paper's claim",
            ),
        ],
    );

    // E4 — distributed sort.
    let sort = sort_exp::run();
    let base = sort[0].makespan;
    let rows: Vec<Row> = sort
        .iter()
        .map(|p| {
            Row::new(
                format!("{} worker(s)", p.workers),
                "speedup expected",
                format!(
                    "{}  (×{:.2})",
                    ms(p.makespan),
                    base.as_nanos() as f64 / p.makespan.as_nanos().max(1) as f64
                ),
                format!("{} frames, {} page migrations", p.frames, p.page_migrations),
            )
        })
        .collect();
    print_table("E4  Distributed sort over DSM (§5.1)", &rows);

    // E5 — consistency spectrum.
    let cons = consistency_exp::run();
    let rows: Vec<Row> = cons
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
        .collect();
    print_table("E5  Consistency labels: s / lcp / gcp threads (§5.2.1)", &rows);

    // E6 — PET resilience.
    let pets = pet_exp::run(3);
    let rows: Vec<Row> = pets
        .iter()
        .map(|p| {
            Row::new(
                format!("r={} replicas, n={} PETs", p.replicas, p.pets),
                "more resources → more resilience",
                format!("{}/{} trials survive", p.successes, p.trials),
                "1 compute + 1 data server crashed per trial",
            )
        })
        .collect();
    print_table("E6  PET: resources vs resilience (§5.2.2)", &rows);

    // E6b — the other side of the trade-off: what the resources cost on
    // a healthy cluster (virtual time of one resilient computation).
    let overhead = pet_exp::overhead();
    let rows: Vec<Row> = overhead
        .iter()
        .map(|(pets, vt)| {
            Row::new(
                format!("n={pets} PETs, r=3, no failures"),
                "resources cost",
                ms(*vt),
                "virtual time of one resilient add",
            )
        })
        .collect();
    print_table("E6b PET overhead on a healthy cluster (§5.2.2)", &rows);

    // A1 — ablation: the same sort on a modern LAN, where communication
    // is ~40× cheaper relative to computation: finer granularity pays.
    let modern: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| sort_exp::run_sort_with_cost(w, clouds_simnet::CostModel::modern_lan()))
        .collect();
    let mbase = modern[0].makespan;
    let rows: Vec<Row> = modern
        .iter()
        .map(|p| {
            Row::new(
                format!("{} worker(s), modern LAN", p.workers),
                "(ablation)",
                format!(
                    "{}  (×{:.2})",
                    ms(p.makespan),
                    mbase.as_nanos() as f64 / p.makespan.as_nanos().max(1) as f64
                ),
                format!("{} frames", p.frames),
            )
        })
        .collect();
    print_table(
        "A1  Ablation: sort speedup vs network generation (design trade-off of §5.1)",
        &rows,
    );

    // E7 — batched paging ablation: read-ahead grants + coalesced
    // write-back flushes vs the one-RPC-per-page protocol.
    let p = paging_exp::run();
    print_table(
        "E7  Batched DSM paging: read-ahead + coalesced flush (ablation)",
        &[
            Row::new(
                "128-page sequential scan, unbatched",
                "(baseline)",
                ms(p.scan_unbatched.vt),
                format!("{} fetch RPCs", p.scan_unbatched.rpcs),
            ),
            Row::new(
                "128-page sequential scan, read-ahead 8",
                "(ours)",
                ms(p.scan_batched.vt),
                format!("{} fetch RPCs", p.scan_batched.rpcs),
            ),
            Row::new(
                "512-page scan in 128 frames, unbatched",
                "(baseline)",
                ms(p.bound_scan_unbatched.vt),
                format!(
                    "{} fetch RPCs, {} transactions",
                    p.bound_scan_unbatched.rpcs, p.bound_scan_unbatched.calls
                ),
            ),
            Row::new(
                "512-page scan in 128 frames, read-ahead 8",
                "(ours)",
                ms(p.bound_scan_batched.vt),
                format!(
                    "{} fetch RPCs, {} transactions",
                    p.bound_scan_batched.rpcs, p.bound_scan_batched.calls
                ),
            ),
            Row::new(
                "32-dirty-page commit flush, per-page",
                "(baseline)",
                ms(p.flush_unbatched.vt),
                format!("{} write-back RPCs", p.flush_unbatched.rpcs),
            ),
            Row::new(
                "32-dirty-page commit flush, coalesced",
                "(ours)",
                ms(p.flush_batched.vt),
                format!("{} write-back RPCs", p.flush_batched.rpcs),
            ),
        ],
    );

    // E8 — per-layer latency breakdown of the batched E7 scan, read
    // from the client's clouds-obs metrics registry.
    let b = paging_exp::run_layer_breakdown();
    let share = |vt: clouds_simnet::Vt| {
        format!("{:.0}%", 100.0 * vt.as_nanos() as f64 / b.total.as_nanos().max(1) as f64)
    };
    print_table(
        "E8  Per-layer latency breakdown of the batched scan (clouds-obs registry)",
        &[
            Row::new(
                "whole scan (client clock)",
                "—",
                ms(b.total),
                format!("{} pages", paging_exp::SCAN_PAGES),
            ),
            Row::new(
                "dsm.client.fetch (fault service)",
                "—",
                ms(b.dsm_fetch.sum),
                format!(
                    "{} of total; n={}, p50 {}, p99 {}",
                    share(b.dsm_fetch.sum),
                    b.dsm_fetch.count,
                    ms(b.dsm_fetch.p50),
                    ms(b.dsm_fetch.p99)
                ),
            ),
            Row::new(
                "ratp.call (wire transactions)",
                "—",
                ms(b.ratp_call.sum),
                format!(
                    "{} of total; n={}, p50 {}, p99 {}",
                    share(b.ratp_call.sum),
                    b.ratp_call.count,
                    ms(b.ratp_call.p50),
                    ms(b.ratp_call.p99)
                ),
            ),
            Row::new(
                "dsm bookkeeping above transport",
                "—",
                ms(b.dsm_overhead()),
                "fetch − wire: decode, install, acks",
            ),
            Row::new(
                "local compute (no fault taken)",
                "—",
                ms(b.local_compute()),
                "scan − fetch: MMU hits + the reads",
            ),
        ],
    );

    // E9 — causal critical path: where the virtual time of one remote
    // invocation actually lives, exclusive of children, derived from
    // the cross-node trace tree rather than per-layer histograms.
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
            ms(clouds_simnet::Vt::from_nanos(*self_ns)),
            format!(
                "{:.0}% of critical path",
                100.0 * *self_ns as f64 / c.root_dur.as_nanos().max(1) as f64
            ),
        )
    }));
    print_table(
        "E9  Causal critical path of a remote invocation (clouds-obs traces)",
        &rows,
    );

    // E11 — concurrent-scan scaling: 1/2/4 clients demand-paging
    // disjoint segments from one data server, aggregate throughput and
    // the worst per-client fault-service p99 from the obs registry.
    let scaling = paging_exp::run_concurrent_scans();
    print_table(
        "E11 Concurrent demand-paging scans against one data server",
        &scaling
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
                    format!("{:.1} MiB/s aggregate, fetch p99 {}", r.mib_per_s, ms(r.fetch_p99)),
                )
            })
            .collect::<Vec<_>>(),
    );

    // E12 — crash-recovery time from the append-only log: grow the log
    // by writing more pages through the server, reboot-crash it, and
    // report how long the replay keeps the server unavailable.
    let recovery = recovery_exp::run();
    print_table(
        "E12 Data-server crash recovery by log replay",
        &recovery
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
            .collect::<Vec<_>>(),
    );

    // E13 — open-loop latency vs offered load: the saturation knee,
    // measured coordinated-omission-correctly (latency from *intended*
    // arrival, so queueing past the knee is charged, not hidden). Same
    // sweep and seed as the committed SLO_dsm.json gate baselines.
    let slo = load::run_e13(load::DEFAULT_SEED);
    print_table(
        "E13 Open-loop latency vs offered load (SLO sweep, seed-deterministic)",
        &slo.iter()
            .map(|p| {
                Row::new(
                    format!("{} @ {} rps offered", p.scenario, p.offered_rps),
                    "knee expected",
                    format!(
                        "p50 {}, p99 {}, p999 {}",
                        ms(p.p50),
                        ms(p.p99),
                        ms(p.p999)
                    ),
                    format!(
                        "achieved {:.1} rps, {} reqs, {} errors",
                        p.achieved_rps_milli as f64 / 1000.0,
                        p.requests,
                        p.errors
                    ),
                )
            })
            .collect::<Vec<_>>(),
    );

    println!();
    println!("done. see EXPERIMENTS.md for the recorded snapshot and commentary.");
}
