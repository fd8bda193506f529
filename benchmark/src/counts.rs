//! Counts per workload, read from the program's own instruments after
//! the run: `Cluster::registries()`, `Network::stats()`, each data
//! server's `LogStore::stats()` and `ConsistencyRuntime::stats()`.

use crate::gen::Workload;
use crate::metrics::Values;
use crate::workloads::{Bed, LoopResult};
use clouds_obs::HistogramSummary;
use clouds_simnet::NetworkStats;
use clouds_store::StoreStats;
use std::collections::BTreeMap;

/// Everything countable about a bed at one instant.
pub struct Snapshot {
    /// Registry counters, summed over all nodes by name.
    counters: BTreeMap<String, u64>,
    /// Registry histograms (virtual time), `(count, sum_ns)` summed
    /// over all nodes by name.
    histograms: BTreeMap<String, (u64, u64)>,
    net: NetworkStats,
    /// Log stats summed over the data servers.
    store: StoreStats,
    cache_misses: u64,
    cp_aborts: u64,
}

impl Snapshot {
    pub fn take(bed: &Bed) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (_node, registry) in bed.cluster.registries() {
            let snap = registry.snapshot();
            for (name, v) in snap.counters {
                *counters.entry(name).or_default() += v;
            }
            for (name, HistogramSummary { count, sum, .. }) in snap.histograms {
                let slot = histograms.entry(name).or_default();
                slot.0 += count;
                slot.1 += sum.as_nanos();
            }
        }
        let mut store = StoreStats::default();
        for ds in bed.cluster.data_servers() {
            let s = ds.dsm().log().stats();
            store.appends += s.appends;
            store.append_bytes += s.append_bytes;
            store.compactions += s.compactions;
            store.media_bytes += s.media_bytes;
        }
        Snapshot {
            counters,
            histograms,
            net: bed.cluster.network().stats(),
            store,
            cache_misses: bed.cluster.compute(0).kernel().page_cache().stats().misses,
            cp_aborts: bed.runtime.as_ref().map_or(0, |r| r.stats().aborts),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Fill in every count metric from the difference of two snapshots
/// around `result`'s loop.
pub fn per_op(
    values: &mut Values,
    workload: Workload,
    before: &Snapshot,
    after: &Snapshot,
    result: &LoopResult,
) {
    let ops = result.attempted.max(1) as f64;
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let net = after.net.since(&before.net);

    values.insert("ratp.calls_per_op", delta("ratp.calls") / ops);
    values.insert("ratp.notifies_per_op", delta("ratp.notifies") / ops);
    values.insert("ratp.retransmits", delta("ratp.retransmits"));
    values.insert("ratp.timeouts", delta("ratp.timeouts"));
    values.insert("simnet.frames_per_op", net.frames_sent as f64 / ops);
    values.insert("simnet.bytes_per_op", net.bytes_sent as f64 / ops);
    values.insert("simnet.frames_dropped", net.frames_dropped as f64);
    values.insert("ra.switches_per_op", delta("sched.switches") / ops);

    let granted = delta("dsm.client.pages_granted");
    values.insert(
        "dsm.fetch_rpcs_per_op",
        delta("dsm.client.fetch_rpcs") / ops,
    );
    values.insert("dsm.pages_granted_per_op", granted / ops);
    // Cold pages the workload actually touched (cache misses) over the
    // pages the data server shipped: 1 = no wasted transfer.
    values.insert(
        "dsm.prefetch_useful_ratio",
        ratio((after.cache_misses - before.cache_misses) as f64, granted),
    );
    values.insert(
        "dsm.write_back_rpcs_per_op",
        (delta("dsm.server.write_backs") - delta("dsm.client.pages_written_batched")
            + delta("dsm.client.batch_write_back_rpcs"))
            / ops,
    );
    values.insert(
        "dsm.pages_written_per_op",
        delta("dsm.server.write_backs") / ops,
    );
    values.insert(
        "dsm.invalidations_per_op",
        delta("dsm.server.invalidations") / ops,
    );
    values.insert("dsm.shard_contention", delta("dsm.server.shard_contention"));

    let appended = (after.store.append_bytes - before.store.append_bytes) as f64;
    values.insert(
        "store.appends_per_op",
        (after.store.appends - before.store.appends) as f64 / ops,
    );
    values.insert(
        "store.bytes_per_user_byte",
        ratio(appended, workload.user_bytes_per_op() as f64 * ops),
    );
    values.insert(
        "store.compactions",
        (after.store.compactions - before.store.compactions) as f64,
    );
    values.insert(
        "store.media_mib_end",
        after.store.media_bytes as f64 / (1 << 20) as f64,
    );

    values.insert("consistency.prepares_per_op", delta("2pc.prepares") / ops);
    values.insert(
        "consistency.abort_ratio",
        (after.cp_aborts - before.cp_aborts) as f64 / ops,
    );

    // Means of the program's existing virtual-time histograms over the
    // loop (their p50s are 3 %-wide bucket bounds; the mean is exact).
    let mean_us = |name: &str| {
        let (c1, s1) = after.histograms.get(name).copied().unwrap_or((0, 0));
        let (c0, s0) = before.histograms.get(name).copied().unwrap_or((0, 0));
        ratio((s1 - s0) as f64 / 1e3, (c1 - c0) as f64)
    };
    values.insert("core.model_invoke_mean_us", mean_us("invoke.call"));
    values.insert("ratp.model_call_mean_us", mean_us("ratp.call"));
    values.insert("dsm.model_fetch_mean_us", mean_us("dsm.client.fetch"));
}
