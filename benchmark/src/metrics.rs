//! The metric tables: every name the harness prints, with unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! is generated from these tables (`manifest` subcommand) and a unit
//! test keeps the committed file identical, so the contract file and
//! the output cannot drift apart.

use crate::gen::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
    /// Whether two fixed-count runs of one seed must print the very
    /// same value, and on which workloads (see `agree`).
    pub exact: Exact,
}

/// How a metric repeats between two fixed-count runs of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// A wall-clock measurement: never exactly.
    No,
    /// A count of the program's own: exactly, wherever one client
    /// drives a workload whose message pattern does not race
    /// (`kv_get`, `kv_put`, `ledger_2pc`).
    Count,
    /// A virtual time: exactly, where in addition no two threads charge
    /// one virtual clock concurrently (`kv_get`, `kv_put`; the ledger's
    /// parallel prepare/commit fan-out does).
    VirtualTime,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: Exact::No,
    }
}

/// A wall-clock per-layer metric (probe, trace, host).
const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: Exact::No,
    }
}

/// A per-layer count read from the program's own instruments.
const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: Exact::Count,
    }
}

/// A per-layer virtual time (Sun-3 model microseconds).
const fn virtual_time(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "sim_us",
        better,
        bound: 0.0,
        exact: Exact::VirtualTime,
    }
}

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 10;

/// What a user of the system sees, on both clocks. The same names on
/// every workload. Bounds: max(floor, 3 × the worst IQR/median any
/// workload showed over sets of ten seeds on the reference box), capped
/// at 0.25; README.md has the measured spreads.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_ops_per_s", "1/s", Better::Higher, 0.22),
    e2e("wall_p50_us", "us", Better::Lower, 0.19),
    e2e("wall_tail_us", "us", Better::Lower, 0.25),
    MetricDef {
        name: "model_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.02,
        exact: Exact::VirtualTime,
    },
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// Single-layer metrics (layer = crate name): isolated probes, counts
/// read back from the program's own registries after a run, and the
/// telescoped wall-clock trace.
pub const PER_LAYER: &[MetricDef] = &[
    // --- probes: the layer's public call timed in isolation ---------
    layer("codec.page_encode_ns", "ns", Better::Lower),
    layer("codec.page_decode_ns", "ns", Better::Lower),
    layer("codec.args_roundtrip_ns", "ns", Better::Lower),
    layer("simnet.frame_ns", "ns", Better::Lower),
    layer("ratp.null_call_us", "us", Better::Lower),
    layer("ratp.page_call_us", "us", Better::Lower),
    layer("ra.page_hit_ns", "ns", Better::Lower),
    layer("ra.page_fault_ns", "ns", Better::Lower),
    layer("ra.ctx_switch_us", "us", Better::Lower),
    layer("dsm.serve_fetch_us", "us", Better::Lower),
    layer("dsm.serve_write_back32_us", "us", Better::Lower),
    layer("dsm.raw_scan_page_us", "us", Better::Lower),
    layer("dsm.ping_pong_us", "us", Better::Lower),
    layer("store.append_page_us", "us", Better::Lower),
    layer("store.compact_ms", "ms", Better::Lower),
    layer("store.replay_ms", "ms", Better::Lower),
    layer("naming.lookup_us", "us", Better::Lower),
    layer("core.invoke_local_us", "us", Better::Lower),
    layer("core.ws_invoke_us", "us", Better::Lower),
    layer("consistency.gcp_local_us", "us", Better::Lower),
    layer("consistency.lcp_local_us", "us", Better::Lower),
    layer("obs.span_ns", "ns", Better::Lower),
    // --- counts of the workload's own run ----------------------------
    count("ratp.calls_per_op", "count", Better::Lower),
    count("ratp.notifies_per_op", "count", Better::Lower),
    count("ratp.retransmits", "count", Better::Lower),
    count("ratp.timeouts", "count", Better::Lower),
    count("simnet.frames_per_op", "count", Better::Lower),
    count("simnet.bytes_per_op", "B", Better::Lower),
    count("simnet.frames_dropped", "count", Better::Lower),
    count("ra.switches_per_op", "count", Better::Lower),
    count("dsm.fetch_rpcs_per_op", "count", Better::Lower),
    count("dsm.pages_granted_per_op", "count", Better::Lower),
    count("dsm.prefetch_useful_ratio", "ratio", Better::Higher),
    count("dsm.write_back_rpcs_per_op", "count", Better::Lower),
    count("dsm.pages_written_per_op", "count", Better::Lower),
    count("dsm.invalidations_per_op", "count", Better::Lower),
    count("dsm.shard_contention", "count", Better::Lower),
    count("store.appends_per_op", "count", Better::Lower),
    count("store.bytes_per_user_byte", "ratio", Better::Lower),
    count("store.compactions", "count", Better::Lower),
    count("store.media_mib_end", "MiB", Better::Lower),
    layer("store.replay_wall_ms", "ms", Better::Lower),
    count("store.replay_records", "count", Better::Lower),
    count("consistency.prepares_per_op", "count", Better::Lower),
    count("consistency.abort_ratio", "ratio", Better::Lower),
    // Virtual (Sun-3 model) microseconds. The whole-stack percentiles
    // sit here, unbounded, because they repeat to the digit from run to
    // run; their bounded end-to-end companion is `model_ops_per_s`.
    virtual_time("model.p50_us", Better::Lower),
    virtual_time("model.p99_us", Better::Lower),
    virtual_time("core.model_invoke_mean_us", Better::Lower),
    virtual_time("ratp.model_call_mean_us", Better::Lower),
    virtual_time("dsm.model_fetch_mean_us", Better::Lower),
    // Wall clock as measured, without the host-speed correction the
    // end-to-end `wall_*` metrics carry, and the host speed itself.
    layer("host.wall_ops_per_s", "1/s", Better::Higher),
    layer("host.wall_p50_us", "us", Better::Lower),
    layer("host.wall_p999_us", "us", Better::Lower),
    layer("host.yardstick_us", "us", Better::Lower),
    layer("host.cpu_us_per_op", "us", Better::Lower),
    layer("host.pinned", "count", Better::Higher),
    // --- telescoped wall-clock trace ---------------------------------
    layer("trace.self_us.ws_hop", "us", Better::Lower),
    layer("trace.self_us.invoke", "us", Better::Lower),
    layer("trace.self_us.consistency", "us", Better::Lower),
    layer("trace.self_us.dsm_client_transport", "us", Better::Lower),
    layer("trace.self_us.dsm_server", "us", Better::Lower),
    layer("trace.self_us.store", "us", Better::Lower),
    layer("trace.sum_over_total", "ratio", Better::Higher),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Why each workload exists (one line each, ≤ 200 characters).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::KvGet => "null request path: ws->cs RaTP hop, name lookup and core invocation with dsm/store idle; the bypass workload for every paging or storage change",
        Workload::KvPut => "same path for writes: one dirty page per op through s-thread flush, WriteBack and a store append with periodic compaction",
        Workload::PageScan => "4 MiB object on a 128-frame cache: every op demand-pages 32 cold pages (dsm fetch/grant/ack, RaTP fragments, codec page path, ra eviction); no store appends",
        Workload::PageFlush => "write twin of page_scan: 32 write grants, one WriteBackBatch and 32 page appends per op, compaction in the background; ends with a crash+replay durability check",
        Workload::Ledger2pc => "gcp transfer between accounts on two data servers: segment locks, prepare/commit fan-out and intent/outcome log records dominate; paging idle; one client by design",
    }
}

/// The measured values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn json_number(v: f64) -> String {
    // JSON has no NaN/inf; a metric that could not be computed reads 0.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object the driver reads: exactly the metrics of
/// `defs`, each with its unit.
///
/// # Panics
///
/// Panics when `values` lacks a metric of `defs` or holds one that is
/// not in `defs`: the output must list every metric named in
/// `BENCHMARK.json` and nothing else.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric `{name}` is not declared in the metric table"
        );
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(*v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// A result line read back (by `run`'s table and `agree`). Values stay
/// text, so "byte-identical" can be checked literally.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value as printed, unit)` in output order.
    pub metrics: Vec<(String, String, String)>,
}

impl Parsed {
    pub fn text(&self, name: &str) -> Option<&str> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1.as_str())
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.text(name)?.parse().ok()
    }
}

/// Parse a line produced by [`result_line`] (this format only; not a
/// general JSON reader).
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let after = |text: &'_ str, key: &str| -> Option<usize> { Some(text.find(key)? + key.len()) };
    let field = |key: &str| -> Option<&str> {
        let rest = &line[after(line, key)?..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let mut metrics = Vec::new();
    let mut rest = &line[after(line, "\"metrics\": {")?..];
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = name_end + after(&rest[name_end..], "\"value\": ")?;
        let value_end = value_at + rest[value_at..].find(',')?;
        let unit_at = value_end + after(&rest[value_end..], "\"unit\": \"")?;
        let unit_end = unit_at + rest[unit_at..].find('"')?;
        metrics.push((
            name.to_string(),
            rest[value_at..value_end].trim().to_string(),
            rest[unit_at..unit_end].to_string(),
        ));
        rest = &rest[unit_end + 1..];
    }
    Some(Parsed {
        correct: field("\"correct\": ")?.parse().ok()?,
        attempted: field("\"attempted\": ")?.parse().ok()?,
        failed: field("\"failed\": ")?.parse().ok()?,
        metrics,
    })
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    // A JSON array of one object per line.
    fn array(objects: Vec<String>) -> String {
        format!("[\n    {}\n  ]", objects.join(",\n    "))
    }
    let workloads = Workload::ALL
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), why(w)))
        .to_vec();
    let metric = |d: &MetricDef, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads),
        array(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        array(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "bad name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && seen.insert(w.name()));
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_lists_every_declared_metric_and_nothing_else() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(END_TO_END, &values, true, 10, 0);
        for d in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    }

    #[test]
    fn result_line_parses_back() {
        let values: Values = PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 * 1.25 - 3.0))
            .collect();
        let parsed =
            parse_result_line(&result_line(PER_LAYER, &values, false, 77, 3)).expect("parses");
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (77, 3));
        assert_eq!(parsed.metrics.len(), PER_LAYER.len());
        for (d, (name, _, unit)) in PER_LAYER.iter().zip(&parsed.metrics) {
            assert_eq!((d.name, d.unit), (name.as_str(), unit.as_str()));
            assert_eq!(parsed.value(d.name), Some(values[d.name]));
        }
        assert_eq!(parse_result_line("cargo said something else"), None);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        let mut values: Values = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
        values.remove("obs.span_ns");
        result_line(PER_LAYER, &values, true, 1, 0);
    }

    #[test]
    #[should_panic(expected = "is not declared")]
    fn result_line_refuses_an_undeclared_metric() {
        let mut values: Values = END_TO_END.iter().map(|d| (d.name, 0.0)).collect();
        values.insert("made_up", 1.0);
        result_line(END_TO_END, &values, true, 1, 0);
    }
}
