//! Critical-path profiler for `clouds-obs` JSONL traces:
//!
//! ```text
//! CLOUDS_TRACE=run.jsonl cargo run --example quickstart
//! cargo run -p clouds-bench --bin trace_profile -- run.jsonl [--json out.json]
//! ```
//!
//! Reconstructs the causal forest (parent edges stitched across nodes),
//! then for every trace computes the critical path — at each span, the
//! child chain maximising duration — and each step's *self* time,
//! exclusive of its on-path child. Self times telescope: they sum to
//! the root's duration, so the per-layer table answers "where does the
//! latency actually live?" without double counting. `--json` addition-
//! ally emits the same data machine-readably.

#![warn(clippy::iter_over_hash_type)]

use clouds_obs::causal::{build_forest, layer_self_times, parse_jsonl, Forest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

fn human_report(forest: &Forest) -> String {
    let mut out = String::new();
    let mut global_layers: BTreeMap<String, u64> = BTreeMap::new();
    let mut global_total = 0u64;
    for tree in forest.trees.values() {
        for &root in &tree.roots {
            let span = &tree.spans[&root];
            let path = tree.critical_path(root);
            let dur = span.dur.unwrap_or(0);
            let _ = writeln!(
                out,
                "trace {:#018x}  root {}/{}  dur {} ns  {} span(s), {} node(s)",
                tree.trace_id,
                span.layer,
                span.name,
                dur,
                tree.spans.len(),
                tree.nodes().len()
            );
            for step in &path {
                let _ = writeln!(
                    out,
                    "  {:>10} ns self {:>10} ns  node {:<4} {}/{}",
                    step.dur, step.self_time, step.node, step.layer, step.name
                );
                *global_layers.entry(step.layer.clone()).or_default() += step.self_time;
            }
            global_total += dur;
        }
    }
    let _ = writeln!(out, "critical-path self time by layer (all traces):");
    for (layer, ns) in &global_layers {
        let _ = writeln!(
            out,
            "  {:<12} {:>12} ns  {:.0}%",
            layer,
            ns,
            100.0 * *ns as f64 / global_total.max(1) as f64
        );
    }
    let _ = writeln!(out, "  {:<12} {:>12} ns  total critical-path length", "=", global_total);
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_report(forest: &Forest) -> String {
    let mut traces = Vec::new();
    for tree in forest.trees.values() {
        for &root in &tree.roots {
            let span = &tree.spans[&root];
            let path = tree.critical_path(root);
            let layers = layer_self_times(&path);
            let steps: Vec<String> = path
                .iter()
                .map(|s| {
                    format!(
                        "{{\"span\":{},\"node\":{},\"layer\":\"{}\",\"name\":\"{}\",\"dur\":{},\"self\":{}}}",
                        s.span,
                        s.node,
                        json_escape(&s.layer),
                        json_escape(&s.name),
                        s.dur,
                        s.self_time
                    )
                })
                .collect();
            let layer_obj: Vec<String> = layers
                .iter()
                .map(|(l, ns)| format!("\"{}\":{ns}", json_escape(l)))
                .collect();
            traces.push(format!(
                "{{\"trace\":{},\"root\":{root},\"root_dur\":{},\"spans\":{},\"nodes\":{},\
                 \"critical_path\":[{}],\"layer_self\":{{{}}}}}",
                tree.trace_id,
                span.dur.unwrap_or(0),
                tree.spans.len(),
                tree.nodes().len(),
                steps.join(","),
                layer_obj.join(",")
            ));
        }
    }
    format!(
        "{{\"traces\":[{}],\"untraced_events\":{}}}\n",
        traces.join(","),
        forest.untraced
    )
}

fn run(path: &str, json_out: Option<&str>) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events = parse_jsonl(&body).map_err(|e| format!("{path}: {e}"))?;
    let (forest, report) = build_forest(&events);
    if !report.is_clean() {
        return Err(format!(
            "{path}: causal defects — refusing to profile a broken trace:\n{}",
            report.findings().join("\n")
        ));
    }
    if forest.trees.is_empty() {
        return Err(format!("{path}: no traced spans — nothing to profile"));
    }
    print!("{}", human_report(&forest));
    if let Some(out) = json_out {
        std::fs::write(out, json_report(&forest)).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("trace_profile: wrote {out}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, json_out) = match args.as_slice() {
        [p] => (p.as_str(), None),
        [p, flag, out] if flag == "--json" => (p.as_str(), Some(out.as_str())),
        _ => {
            eprintln!("usage: trace_profile <trace.jsonl> [--json <out.json>]");
            return ExitCode::from(2);
        }
    };
    match run(path, json_out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_profile: {e}");
            ExitCode::FAILURE
        }
    }
}
