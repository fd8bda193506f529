//! Validate a `clouds-obs` JSONL trace (`CLOUDS_TRACE=path.jsonl`):
//!
//! ```text
//! cargo run -p clouds-bench --bin trace_check -- path.jsonl
//! ```
//!
//! Checks every line against the canonical schema
//! `{"ts":N[,"dur":N],"node":N,"layer":"…","name":"…"[,"trace":T,
//! "span":S,"parent":P],"args":"…"}` (strict key order — the
//! determinism invariant compares these bytes), that timestamps are
//! non-decreasing (canonical order), and that the causal edges are
//! sound: every `parent` resolves within its trace, no span id is
//! duplicated, no parent chain cycles, and same-node child spans nest
//! inside their parent's interval. Prints a per-layer census and exits
//! non-zero on any malformed line or causal defect — CI runs this after
//! a traced example to pin both the wire format and the causality.

#![warn(clippy::iter_over_hash_type)]

use clouds_obs::causal::{build_forest, parse_jsonl};
use std::process::ExitCode;

fn run(path: &str) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events = parse_jsonl(&body).map_err(|e| format!("{path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{path}: no events — the traced run recorded nothing"));
    }
    let mut last_ts = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if ev.ts < last_ts {
            return Err(format!(
                "{path}:{}: timestamps regress ({} after {last_ts}) — not in canonical order",
                i + 1,
                ev.ts
            ));
        }
        last_ts = ev.ts;
    }

    let (forest, report) = build_forest(&events);
    if !report.is_clean() {
        return Err(format!(
            "{path}: causal defects ({} orphan(s), {} duplicate(s), {} cycle(s), {} nesting violation(s)):\n{}",
            report.orphans.len(),
            report.duplicates.len(),
            report.cycles.len(),
            report.nesting.len(),
            report.findings().join("\n")
        ));
    }

    let spans = events.iter().filter(|e| e.is_span()).count();
    println!(
        "{path}: OK — {} events ({spans} spans, {} instants); {} trace(s), {} untraced event(s), 0 orphans, 0 cycles",
        events.len(),
        events.len() - spans,
        forest.trees.len(),
        forest.untraced,
    );
    let mut layers: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for ev in &events {
        *layers.entry(ev.layer.as_str()).or_default() += 1;
    }
    for (layer, n) in layers {
        println!("  {layer:<12} {n}");
    }
    for tree in forest.trees.values() {
        println!(
            "  trace {:#018x}: {} span(s) over {} node(s), {} root(s)",
            tree.trace_id,
            tree.spans.len(),
            tree.nodes().len(),
            tree.roots.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.jsonl>");
        return ExitCode::from(2);
    };
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}
