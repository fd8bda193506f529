//! `obs-schema` — metric names must round-trip through the manifest.
//!
//! Counters and histograms are registered by string name
//! (`obs.counter("dsm.client.fetch_rpcs")`) and read back by string
//! name in bench/paper-table code (`registry.histogram_summary(…)`).
//! A typo on either side doesn't fail — it silently mints a new
//! zero-valued metric, and a renamed counter quietly zeroes every
//! report built on the old name. `OBS_SCHEMA.md` is the single source
//! of truth: every metric-name literal in library code must appear
//! there (`unregistered metric`), and every manifest entry must still
//! be used somewhere (`stale manifest entry`), so drift is loud in
//! both directions.

use crate::lexer::Tok;
use crate::{Config, Finding, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Registration/lookup methods whose first string-literal argument is a
/// metric name.
const METRIC_METHODS: &[&str] = &[
    "counter",
    "histogram",
    "counter_value",
    "histogram_summary",
];

pub fn check(root: &Path, files: &[SourceFile], cfg: &Config, findings: &mut Vec<Finding>) {
    // Metric-name uses: method("literal") in src code (tests may invent
    // scratch names freely).
    let mut used: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for sf in files {
        if !sf.info.is_src {
            continue;
        }
        let toks = &sf.runtime_tokens;
        for i in 0..toks.len() {
            let Some(meth) = toks[i].kind.ident() else { continue };
            if !METRIC_METHODS.contains(&meth) {
                continue;
            }
            // Require a method-call or registry-call shape: `.meth("…")`.
            if i == 0 || !toks[i - 1].kind.is_punct('.') {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|t| t.kind.is_punct('(')) {
                continue;
            }
            let Some(Tok::Str(name)) = toks.get(i + 2).map(|t| &t.kind) else {
                continue;
            };
            used.entry(name.clone())
                .or_insert_with(|| (sf.info.rel.clone(), toks[i + 2].line));
        }
    }

    let manifest_path = root.join(&cfg.obs_manifest);
    let manifest_src = std::fs::read_to_string(&manifest_path).unwrap_or_default();
    if manifest_src.is_empty() {
        if !used.is_empty() {
            findings.push(Finding {
                file: cfg.obs_manifest.clone(),
                line: 1,
                rule: "obs-schema",
                message: format!(
                    "metric manifest `{}` is missing but {} metric name(s) are used",
                    cfg.obs_manifest,
                    used.len()
                ),
            });
        }
        return;
    }
    let manifest = parse_manifest(&manifest_src);

    for (name, (file, line)) in &used {
        if !manifest.contains_key(name) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                rule: "obs-schema",
                message: format!(
                    "unregistered metric `{name}`: add it to {} or fix the name",
                    cfg.obs_manifest
                ),
            });
        }
    }
    for (name, line) in &manifest {
        if !used.contains_key(name) {
            findings.push(Finding {
                file: cfg.obs_manifest.clone(),
                line: *line,
                rule: "obs-schema",
                message: format!(
                    "stale manifest entry `{name}`: no src code registers or reads it"
                ),
            });
        }
    }
}

/// Manifest entries: the first backtick-quoted token of each `|`-table
/// row (header/separator rows carry no backticks and are skipped).
fn parse_manifest(src: &str) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(open) = line.find('`') else { continue };
        let rest = &line[open + 1..];
        let Some(close) = rest.find('`') else { continue };
        let name = rest[..close].trim();
        if !name.is_empty() {
            out.entry(name.to_string()).or_insert(idx as u32 + 1);
        }
    }
    out
}
