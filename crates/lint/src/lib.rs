//! `clouds-lint` — workspace static analysis for the Clouds reproduction.
//!
//! What is left here is what only a whole-workspace pass can check:
//! deadlock-free lock acquisition across the IsiBa + `parking_lot` mix
//! (one global lock-order graph, no guard held across a blocking call)
//! and the obs contract (every metric name in the checked-in manifest,
//! and no manifest entry nothing emits). The chaos harness can only
//! catch violations it gets lucky enough to schedule; this crate
//! enforces them statically. What a type, a table test or clippy can
//! hold instead is not here: the serving fence is `clouds_dsm::Serving`,
//! write-ahead is a test over every acknowledged mutation, a wire
//! variant without a handler arm is a compile error, and the root
//! `clippy.toml` bans wall clocks, `std::sync` locks and hash-order
//! iteration in every crate.
//!
//! Design: a hand-rolled lexer ([`lexer`]) feeds token-pattern rules
//! ([`rules`]) — no rustc plumbing, no dependencies, so the linter
//! builds in seconds and runs first in CI. Findings are heuristic by
//! design; a `// lint:allow(rule): reason` comment on (or directly
//! above) the offending line suppresses one, and the reason documents
//! why the invariant still holds.

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod lexer;
pub mod rules;
pub mod summary;

use lexer::{LexedFile, Tok, Token};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One lint finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Root-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    /// Stable rule identifier (the name `lint:allow(...)` takes).
    pub rule: &'static str,
    pub message: String,
}

/// Where a file sits in the workspace layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Root-relative path, `/`-separated.
    pub rel: String,
    /// True for `src/` library code (rules about runtime behavior apply);
    /// false for `tests/`, `benches/`, `examples/`.
    pub is_src: bool,
}

/// A lexed file bundled with its layout info and a token stream with
/// `#[cfg(test)]` / `#[test]` items removed.
pub struct SourceFile {
    pub info: FileInfo,
    pub lexed: LexedFile,
    /// Tokens outside test-gated items — what runtime-behavior rules see.
    pub runtime_tokens: Vec<Token>,
}

/// Engine configuration. [`Config::clouds`] is the workspace's own
/// policy; fixtures and tests may build stricter or looser ones.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root-relative path of the metric-name manifest.
    pub obs_manifest: String,
    /// Hop bound for phase-2 summary propagation — how far
    /// `lock-across-call` follows a call made under a guard looking for
    /// a blocking one. Anything deeper is far more likely a
    /// name-matching artifact than a real call path.
    pub max_call_depth: usize,
    /// Method names that block (transport calls, channel sends/recvs);
    /// matched in method form only.
    pub blocking_methods: Vec<&'static str>,
}

impl Config {
    /// The policy for this workspace.
    pub fn clouds() -> Config {
        Config {
            obs_manifest: "OBS_SCHEMA.md".into(),
            max_call_depth: 4,
            blocking_methods: vec![
                "call",
                "call_many",
                "call_with_budget",
                "call_async",
                "await_reply",
                "notify",
                "send_heartbeat",
                "send",
                "send_at",
                "recv",
                "recv_timeout",
            ],
        }
    }
}

/// Run every rule over the workspace rooted at `root`.
///
/// Findings suppressed by `lint:allow` are dropped; the rest come back
/// sorted by (file, line, rule) so output is stable run to run.
pub fn run(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    let sums = summary::Summaries::build(&files, cfg);
    let mut findings = Vec::new();
    rules::locks::check(&sums, &mut findings);
    rules::obs_schema::check(root, &files, cfg, &mut findings);
    rules::lock_across_call::check(&sums, cfg, &mut findings);

    // Apply lint:allow suppression, recording which directive each
    // suppressed finding used so unused directives can be reported.
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let directive = files
            .iter()
            .find(|sf| sf.info.rel == f.file)
            .and_then(|sf| sf.lexed.allowing_line(f.rule, f.line));
        match directive {
            Some(dl) => {
                used.insert((f.file.clone(), dl, f.rule.to_string()));
            }
            None => kept.push(f),
        }
    }

    // Stale-allow: a directive that suppressed nothing this run is
    // itself a finding — escape hatches must not rot silently. The
    // check exempts `stale-allow` itself and honors its own allow
    // (for the rare directive kept for a flapping heuristic).
    for sf in &files {
        for (line, rls) in &sf.lexed.allows {
            for rule in rls {
                if rule == "stale-allow" {
                    continue;
                }
                if used.contains(&(sf.info.rel.clone(), *line, rule.clone())) {
                    continue;
                }
                if sf.lexed.is_allowed("stale-allow", *line) {
                    continue;
                }
                kept.push(Finding {
                    file: sf.info.rel.clone(),
                    line: *line,
                    rule: "stale-allow",
                    message: format!(
                        "`lint:allow({rule})` suppresses nothing — the finding it \
                         silenced is gone; delete the directive (or it will hide \
                         the next real `{rule}` violation here)"
                    ),
                });
            }
        }
    }
    kept.sort();
    kept.dedup();
    Ok(kept)
}

/// Collect and lex every `.rs` file under `root`, skipping build
/// output, vendored shims, and lint fixtures.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&p)?;
        let lexed = lexer::lex(&src);
        let runtime_tokens = strip_test_items(&lexed.tokens);
        out.push(SourceFile {
            info: classify(&rel),
            lexed,
            runtime_tokens,
        });
    }
    Ok(out)
}

const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "node_modules"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn classify(rel: &str) -> FileInfo {
    let parts: Vec<&str> = rel.split('/').collect();
    let is_src = if parts.len() >= 3 && parts[0] == "crates" {
        parts[2] == "src"
    } else {
        parts.first() == Some(&"src")
    };
    FileInfo {
        rel: rel.to_string(),
        is_src,
    }
}

/// Drop items gated behind `#[cfg(test)]` or `#[test]` (and any
/// attribute mentioning `test`, e.g. `#[cfg(all(test, …))]`), so
/// runtime-behavior rules don't fire on test scaffolding.
pub fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind.is_punct('#') && matches!(tokens.get(i + 1), Some(t) if t.kind.is_punct('['))
        {
            let (attr_end, mentions_test) = scan_attr(tokens, i + 1);
            if mentions_test {
                i = skip_item(tokens, attr_end);
                continue;
            }
            // Keep the attribute tokens; rules don't care but positions
            // inside other items must survive intact.
            out.extend_from_slice(&tokens[i..attr_end]);
            i = attr_end;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Scan a `[...]` attribute starting at the `[`; returns
/// (index-after-`]`, attribute-mentions-`test`).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut mentions = false;
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, mentions);
                }
            }
            Tok::Ident(id) if id == "test" => mentions = true,
            _ => {}
        }
        i += 1;
    }
    (tokens.len(), mentions)
}

/// Skip one item starting at `i` (past its attributes): consume any
/// further attributes, then tokens until a top-level `;` or a balanced
/// `{…}` block.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i < tokens.len()
        && tokens[i].kind.is_punct('#')
        && matches!(tokens.get(i + 1), Some(t) if t.kind.is_punct('['))
    {
        let (end, _) = scan_attr(tokens, i + 1);
        i = end;
    }
    let mut paren = 0i32;
    while i < tokens.len() {
        match tokens[i].kind {
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct(';') if paren == 0 => return i + 1,
            Tok::Punct('{') if paren == 0 => {
                let mut depth = 0i32;
                while i < tokens.len() {
                    match tokens[i].kind {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

/// Render findings as an aligned human-readable table.
pub fn render_table(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "clouds-lint: no findings\n".to_string();
    }
    let loc: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect();
    let w_rule = findings.iter().map(|f| f.rule.len()).max().unwrap_or(0);
    let w_loc = loc.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (f, l) in findings.iter().zip(&loc) {
        let _ = writeln!(out, "{:<w_rule$}  {:<w_loc$}  {}", f.rule, l, f.message);
    }
    let _ = writeln!(out, "\nclouds-lint: {} finding(s)", findings.len());
    out
}

/// Render findings as stable machine-readable JSON (sorted input ⇒
/// byte-stable output).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        );
    }
    out.push_str("]}\n");
    out
}

/// Every rule the engine can emit, with a one-line description — the
/// SARIF `rules` array and the README table are generated from the same
/// facts.
pub const RULES: &[(&str, &str)] = &[
    ("lock-order", "global lock acquisition order must be acyclic"),
    (
        "lock-across-call",
        "no lock guard held across a blocking transport/channel call",
    ),
    ("obs-schema", "metric names must match the checked-in manifest"),
    ("stale-allow", "lint:allow directives that suppress nothing"),
];

/// Render findings as SARIF 2.1.0 so CI can surface them as
/// code-scanning annotations. Stable for sorted input, hand-rolled like
/// the JSON renderer (this crate stays dependency-free).
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"clouds-lint\",\"informationUri\":\
         \"https://example.invalid/clouds-lint\",\"rules\":[",
    );
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_str(id),
            json_str(desc)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
             {{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.file),
            f.line
        );
    }
    out.push_str("]}]}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Function segmentation (the summary builder's input)
// ---------------------------------------------------------------------------

/// One `fn` item located in a token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when inside an `impl` block.
    pub impl_type: Option<String>,
    /// Token range of the body, `{`‥`}` exclusive of braces.
    pub body: (usize, usize),
}

/// Locate every `fn` with a body, tracking the enclosing `impl` type
/// (for `impl T` the type `T`; for `impl Tr for T` also `T`).
pub fn functions(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    // Stack of (brace_depth_at_open, Option<impl type>).
    let mut impl_stack: Vec<(i32, Option<String>)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                    impl_stack.pop();
                }
            }
            Tok::Ident(id) if id == "impl" => {
                // Scan to the opening `{`, extracting the subject type:
                // the last path ident before `{` that is not a generic
                // parameter (after `for`, if present).
                let mut j = i + 1;
                let mut last_ident: Option<String> = None;
                let mut angle = 0i32;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Ident(id2) if angle == 0 && id2 != "for" && id2 != "where" => {
                            last_ident = Some(id2.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < tokens.len() && tokens[j].kind.is_punct('{') {
                    impl_stack.push((depth + 1, last_ident));
                    depth += 1;
                    i = j + 1;
                    continue;
                }
                i = j;
                continue;
            }
            Tok::Ident(id) if id == "fn" => {
                let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) else {
                    i += 1;
                    continue;
                };
                let name = name.clone();
                // Find parameter parens (skip generics).
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < tokens.len() {
                    match tokens[j].kind {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('(') if angle <= 0 => break,
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        _ => {}
                    }
                    j += 1;
                }
                if !tokens.get(j).is_some_and(|t| t.kind.is_punct('(')) {
                    i = j;
                    continue;
                }
                let mut paren = 1i32;
                j += 1;
                while j < tokens.len() && paren > 0 {
                    match tokens[j].kind {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                // Find the body `{` at paren/bracket depth 0 (skips the
                // return type and where clause); a `;` first means no body.
                let mut k = j;
                let mut grp = 0i32;
                while k < tokens.len() {
                    match tokens[k].kind {
                        Tok::Punct('(') | Tok::Punct('[') => grp += 1,
                        Tok::Punct(')') | Tok::Punct(']') => grp -= 1,
                        Tok::Punct(';') if grp == 0 => break,
                        Tok::Punct('{') if grp == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if !tokens.get(k).is_some_and(|t| t.kind.is_punct('{')) {
                    i = k;
                    continue;
                }
                let body_start = k + 1;
                let mut brace = 1i32;
                let mut m = body_start;
                while m < tokens.len() && brace > 0 {
                    match tokens[m].kind {
                        Tok::Punct('{') => brace += 1,
                        Tok::Punct('}') => brace -= 1,
                        _ => {}
                    }
                    m += 1;
                }
                let body_end = m.saturating_sub(1);
                out.push(FnSpan {
                    name,
                    impl_type: impl_stack.last().and_then(|(_, t)| t.clone()),
                    body: (body_start, body_end),
                });
                // Continue scanning *inside* the body too (nested fns are
                // rare; treating them as part of the outer body is fine),
                // but impl tracking needs the braces: resume right after
                // the opening brace.
                depth += 1;
                i = body_start;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}
