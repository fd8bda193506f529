//! Merged-trace reconstruction: parse canonical JSONL back into causal
//! trees, validate the edges, and compute critical paths.
//!
//! The [`TraceSink`](crate::TraceSink) of a cluster already merges every
//! node's events into one stream; this module rebuilds the Dapper-style
//! forest from the `trace`/`span`/`parent` ids, detects orphan parents,
//! duplicate span ids, parent cycles and same-node nesting violations,
//! and walks the greedy critical path used by the `trace_profile`
//! profiler and the E9 paper table.
//!
//! The line parser is strict about the canonical schema — exact key
//! order, no whitespace — because the determinism invariant compares
//! those bytes; `trace_check` and `trace_profile` both parse through
//! it so the format is pinned in one place.

use std::collections::{BTreeMap, BTreeSet};

/// One event parsed back from canonical JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Virtual timestamp (span start for spans), nanoseconds.
    pub ts: u64,
    /// Span duration (`None` for instants), nanoseconds.
    pub dur: Option<u64>,
    /// Simulated node id.
    pub node: u64,
    /// Subsystem layer.
    pub layer: String,
    /// Event name.
    pub name: String,
    /// Trace id (0 = untraced).
    pub trace: u64,
    /// Span id (0 for instants, which annotate their parent).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Detail string.
    pub args: String,
}

impl ParsedEvent {
    /// End of the event's interval (`ts` itself for instants).
    pub fn end(&self) -> u64 {
        self.ts.saturating_add(self.dur.unwrap_or(0))
    }

    /// True when the event is a completed span (has a duration).
    pub fn is_span(&self) -> bool {
        self.dur.is_some()
    }
}

/// Cursor over one line's bytes; every helper consumes an exact token.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, tok: &str) -> bool {
        self.s[self.pos..].starts_with(tok)
    }

    fn expect(&mut self, tok: &str) -> Result<(), String> {
        if self.peek(tok) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(format!(
                "expected `{tok}` at byte {}, found `{}`",
                self.pos,
                &self.s[self.pos..self.s.len().min(self.pos + 16)]
            ))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self
            .s
            .as_bytes()
            .get(self.pos)
            .is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
        }
        self.s[start..self.pos]
            .parse()
            .map_err(|_| format!("expected a number at byte {start}"))
    }

    /// A JSON string body up to the closing quote, honouring escapes.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let bytes = self.s.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = bytes.get(self.pos + 1).copied();
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 2..self.pos + 6)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 2;
                }
                _ => {
                    let c = self.s[self.pos..].chars().next().ok_or("truncated line")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }
}

/// Parse one canonical event line, enforcing the exact key order the
/// sink emits.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn parse_line(s: &str) -> Result<ParsedEvent, String> {
    let mut c = Cursor { s, pos: 0 };
    c.expect("{\"ts\":")?;
    let ts = c.number()?;
    let dur = if c.peek(",\"dur\":") {
        c.expect(",\"dur\":")?;
        Some(c.number()?)
    } else {
        None
    };
    c.expect(",\"node\":")?;
    let node = c.number()?;
    c.expect(",\"layer\":")?;
    let layer = c.string()?;
    c.expect(",\"name\":")?;
    let name = c.string()?;
    let (trace, span, parent) = if c.peek(",\"trace\":") {
        c.expect(",\"trace\":")?;
        let trace = c.number()?;
        c.expect(",\"span\":")?;
        let span = c.number()?;
        c.expect(",\"parent\":")?;
        let parent = c.number()?;
        (trace, span, parent)
    } else {
        (0, 0, 0)
    };
    c.expect(",\"args\":")?;
    let args = c.string()?;
    c.expect("}")?;
    if c.pos != s.len() {
        return Err(format!("trailing bytes after event at byte {}", c.pos));
    }
    if layer.is_empty() || name.is_empty() {
        return Err("layer and name must be non-empty".to_string());
    }
    if trace == 0 && (span != 0 || parent != 0) {
        return Err("ids without a trace id".to_string());
    }
    if trace != 0 && span == 0 && parent == 0 {
        return Err("traced instant must name a parent span".to_string());
    }
    Ok(ParsedEvent {
        ts,
        dur,
        node,
        layer,
        name,
        trace,
        span,
        parent,
        args,
    })
}

/// Parse a whole JSONL body, prefixing errors with the 1-based line.
///
/// # Errors
///
/// The first malformed line's description.
pub fn parse_jsonl(body: &str) -> Result<Vec<ParsedEvent>, String> {
    body.lines()
        .enumerate()
        .map(|(i, line)| parse_line(line).map_err(|e| format!("line {}: {e}\n  {line}", i + 1)))
        .collect()
}

/// One reconstructed causal tree (all events sharing a trace id).
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    /// The trace id.
    pub trace_id: u64,
    /// Completed spans by span id.
    pub spans: BTreeMap<u64, ParsedEvent>,
    /// Children of each span (and of 0 for roots), sorted by
    /// `(ts, span id)`.
    pub children: BTreeMap<u64, Vec<u64>>,
    /// Span ids with `parent == 0`.
    pub roots: Vec<u64>,
    /// Instant annotations (span id 0) in the trace.
    pub instants: Vec<ParsedEvent>,
}

impl TraceTree {
    /// The distinct simulated nodes the tree's spans ran on.
    pub fn nodes(&self) -> BTreeSet<u64> {
        self.spans.values().map(|s| s.node).collect()
    }

    /// Greedy critical path from `root`: at every span, descend into
    /// the child with the largest duration (ties broken by earlier
    /// start, then smaller span id — both deterministic). Each step's
    /// `self_time` is its duration minus the on-path child's, so the
    /// steps' self-times telescope to the root's duration.
    pub fn critical_path(&self, root: u64) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut cur = root;
        while let Some(ev) = self.spans.get(&cur) {
            let next = self
                .children
                .get(&cur)
                .into_iter()
                .flatten()
                .filter_map(|id| self.spans.get(id))
                .max_by_key(|c| (c.dur.unwrap_or(0), std::cmp::Reverse((c.ts, c.span))));
            let dur = ev.dur.unwrap_or(0);
            let child_dur = next.map_or(0, |c| c.dur.unwrap_or(0));
            path.push(PathStep {
                span: cur,
                node: ev.node,
                layer: ev.layer.clone(),
                name: ev.name.clone(),
                dur,
                self_time: dur.saturating_sub(child_dur),
            });
            match next {
                Some(c) => cur = c.span,
                None => break,
            }
        }
        path
    }
}

/// One span on a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Span id.
    pub span: u64,
    /// Node it ran on.
    pub node: u64,
    /// Layer.
    pub layer: String,
    /// Name.
    pub name: String,
    /// Span duration (ns).
    pub dur: u64,
    /// Duration exclusive of the on-path child (ns).
    pub self_time: u64,
}

/// Aggregate a critical path's self-time by layer.
pub fn layer_self_times(path: &[PathStep]) -> BTreeMap<String, u64> {
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for step in path {
        *by_layer.entry(step.layer.clone()).or_default() += step.self_time;
    }
    by_layer
}

/// Validation findings over a merged trace.
#[derive(Debug, Clone, Default)]
pub struct CausalReport {
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Traced spans seen.
    pub spans: usize,
    /// Traced instants seen.
    pub instants: usize,
    /// Events whose non-zero parent id resolves to no span.
    pub orphans: Vec<String>,
    /// Span ids recorded more than once within one trace.
    pub duplicates: Vec<String>,
    /// Parent chains that loop.
    pub cycles: Vec<String>,
    /// Same-node children whose interval escapes the parent's.
    pub nesting: Vec<String>,
}

impl CausalReport {
    /// True when every causal edge checks out.
    pub fn is_clean(&self) -> bool {
        self.orphans.is_empty()
            && self.duplicates.is_empty()
            && self.cycles.is_empty()
            && self.nesting.is_empty()
    }

    /// All findings, one per line (empty when clean).
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(self.orphans.iter().map(|s| format!("orphan: {s}")));
        out.extend(self.duplicates.iter().map(|s| format!("duplicate: {s}")));
        out.extend(self.cycles.iter().map(|s| format!("cycle: {s}")));
        out.extend(self.nesting.iter().map(|s| format!("nesting: {s}")));
        out
    }
}

/// The reconstructed forest plus what fell outside it.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    /// Trees by trace id.
    pub trees: BTreeMap<u64, TraceTree>,
    /// Events with no trace id (legacy spans, sched events, …).
    pub untraced: usize,
}

/// Build the causal forest from parsed events and validate every edge.
pub fn build_forest(events: &[ParsedEvent]) -> (Forest, CausalReport) {
    let mut forest = Forest::default();
    let mut report = CausalReport::default();
    for ev in events {
        if ev.trace == 0 {
            forest.untraced += 1;
            continue;
        }
        let tree = forest.trees.entry(ev.trace).or_insert_with(|| TraceTree {
            trace_id: ev.trace,
            ..TraceTree::default()
        });
        if ev.span == 0 {
            report.instants += 1;
            tree.instants.push(ev.clone());
        } else {
            report.spans += 1;
            if let Some(prev) = tree.spans.insert(ev.span, ev.clone()) {
                report.duplicates.push(format!(
                    "span {} in trace {} recorded twice ({}/{} and {}/{})",
                    ev.span, ev.trace, prev.layer, prev.name, ev.layer, ev.name
                ));
            }
        }
    }
    report.traces = forest.trees.len();

    for tree in forest.trees.values_mut() {
        // Edges and roots.
        let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for ev in tree.spans.values() {
            if ev.parent == 0 {
                tree.roots.push(ev.span);
            } else {
                if !tree.spans.contains_key(&ev.parent) {
                    report.orphans.push(format!(
                        "span {} ({}/{}) in trace {} has unresolved parent {}",
                        ev.span, ev.layer, ev.name, tree.trace_id, ev.parent
                    ));
                }
                kids.entry(ev.parent).or_default().push((ev.ts, ev.span));
            }
        }
        for ev in &tree.instants {
            if !tree.spans.contains_key(&ev.parent) {
                report.orphans.push(format!(
                    "instant {}/{} in trace {} has unresolved parent {}",
                    ev.layer, ev.name, tree.trace_id, ev.parent
                ));
            }
        }
        for (parent, mut v) in kids {
            v.sort_unstable();
            tree.children
                .insert(parent, v.into_iter().map(|(_, id)| id).collect());
        }

        // Cycles: walk each parent chain; a chain longer than the span
        // count must loop.
        let limit = tree.spans.len() as u64 + 1;
        for ev in tree.spans.values() {
            let mut cur = ev.parent;
            let mut steps = 0u64;
            while cur != 0 {
                if cur == ev.span {
                    report.cycles.push(format!(
                        "span {} in trace {} is its own ancestor",
                        ev.span, tree.trace_id
                    ));
                    break;
                }
                steps += 1;
                if steps > limit {
                    report.cycles.push(format!(
                        "parent chain from span {} in trace {} does not terminate",
                        ev.span, tree.trace_id
                    ));
                    break;
                }
                cur = tree.spans.get(&cur).map_or(0, |p| p.parent);
            }
        }

        // Same-node nesting: a child's interval must sit inside its
        // parent's (cross-node clocks are independent, so only same-node
        // pairs are comparable).
        for ev in tree.spans.values() {
            let Some(parent) = tree.spans.get(&ev.parent) else {
                continue;
            };
            if parent.node == ev.node && (ev.ts < parent.ts || ev.end() > parent.end()) {
                report.nesting.push(format!(
                    "span {} ({}/{}) [{}..{}] escapes parent {} [{}..{}] on node {} in trace {}",
                    ev.span,
                    ev.layer,
                    ev.name,
                    ev.ts,
                    ev.end(),
                    parent.span,
                    parent.ts,
                    parent.end(),
                    ev.node,
                    tree.trace_id
                ));
            }
        }
        for ev in &tree.instants {
            let Some(parent) = tree.spans.get(&ev.parent) else {
                continue;
            };
            if parent.node == ev.node && (ev.ts < parent.ts || ev.ts > parent.end()) {
                report.nesting.push(format!(
                    "instant {}/{} at {} escapes parent {} [{}..{}] on node {} in trace {}",
                    ev.layer,
                    ev.name,
                    ev.ts,
                    parent.span,
                    parent.ts,
                    parent.end(),
                    ev.node,
                    tree.trace_id
                ));
            }
        }
    }
    (forest, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(ts: u64, dur: u64, node: u64, name: &str, ids: (u64, u64, u64)) -> String {
        format!(
            "{{\"ts\":{ts},\"dur\":{dur},\"node\":{node},\"layer\":\"l\",\"name\":\"{name}\",\"trace\":{},\"span\":{},\"parent\":{},\"args\":\"\"}}",
            ids.0, ids.1, ids.2
        )
    }

    #[test]
    fn parses_all_three_shapes() {
        let body = [
            "{\"ts\":1,\"node\":2,\"layer\":\"sched\",\"name\":\"wake\",\"args\":\"\"}",
            "{\"ts\":1,\"dur\":5,\"node\":2,\"layer\":\"invoke\",\"name\":\"invoke\",\"trace\":9,\"span\":4,\"parent\":0,\"args\":\"d=0\"}",
            "{\"ts\":2,\"node\":2,\"layer\":\"ratp\",\"name\":\"retransmit\",\"trace\":9,\"span\":0,\"parent\":4,\"args\":\"\"}",
        ]
        .join("\n");
        let events = parse_jsonl(&body).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].trace, 0);
        assert!(events[1].is_span());
        assert_eq!(events[1].span, 4);
        assert_eq!(events[2].span, 0);
        assert_eq!(events[2].parent, 4);
    }

    #[test]
    fn parser_rejects_malformed_ids() {
        // span without trace
        assert!(parse_line(
            "{\"ts\":1,\"node\":2,\"layer\":\"x\",\"name\":\"y\",\"trace\":0,\"span\":1,\"parent\":0,\"args\":\"\"}"
        )
        .is_err());
        // ids out of order
        assert!(parse_line(
            "{\"ts\":1,\"node\":2,\"layer\":\"x\",\"name\":\"y\",\"span\":1,\"trace\":9,\"parent\":0,\"args\":\"\"}"
        )
        .is_err());
        // trailing junk
        assert!(
            parse_line("{\"ts\":1,\"node\":2,\"layer\":\"x\",\"name\":\"y\",\"args\":\"\"} ")
                .is_err()
        );
    }

    #[test]
    fn forest_builds_and_validates_a_clean_tree() {
        let body = [
            span_line(0, 100, 1, "invoke", (9, 10, 0)),
            span_line(10, 50, 1, "call", (9, 11, 10)),
            span_line(5, 20, 2, "serve_fetch", (9, 12, 11)),
            "{\"ts\":6,\"node\":2,\"layer\":\"l\",\"name\":\"grant\",\"trace\":9,\"span\":0,\"parent\":12,\"args\":\"\"}".to_string(),
        ]
        .join("\n");
        let events = parse_jsonl(&body).unwrap();
        let (forest, report) = build_forest(&events);
        assert!(report.is_clean(), "{:?}", report.findings());
        assert_eq!(report.traces, 1);
        assert_eq!(report.spans, 3);
        assert_eq!(report.instants, 1);
        let tree = &forest.trees[&9];
        assert_eq!(tree.roots, vec![10]);
        assert_eq!(tree.nodes().len(), 2);

        let path = tree.critical_path(10);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].self_time, 50);
        assert_eq!(path[1].self_time, 30);
        assert_eq!(path[2].self_time, 20);
        let total: u64 = path.iter().map(|s| s.self_time).sum();
        assert_eq!(total, 100, "self-times telescope to the root duration");
        assert_eq!(layer_self_times(&path)["l"], 100);
    }

    #[test]
    fn forest_flags_orphans_cycles_duplicates_and_nesting() {
        let body = [
            span_line(0, 100, 1, "root", (9, 10, 0)),
            // parent 99 does not exist
            span_line(10, 5, 1, "lost", (9, 13, 99)),
            // duplicate span id
            span_line(20, 5, 1, "dup1", (9, 11, 10)),
            span_line(30, 5, 1, "dup2", (9, 11, 10)),
            // same-node child escaping the parent interval
            span_line(90, 50, 1, "late", (9, 12, 10)),
            // two spans pointing at each other: a cycle
            span_line(1, 2, 3, "a", (7, 20, 21)),
            span_line(1, 2, 3, "b", (7, 21, 20)),
        ]
        .join("\n");
        let events = parse_jsonl(&body).unwrap();
        let (_, report) = build_forest(&events);
        assert!(!report.orphans.is_empty());
        assert!(!report.duplicates.is_empty());
        assert!(!report.cycles.is_empty());
        assert!(!report.nesting.is_empty());
        assert!(!report.is_clean());
    }
}
