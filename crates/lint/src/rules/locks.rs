//! `lock-order` — static AB/BA deadlock detection.
//!
//! Per function, every `.lock()` / `.read()` / `.write()` (empty-arg,
//! the `parking_lot` vocabulary) is recorded together with how long its
//! guard plausibly lives: `let`-bound guards to the end of the
//! enclosing block, `match`/`if`/`while` scrutinee guards to the end of
//! the construct, bare temporaries to the end of the statement, and
//! `drop(g)` releases a named guard early. Acquiring `b` while `a` is
//! held contributes the edge `a → b`; calls made while holding `a` pull
//! in the (fixpoint, name-matched) transitive lock summary of every
//! same-named function in the workspace. A cycle in the resulting
//! global graph is a schedule in which two IsiBas can block each other
//! forever, and is reported with a witness path.
//!
//! Keys are `Type.field` when the receiver is a `self` path inside an
//! `impl` block, else the receiver's last identifier; indexed (stripe)
//! receivers like `self.shards[i].pages` keep the whole path with the
//! index abstracted (`Type.shards[_].pages`). The analysis is
//! deliberately approximate (see ARCHITECTURE.md): consistent naming
//! merges distinct locks conservatively, and `lint:allow(lock-order)`
//! on a witness line documents a cycle that cannot be scheduled.
//!
//! Since the v2 inter-procedural pass, the per-function extraction
//! (guard lifetimes, call sites, nesting edges) lives in
//! [`crate::summary`] and is shared with the lock-across-call rule;
//! this module keeps only the lock-graph construction and cycle
//! detection.

use crate::summary::Summaries;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: String,
}

pub fn check(sums: &Summaries, findings: &mut Vec<Finding>) {
    // ---- transitive lock summaries over the name-matched call graph ---
    // (The lock-order graph deliberately keeps the original free
    // name-matching — no impl-type narrowing — so merged same-named
    // locks stay conservative.)
    let mut lockset: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in &sums.fns {
        let s = lockset.entry(f.name.as_str()).or_default();
        for l in &f.locks {
            s.insert(l.key.as_str());
        }
    }
    loop {
        let mut changed = false;
        for f in &sums.fns {
            let mut add: BTreeSet<&str> = BTreeSet::new();
            for c in &f.calls {
                if c.stoplisted {
                    continue;
                }
                if let Some(s) = lockset.get(c.callee.as_str()) {
                    add.extend(s.iter().copied());
                }
            }
            let s = lockset.entry(f.name.as_str()).or_default();
            let before = s.len();
            s.extend(add);
            if s.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- assemble the global edge set ---------------------------------
    let mut edges: Vec<Edge> = Vec::new();
    for f in &sums.fns {
        for e in &f.nest_edges {
            edges.push(Edge {
                from: e.from.clone(),
                to: e.to.clone(),
                file: f.file.clone(),
                line: e.line,
                via: format!("in {}()", f.name),
            });
        }
        for c in &f.calls {
            if c.stoplisted {
                continue;
            }
            let Some(acq) = lockset.get(c.callee.as_str()) else {
                continue;
            };
            for h in &c.held {
                for &k in acq {
                    if h == k {
                        // Cross-function self-edges are dominated by the
                        // name-matching approximation; skip them.
                        continue;
                    }
                    edges.push(Edge {
                        from: h.clone(),
                        to: k.to_string(),
                        file: f.file.clone(),
                        line: c.line,
                        via: format!(
                            "{h} held in {}() across call to {}() which may acquire {k}",
                            f.name, c.callee
                        ),
                    });
                }
            }
        }
    }

    // ---- direct self-edges (reacquire while held, same function) ------
    for e in &edges {
        if e.from == e.to && !e.via.contains("across call") {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: "lock-order",
                message: format!(
                    "`{}` acquired while already held in the same function — \
                     self-deadlock with a non-reentrant lock",
                    e.from
                ),
            });
        }
    }

    // ---- cycle detection (Tarjan SCC over distinct keys) --------------
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
    }
    let sccs = tarjan(&adj);
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        if let Some(cycle) = witness_cycle(&adj, &scc) {
            let desc: Vec<String> = cycle
                .iter()
                .map(|e| format!("{} → {} [{}:{} {}]", e.from, e.to, e.file, e.line, e.via))
                .collect();
            let first = cycle[0];
            findings.push(Finding {
                file: first.file.clone(),
                line: first.line,
                rule: "lock-order",
                message: format!("lock-order cycle: {}", desc.join("; ")),
            });
        }
    }
}

/// Tarjan strongly-connected components over the lock graph.
fn tarjan<'a>(adj: &BTreeMap<&'a str, Vec<&'a Edge>>) -> Vec<Vec<&'a str>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (n, es) in adj {
        nodes.insert(n);
        for e in es {
            nodes.insert(e.to.as_str());
        }
    }
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let idx_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let node_list: Vec<&str> = nodes.iter().copied().collect();
    let mut state = vec![NodeState::default(); node_list.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<&str>> = Vec::new();

    // Iterative Tarjan (explicit work stack: (node, child-cursor)).
    for start in 0..node_list.len() {
        if state[start].index.is_some() {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, cursor)) = work.last() {
            if cursor == 0 && state[v].index.is_none() {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            let succs: Vec<usize> = adj
                .get(node_list[v])
                .map(|es| es.iter().map(|e| idx_of[e.to.as_str()]).collect())
                .unwrap_or_default();
            if cursor < succs.len() {
                work.last_mut().expect("non-empty").1 += 1;
                let w = succs[cursor];
                if state[w].index.is_none() {
                    work.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.unwrap());
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    let vl = state[v].lowlink;
                    state[p].lowlink = state[p].lowlink.min(vl);
                }
                if state[v].lowlink == state[v].index.unwrap() {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        state[w].on_stack = false;
                        comp.push(node_list[w]);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Reconstruct one concrete cycle inside an SCC for the report.
fn witness_cycle<'a>(
    adj: &'a BTreeMap<&'a str, Vec<&'a Edge>>,
    scc: &[&'a str],
) -> Option<Vec<&'a Edge>> {
    let inside: BTreeSet<&str> = scc.iter().copied().collect();
    let start = *scc.iter().min()?;
    // BFS from `start` back to `start` staying inside the SCC.
    let mut prev: BTreeMap<&str, &Edge> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for &e in adj.get(n).into_iter().flatten() {
            let to = e.to.as_str();
            if !inside.contains(to) {
                continue;
            }
            if to == start {
                // Unwind.
                let mut path = vec![e];
                let mut cur = n;
                while cur != start {
                    let pe = *prev.get(cur)?;
                    path.push(pe);
                    cur = pe.from.as_str();
                }
                path.reverse();
                return Some(path);
            }
            if !prev.contains_key(to) {
                prev.insert(to, e);
                queue.push_back(to);
            }
        }
    }
    None
}
