//! Phase 1 of the inter-procedural analyzer: per-function summaries.
//!
//! One pass over each function body (the same lexed token stream every
//! rule sees) records everything the phase-2 rules need to reason
//! *across* functions without re-scanning code:
//!
//! * **calls made** — every plausible call site, with the lock guards
//!   held at that moment and whether the callee name is on the
//!   ubiquitous-name stoplist (phase 2 never follows stoplisted names);
//! * **guards acquired/dropped** — the `parking_lot` vocabulary
//!   (`.lock()`, `.read()`, `.write()`), with the same structural
//!   lifetime model the lock-order rule has always used (statement
//!   temporaries, `let` bindings, `match`/`if`/`while` scrutinee
//!   extension, early `drop(g)`);
//! * **blocking sites** — transport/channel operations, a flag on the
//!   call site.
//!
//! Phase 2 ([`Summaries::reaches`]) propagates these facts over the
//! *name-matched* call graph: a call to `f` pulls in the summary of
//! every workspace function named `f` (restricted to the enclosing
//! `impl` type's own methods when the receiver is literally `self` and
//! such a method exists). Propagation is bounded-depth and cycle-safe —
//! a breadth-first walk with a visited set, cut off at
//! [`crate::Config::max_call_depth`] hops — and returns the call-chain
//! witness so findings can name the path, not just the endpoints.
//!
//! Known soundness holes, pinned by `tests/summary.rs` so they stay
//! documented rather than latent: name matching merges methods with
//! free functions (and same-named methods on unrelated types, when the
//! receiver is not `self`); calls inside closures — including closures
//! handed to `scoped` threads — are attributed to the *enclosing*
//! function (right for guard lifetimes, which do not cross the spawn,
//! but it also means a guard taken outside a closure appears held at
//! call sites inside it); and the depth bound silently truncates
//! chains longer than `max_call_depth`.

use crate::lexer::{Tok, Token};
use crate::{functions, Config, SourceFile};
use std::collections::BTreeMap;

/// Keywords and constructors that can precede a `(` without being a
/// call worth recording.
pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "move", "in", "as", "ref", "mut", "where", "impl", "dyn", "unsafe", "async", "await", "Some",
    "None", "Ok", "Err", "Box", "Vec", "String", "Arc", "Rc",
];

/// Method names so ubiquitous (std trait impls, accessors) that
/// name-matching them to workspace functions is pure noise: a call to
/// `x.len()` must not pull in the summary of every `fn len` in the
/// tree. Such leaf accessors still contribute their own direct facts
/// when analyzed as definitions.
pub(crate) const CALL_STOPLIST: &[&str] = &[
    "len",
    "is_empty",
    "fmt",
    "clone",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "default",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "deref",
    "deref_mut",
    "index",
    "from",
    "into",
    "drop",
    "new",
    "finish",
    // `ids.join("")` on a slice of strings must not match a workspace
    // thread-pool `join` (which blocks on a channel recv).
    "join",
    // Collection/accessor vocabulary: `.get(`/`.insert(`/… on a plain
    // HashMap would otherwise name-match same-named workspace methods
    // (SegmentStore::get, Counter::inc, …) and fabricate edges.
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "clear",
    "entry",
    "inc",
    "observe",
    "record",
    "push",
    "extend",
    "retain",
    "take",
    // Atomics vocabulary: `now_ns.load(…)` must not match `ObjectMeta::load`.
    "load",
    "store",
    // Channel vocabulary: `tx.send(…)`/`rx.recv()` must not match
    // `Endpoint::send` and friends. (They still register as *direct*
    // blocking sites — see `CallSite::blocking_direct`.)
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum GuardKind {
    /// Released at the next `;` at acquisition depth.
    Stmt,
    /// Released when brace depth drops below `depth`.
    Block,
}

#[derive(Debug, Clone)]
struct Guard {
    key: String,
    kind: GuardKind,
    depth: i32,
    /// `let` binding name, for `drop(name)` release.
    bound: Option<String>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Simple callee name (`flush`, `check_serving`, `call_many`, …).
    pub callee: String,
    /// Lock keys held when the call is made (lock-order keys).
    pub held: Vec<String>,
    pub line: u32,
    /// Callee name is on [`CALL_STOPLIST`]: phase 2 must not follow it.
    pub stoplisted: bool,
    /// The receiver is literally `self` (enables impl-aware matching).
    pub recv_self: bool,
    /// The callee is a blocking transport/channel primitive
    /// (`.call(…)`, `.call_many(…)`, `.send(…)`, …) — matched by name
    /// in method form, regardless of the stoplist.
    pub blocking_direct: bool,
}

/// A direct lock acquisition.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub key: String,
    pub line: u32,
}

/// A held→acquired nesting edge observed inside one function.
#[derive(Debug, Clone)]
pub struct NestEdge {
    pub from: String,
    pub to: String,
    pub line: u32,
}

/// Everything phase 2 knows about one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    pub impl_type: Option<String>,
    /// Root-relative path of the defining file.
    pub file: String,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub nest_edges: Vec<NestEdge>,
}

impl FnSummary {
    /// Does this function itself contain a blocking transport/channel
    /// call?
    pub fn blocks_directly(&self) -> bool {
        self.calls.iter().any(|c| c.blocking_direct)
    }

    /// The first direct blocking site, for witness messages.
    pub fn first_blocking(&self) -> Option<&CallSite> {
        self.calls.iter().find(|c| c.blocking_direct)
    }
}

/// The phase-1 result: every function summary plus a name index.
pub struct Summaries {
    pub fns: Vec<FnSummary>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Summaries {
    /// Build summaries for every `src/` function in `files`.
    pub fn build(files: &[SourceFile], cfg: &Config) -> Summaries {
        let mut fns = Vec::new();
        for sf in files {
            if !sf.info.is_src {
                continue;
            }
            let toks = &sf.runtime_tokens;
            for f in functions(toks) {
                fns.push(summarize(toks, &f, &sf.info.rel, cfg));
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        Summaries { fns, by_name }
    }

    /// Candidate definitions for a call site: every workspace function
    /// with the callee's name — narrowed to the enclosing `impl` type's
    /// own methods when the receiver is literally `self` and the type
    /// defines one (the only type information a lexer-level analysis
    /// has).
    pub fn candidates(&self, site: &CallSite, caller: &FnSummary) -> Vec<usize> {
        let Some(all) = self.by_name.get(&site.callee) else {
            return Vec::new();
        };
        if site.recv_self {
            if let Some(t) = &caller.impl_type {
                let own: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.as_deref() == Some(t))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        all.clone()
    }

    /// Phase 2: breadth-first reachability from the function at `start`
    /// over the name-matched call graph, bounded at `max_depth` hops
    /// and cycle-safe (visited set). Returns the witness chain of
    /// function names, `start` first, ending at the first function for
    /// which `pred` holds — or `None` when nothing within the bound
    /// satisfies it. Stoplisted call sites are never followed.
    pub fn reaches<F>(&self, start: usize, max_depth: usize, pred: F) -> Option<Vec<String>>
    where
        F: Fn(&FnSummary) -> bool,
    {
        let mut visited = vec![false; self.fns.len()];
        // (fn index, parent position in `trail`), trail records the BFS
        // tree so the witness can be unwound without storing paths.
        let mut trail: Vec<(usize, Option<usize>)> = vec![(start, None)];
        visited[start] = true;
        let mut frontier = vec![0usize];
        let mut depth = 0usize;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &pos in &frontier {
                let (idx, _) = trail[pos];
                if pred(&self.fns[idx]) {
                    // Unwind the witness chain.
                    let mut chain = Vec::new();
                    let mut cur = Some(pos);
                    while let Some(p) = cur {
                        chain.push(self.fns[trail[p].0].name.clone());
                        cur = trail[p].1;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                if depth == max_depth {
                    continue;
                }
                let caller = &self.fns[idx];
                for site in &caller.calls {
                    if site.stoplisted {
                        continue;
                    }
                    for cand in self.candidates(site, caller) {
                        if !visited[cand] {
                            visited[cand] = true;
                            trail.push((cand, Some(pos)));
                            next.push(trail.len() - 1);
                        }
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        None
    }
}

/// Build one function's summary: a single scan of its body tracking
/// guard lifetimes and recording every call site.
fn summarize(toks: &[Token], f: &crate::FnSpan, file: &str, cfg: &Config) -> FnSummary {
    let (bs, be) = f.body;
    let end = be.min(toks.len());
    let mut out = FnSummary {
        name: f.name.clone(),
        impl_type: f.impl_type.clone(),
        file: file.to_string(),
        calls: Vec::new(),
        locks: Vec::new(),
        nest_edges: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32; // brace depth relative to body start

    let mut i = bs;
    while i < end {
        match &toks[i].kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            // `;` ends a statement; `,` ends a match arm (and, as a
            // conservative side effect, an argument position — losing a
            // same-statement edge, never inventing one).
            Tok::Punct(';') | Tok::Punct(',') => {
                guards.retain(|g| !(g.kind == GuardKind::Stmt && g.depth >= depth));
            }
            // `drop(name)` releases a let-bound guard early.
            Tok::Ident(id)
                if id == "drop" && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('(')) =>
            {
                if let Some(Tok::Ident(arg)) = toks.get(i + 2).map(|t| &t.kind) {
                    if toks.get(i + 3).is_some_and(|t| t.kind.is_punct(')')) {
                        guards.retain(|g| g.bound.as_deref() != Some(arg.as_str()));
                    }
                }
            }
            // Acquisition: `<chain> . lock|read|write ( )`
            Tok::Punct('.')
                if matches!(
                    toks.get(i + 1).and_then(|t| t.kind.ident()),
                    Some("lock" | "read" | "write")
                ) && toks.get(i + 2).is_some_and(|t| t.kind.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.kind.is_punct(')')) =>
            {
                let line = toks[i + 1].line;
                if let Some((key, chain_start)) = receiver_key(toks, i, f) {
                    for g in &guards {
                        out.nest_edges.push(NestEdge {
                            from: g.key.clone(),
                            to: key.clone(),
                            line,
                        });
                    }
                    out.locks.push(LockSite {
                        key: key.clone(),
                        line,
                    });
                    // `m.lock().remove(x)` — the chain continuing past
                    // the guard call means the guard is a temporary:
                    // a `let` binds the chain's *result*, not the guard.
                    let chained = toks.get(i + 4).is_some_and(|t| t.kind.is_punct('.'));
                    let (kind, gdepth, bound) = binding_of(toks, chain_start, bs, depth, chained);
                    guards.push(Guard {
                        key,
                        kind,
                        depth: gdepth,
                        bound,
                    });
                }
                i += 4;
                continue;
            }
            // Call site: `name (` — not a definition, macro, or
            // constructor.
            Tok::Ident(id)
                if toks.get(i + 1).is_some_and(|t| t.kind.is_punct('('))
                    && !KEYWORDS.contains(&id.as_str())
                    && id.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                    && !(i > 0 && toks[i - 1].kind.is_ident("fn")) =>
            {
                let method_form = i > bs && toks[i - 1].kind.is_punct('.');
                let recv_self = method_form
                    && i >= 2
                    && toks[i - 2].kind.is_ident("self")
                    && !(i >= 3 && toks[i - 3].kind.is_punct('.'));
                out.calls.push(CallSite {
                    callee: id.clone(),
                    held: guards.iter().map(|g| g.key.clone()).collect(),
                    line: toks[i].line,
                    stoplisted: CALL_STOPLIST.contains(&id.as_str()),
                    recv_self,
                    blocking_direct: method_form
                        && cfg.blocking_methods.iter().any(|m| m == id),
                });
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Key the receiver chain ending at the `.` before lock/read/write.
/// Returns (key, index of the chain's first token).
///
/// Indexed receivers — the stripe pattern `self.shards[i].pages.lock()`
/// — are traversed through the `[...]` (any balanced index expression)
/// and keyed with the whole path, index abstracted to `[_]`:
/// `DsmServer.shards[_].pages`. Every element of a stripe array maps to
/// the one key, which is exactly the right approximation for the
/// stripe discipline (never hold two stripes of one family; sweeps
/// visit stripes one at a time), because holding one stripe while
/// taking another of the same family then shows up as a self-loop.
pub(crate) fn receiver_key(
    toks: &[Token],
    dot: usize,
    f: &crate::FnSpan,
) -> Option<(String, usize)> {
    // Walk back over `ident ( [index] )? ( . ident ( [index] )? )*`,
    // tolerating interposed `()` for calls like `.as_ref()` is NOT
    // attempted: a `)` aborts.
    let mut idx = dot;
    let mut chain: Vec<String> = Vec::new();
    let mut indexed = false;
    loop {
        if idx == 0 {
            break;
        }
        let prev = &toks[idx - 1];
        match &prev.kind {
            Tok::Ident(id) => {
                chain.push(id.clone());
                idx -= 1;
                // Continue only over a further `.`
                if idx > 0 && toks[idx - 1].kind.is_punct('.') {
                    idx -= 1;
                    continue;
                }
                break;
            }
            // `shards[i]` (or any balanced index expression): skip back
            // to the matching `[` and abstract the index to `[_]`.
            Tok::Punct(']') => {
                let mut bdepth = 1i32;
                let mut k = idx - 1;
                while k > 0 && bdepth > 0 {
                    k -= 1;
                    match &toks[k].kind {
                        Tok::Punct('[') => bdepth -= 1,
                        Tok::Punct(']') => bdepth += 1,
                        _ => {}
                    }
                }
                if bdepth != 0 {
                    break; // unmatched bracket: give up on the chain
                }
                chain.push("[_]".to_string());
                indexed = true;
                idx = k; // toks[k] is `[`; the array ident precedes it
            }
            _ => break,
        }
    }
    // Fuse `[_]` markers onto the identifier they index.
    chain.reverse();
    let mut parts: Vec<String> = Vec::new();
    for c in chain {
        if c == "[_]" {
            match parts.last_mut() {
                Some(last) => last.push_str("[_]"),
                None => return None, // chain started at the bracket
            }
        } else {
            parts.push(c);
        }
    }
    if parts.is_empty() {
        return None;
    }
    let key = if indexed {
        // Stripe keys carry the whole path: `pages` alone would merge
        // every stripe family member with any same-named plain field.
        if parts[0] == "self" && parts.len() >= 2 {
            match &f.impl_type {
                Some(t) => format!("{t}.{}", parts[1..].join(".")),
                None => parts[1..].join("."),
            }
        } else {
            parts.join(".")
        }
    } else if parts[0] == "self" && parts.len() >= 2 {
        match &f.impl_type {
            Some(t) => format!("{t}.{}", parts.last().unwrap()),
            None => parts.last().unwrap().clone(),
        }
    } else {
        parts.last().unwrap().clone()
    };
    Some((key, idx))
}

/// How long does the guard acquired by the expression starting at
/// `chain_start` live? Scans the statement prefix (back to the nearest
/// `;`/`{`/`}`) for, in priority order: a `match`/`if`/`while`
/// scrutinee position (guard lives for the construct's block — Rust
/// extends scrutinee temporaries, which is exactly the
/// `if let Some(x) = m.lock().get(…)` deadlock footgun), a `let … =`
/// binding (guard lives to end of the enclosing block — but only when
/// the `let` binds the guard itself, i.e. `chained` is false), or
/// anything else (temporary: dies at end of statement).
fn binding_of(
    toks: &[Token],
    chain_start: usize,
    body_start: usize,
    depth: i32,
    chained: bool,
) -> (GuardKind, i32, Option<String>) {
    let lo = chain_start.saturating_sub(16).max(body_start);
    let mut saw_eq = false;
    let mut wrapped = false;
    let mut let_name: Option<String> = None;
    let mut j = chain_start;
    while j > lo {
        j -= 1;
        match &toks[j].kind {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Ident(id) if id == "match" || id == "while" || id == "if" => {
                return (GuardKind::Block, depth + 1, None);
            }
            // A paren between the lock chain and the `=` means the
            // chain sits inside a call's argument list —
            // `let x = take(&mut *m.lock())` binds the call's result,
            // not the guard, which stays a statement temporary.
            Tok::Punct('(') | Tok::Punct(')') if !saw_eq => wrapped = true,
            Tok::Punct('=') if !saw_eq => {
                saw_eq = true;
                if j >= 1 {
                    if let Tok::Ident(name) = &toks[j - 1].kind {
                        let mut k = j - 1;
                        if k > 0 && toks[k - 1].kind.is_ident("mut") {
                            k -= 1;
                        }
                        if k > 0 && toks[k - 1].kind.is_ident("let") {
                            let_name = Some(name.clone());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    match let_name {
        Some(name) if !chained && !wrapped => (GuardKind::Block, depth, Some(name)),
        _ => (GuardKind::Stmt, depth, None),
    }
}
