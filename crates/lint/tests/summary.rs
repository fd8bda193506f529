//! Unit tests for the phase-1 summary builder and phase-2 propagation.
//!
//! Beyond the happy paths, these pin the analysis' *known soundness
//! holes* — recursion, method-vs-free-fn name collisions, closures
//! handed to scoped threads — so they stay documented behavior rather
//! than latent surprises when a rule misses (or over-reports) something.

use clouds_lint::summary::Summaries;
use clouds_lint::{lexer, strip_test_items, Config, FileInfo, SourceFile};

fn src_file(rel: &str, src: &str) -> SourceFile {
    let lexed = lexer::lex(src);
    let runtime_tokens = strip_test_items(&lexed.tokens);
    SourceFile {
        info: FileInfo {
            rel: rel.to_string(),
            is_src: true,
        },
        lexed,
        runtime_tokens,
    }
}

fn build(src: &str) -> Summaries {
    let files = vec![src_file("crates/fix/src/lib.rs", src)];
    Summaries::build(&files, &Config::clouds())
}

fn idx(sums: &Summaries, name: &str) -> usize {
    sums.fns
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fn {name}"))
}

#[test]
fn direct_recursion_terminates_and_misses_nothing() {
    let sums = build(
        "fn looper(n: u32) { if n > 0 { looper(n - 1); } }
         fn target(tx: &Tx) { tx.call(1); }",
    );
    // Cycle safety: reachability over a self-loop must terminate.
    assert!(sums
        .reaches(idx(&sums, "looper"), 8, |f| f.blocks_directly())
        .is_none());
    // And the self-loop is still a real edge: a predicate matching the
    // function itself is found at depth zero.
    assert!(sums
        .reaches(idx(&sums, "looper"), 8, |f| f.name == "looper")
        .is_some());
}

#[test]
fn mutual_recursion_is_cycle_safe() {
    let sums = build(
        "fn ping(n: u32) { pong(n); }
         fn pong(n: u32) { ping(n); }",
    );
    assert!(sums
        .reaches(idx(&sums, "ping"), 16, |f| f.name == "absent")
        .is_none());
}

#[test]
fn depth_bound_truncates_long_chains() {
    let sums = build(
        "fn a() { b(); }
         fn b() { c(); }
         fn c() { d(); }
         fn d(tx: &Tx) { tx.call(1); }",
    );
    let blocks = |f: &clouds_lint::summary::FnSummary| f.blocks_directly();
    // d is 3 hops from a: found at depth 3, silently truncated at 2 —
    // the documented cost of the bound.
    assert!(sums.reaches(idx(&sums, "a"), 3, blocks).is_some());
    assert!(sums.reaches(idx(&sums, "a"), 2, blocks).is_none());
    // The witness names the whole chain.
    let chain = sums.reaches(idx(&sums, "a"), 4, blocks).unwrap();
    assert_eq!(chain, vec!["a", "b", "c", "d"]);
}

#[test]
fn self_method_calls_prefer_the_impl_types_own_method() {
    let sums = build(
        "struct Server { log: Log }
         impl Server {
             fn commit(&self) { self.persist(); }
             fn persist(&self) { self.log.append(1); }
         }
         fn persist() { blocking_call(); }
         fn blocking_call(tx: &Tx) { tx.call(1); }",
    );
    // `self.persist()` resolves to Server::persist only — the free
    // `persist` (which blocks) is not a candidate.
    let commit = &sums.fns[idx(&sums, "commit")];
    let site = commit
        .calls
        .iter()
        .find(|c| c.callee == "persist")
        .expect("call site");
    assert!(site.recv_self);
    let cands = sums.candidates(site, commit);
    assert_eq!(cands.len(), 1);
    assert_eq!(sums.fns[cands[0]].impl_type.as_deref(), Some("Server"));
    assert!(sums
        .reaches(cands[0], 4, |f| f.blocks_directly())
        .is_none());
}

#[test]
fn free_fn_calls_merge_all_same_named_definitions() {
    // The documented hole: without a receiver, name matching cannot
    // tell `flush` the free function from `Flusher::flush` the method,
    // so a caller of either conservatively reaches both.
    let sums = build(
        "fn flush() {}
         struct Flusher { tx: Tx }
         impl Flusher {
             fn flush(&self) { self.tx.call(1); }
         }
         fn caller() { flush(); }",
    );
    let caller = &sums.fns[idx(&sums, "caller")];
    let site = caller.calls.iter().find(|c| c.callee == "flush").unwrap();
    assert!(!site.recv_self);
    assert_eq!(sums.candidates(site, caller).len(), 2);
    // …and therefore `caller` "may block", even though the free
    // `flush` it really calls does not.
    assert!(sums
        .reaches(idx(&sums, "caller"), 4, |f| f.blocks_directly())
        .is_some());
}

#[test]
fn closure_bodies_are_attributed_to_the_enclosing_fn() {
    // Calls inside a closure — including one handed to a scoped
    // thread — are summarized as calls of the enclosing function, with
    // the guards lexically live at that point. Right for guard
    // lifetimes (the spawn does not release the caller's guard), but
    // it also means the *closure's* calls inherit the caller's guard
    // set even though the spawned thread never holds it: conservative
    // over-approximation, pinned here.
    let sums = build(
        "struct W { m: Mutex, ratp: Tx }
         impl W {
             fn fan_out(&self, scope: &Scope) {
                 let g = self.m.lock();
                 scope.spawn(move || {
                     self.ratp.call(1);
                 });
                 g.touch();
             }
         }",
    );
    let fan_out = &sums.fns[idx(&sums, "fan_out")];
    let call = fan_out
        .calls
        .iter()
        .find(|c| c.callee == "call")
        .expect("closure call attributed to fan_out");
    assert!(call.blocking_direct);
    assert_eq!(call.held, vec!["W.m".to_string()]);
}

#[test]
fn wrapped_lock_in_call_args_is_a_statement_temporary() {
    // `take(&mut *m.lock())` binds take's result, not the guard: the
    // guard dies at the `;` and the following call is guard-free.
    let sums = build(
        "struct N { m: Mutex, tx: Tx }
         impl N {
             fn drain(&self) {
                 let drained = take(&mut *self.m.lock());
                 self.tx.call(drained);
             }
         }",
    );
    let drain = &sums.fns[idx(&sums, "drain")];
    let call = drain.calls.iter().find(|c| c.callee == "call").unwrap();
    assert!(call.blocking_direct);
    assert!(call.held.is_empty(), "held: {:?}", call.held);
}

#[test]
fn stoplisted_calls_are_recorded_but_never_followed() {
    let sums = build(
        "struct M { m: Mutex }
         impl M {
             fn busy(&self, map: &Map) { let g = self.m.lock(); map.insert(1); }
         }
         fn insert(tx: &Tx) { tx.call(1); }",
    );
    let busy = &sums.fns[idx(&sums, "busy")];
    let site = busy.calls.iter().find(|c| c.callee == "insert").unwrap();
    assert!(site.stoplisted, "collection vocabulary must be stoplisted");
    // The workspace fn `insert` blocks, but a stoplisted site must not
    // reach it.
    assert!(sums
        .reaches(idx(&sums, "busy"), 4, |f| f.blocks_directly())
        .is_none());
}
