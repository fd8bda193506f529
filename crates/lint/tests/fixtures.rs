//! End-to-end runs over the seeded fixture trees, plus a self-check on
//! the real workspace.

use clouds_lint::{render_json, run, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn rules_of(findings: &[clouds_lint::Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn bad_fixture_trips_every_rule() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let rules = rules_of(&findings);
    for expected in [
        "wall-clock",
        "os-entropy",
        "std-sync-lock",
        "hash-iter",
        "lock-order",
        "dispatch-arm",
        "obs-schema",
        "wal-before-ack",
        "fence-before-apply",
        "lock-across-call",
        "stale-allow",
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} not triggered; findings: {findings:#?}"
        );
    }
}

#[test]
fn bad_fixture_wal_names_the_unlogged_acking_arm() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let wal: Vec<_> = findings.iter().filter(|f| f.rule == "wal-before-ack").collect();
    assert_eq!(wal.len(), 1, "exactly the seeded arm: {wal:#?}");
    assert!(
        wal[0].message.contains("DsmRequest::WriteBack"),
        "should name the arm: {}",
        wal[0].message
    );
    // The arm whose logging happens inside a callee must NOT be
    // flagged — phase-2 propagation clears it.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "wal-before-ack" && f.message.contains("MirrorPage")),
        "propagation failed to clear the delegating arm"
    );
}

#[test]
fn bad_fixture_fence_names_the_unfenced_arm() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let fence: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "fence-before-apply" && f.message.contains("without passing"))
        .collect();
    assert_eq!(fence.len(), 1, "exactly the seeded arm: {fence:#?}");
    assert!(
        fence[0].message.contains("DsmRequest::FetchPage`"),
        "should name the arm: {}",
        fence[0].message
    );
    // The fenced WriteBack arm (fence precedes the touch) stays clean.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "fence-before-apply" && f.message.contains("WriteBack")),
        "fenced arm falsely reported"
    );
}

#[test]
fn bad_fixture_fence_names_the_release_list_applied_before_the_fence() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let early: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "fence-before-apply" && f.message.contains("drops copies"))
        .collect();
    assert_eq!(early.len(), 1, "exactly the seeded arm: {early:#?}");
    assert!(
        early[0].message.contains("DsmRequest::FetchPages") && early[0].message.contains("forget_copy"),
        "should name the arm and the drop: {}",
        early[0].message
    );
    // Exactly two fence findings in all: this one and the unfenced arm.
    assert_eq!(
        findings.iter().filter(|f| f.rule == "fence-before-apply").count(),
        2
    );
}

#[test]
fn bad_fixture_lock_across_call_names_guard_and_callee() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let f = findings
        .iter()
        .find(|f| f.rule == "lock-across-call")
        .expect("lock-across-call finding");
    assert!(
        f.message.contains("DsmServer.dirty") && f.message.contains(".call("),
        "should name the held guard and the blocking callee: {}",
        f.message
    );
}

#[test]
fn bad_fixture_stale_allow_anchors_the_dead_directive() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let f = findings
        .iter()
        .find(|f| f.rule == "stale-allow")
        .expect("stale-allow finding");
    assert!(
        f.file.ends_with("crates/dsm/src/server.rs") && f.message.contains("wall-clock"),
        "should anchor the dead wall-clock directive: {}:{} {}",
        f.file,
        f.line,
        f.message
    );
}

#[test]
fn bad_fixture_dispatch_names_omitted_wire_variant() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "dispatch-arm"
                && f.message.contains("DsmRequest::AdoptReplicaConfig")),
        "omitted PR-6/PR-8 wire variant not reported"
    );
    // The handled replication variants must NOT be reported.
    for handled in ["CreateReplicated", "MirrorCreate", "MirrorPage", "Promote"] {
        assert!(
            !findings.iter().any(|f| f.rule == "dispatch-arm"
                && f.message.contains(&format!("DsmRequest::{handled}"))),
            "handled variant {handled} falsely reported"
        );
    }
}

#[test]
fn sarif_output_lists_rules_and_results() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let sarif = clouds_lint::render_sarif(&findings);
    assert!(sarif.contains("\"version\":\"2.1.0\""));
    assert!(sarif.contains("\"name\":\"clouds-lint\""));
    // Every engine rule is declared; every finding becomes a result.
    for (id, _) in clouds_lint::RULES {
        assert!(
            sarif.contains(&format!("{{\"id\":\"{id}\"")),
            "rule {id} missing from SARIF rules array"
        );
    }
    assert_eq!(
        sarif.matches("\"ruleId\"").count(),
        findings.len(),
        "one SARIF result per finding"
    );
    // Empty runs still produce a valid document (CI uploads it blind).
    let empty = clouds_lint::render_sarif(&[]);
    assert!(empty.contains("\"results\":[]"));
}

#[test]
fn bad_fixture_lock_cycle_names_both_locks() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let cycle = findings
        .iter()
        .find(|f| f.rule == "lock-order" && f.message.contains("cycle"))
        .expect("lock-order cycle finding");
    assert!(
        cycle.message.contains("Table.accounts") && cycle.message.contains("Table.audit"),
        "cycle should name both locks with their impl type: {}",
        cycle.message
    );
}

#[test]
fn bad_fixture_lock_cycle_through_stripe_family_keys_the_indexed_path() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let cycle = findings
        .iter()
        .find(|f| f.rule == "lock-order" && f.message.contains("stripes[_]"))
        .expect("stripe-family lock-order cycle finding");
    assert!(
        cycle.message.contains("Grid.stripes[_].pages")
            && cycle.message.contains("Grid.stripes[_].meta"),
        "cycle should key stripes by their full path with the index abstracted: {}",
        cycle.message
    );
}

#[test]
fn bad_fixture_dispatch_names_missing_variant() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "dispatch-arm" && f.message.contains("PacketKind::Unhandled")),
        "should name the unhandled variant"
    );
    // The handled variants must NOT be reported.
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "dispatch-arm" && f.message.contains("PacketKind::Request")),
        "handled variant falsely reported"
    );
}

#[test]
fn bad_fixture_obs_schema_both_directions() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "obs-schema" && f.message.contains("bogus.metric")),
        "unregistered metric not reported"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "obs-schema" && f.message.contains("stale.metric")),
        "stale manifest entry not reported"
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = run(&fixture("clean"), &Config::clouds()).expect("fixture run");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:#?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = run(root, &Config::clouds()).expect("workspace run");
    assert!(findings.is_empty(), "workspace not lint-clean: {findings:#?}");
}

#[test]
fn json_output_is_stable_and_sorted() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let json = render_json(&findings);
    assert!(json.starts_with("{\"version\":1,\"findings\":["));
    assert!(json.ends_with("]}\n"));
    // Deterministic: a second run renders byte-identically.
    let again = render_json(&run(&fixture("bad"), &Config::clouds()).expect("rerun"));
    assert_eq!(json, again);
    // Sorted by (file, line, rule).
    let mut keys: Vec<(&str, u32, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    let sorted = {
        let mut s = keys.clone();
        s.sort();
        s
    };
    assert_eq!(keys, sorted);
    keys.clear();
}

/// The handler was renamed out from under the specs: both per-arm rules
/// must say so instead of passing with nothing to check.
#[test]
fn renamed_handler_is_a_finding_not_a_vacuous_pass() {
    let findings = run(&fixture("unmatched"), &Config::clouds()).expect("fixture run");
    for rule in ["wal-before-ack", "fence-before-apply"] {
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        assert_eq!(hits.len(), 1, "{rule}: {findings:#?}");
        assert!(
            hits[0].file.ends_with("crates/dsm/src/proto.rs")
                && hits[0].message.contains("`DsmServer::dispatch`")
                && hits[0].message.contains("no such function"),
            "{rule} should anchor the enum and name the missing handler: {}:{} {}",
            hits[0].file,
            hits[0].line,
            hits[0].message
        );
    }
    assert_eq!(findings.len(), 2, "nothing else to report: {findings:#?}");
}

/// The same hole from the other side: the named function exists but the
/// match moved out of it (the clean fixture's `handle` is a wrapper
/// around `dispatch`).
#[test]
fn spec_naming_a_wrapper_without_arms_is_a_finding() {
    let mut cfg = Config::clouds();
    for spec in &mut cfg.ack_handlers {
        spec.handler_method = "handle";
    }
    for spec in &mut cfg.fences {
        spec.handler_method = "handle";
    }
    let findings = run(&fixture("clean"), &cfg).expect("fixture run");
    for rule in ["wal-before-ack", "fence-before-apply"] {
        assert!(
            findings.iter().any(|f| f.rule == rule
                && f.message.contains("`DsmServer::handle`")
                && f.message.contains("has no `DsmRequest::…` match arm")),
            "{rule}: {findings:#?}"
        );
    }
}

/// The prologue fence is credited per variant, through the fence map:
/// the bad fixture's `WriteBack` (mapped to its segment) is fenced with
/// no fence in its arm, its `FetchPage` (mapped to `None`) is not.
#[test]
fn prologue_fence_covers_exactly_the_variants_the_map_names() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    let fence: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "fence-before-apply")
        .map(|f| f.message.as_str())
        .collect();
    assert!(fence.iter().any(|m| m.contains("`DsmRequest::FetchPage`")), "{fence:#?}");
    assert!(!fence.iter().any(|m| m.contains("`DsmRequest::WriteBack`")), "{fence:#?}");
    // Without the map, the prologue's fence is credited to no one.
    let mut cfg = Config::clouds();
    cfg.fences[0].fence_map_fn = None;
    let findings = run(&fixture("bad"), &cfg).expect("fixture run");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "fence-before-apply" && f.message.contains("`DsmRequest::WriteBack`")),
        "{findings:#?}"
    );
}
