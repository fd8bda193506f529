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
        "lock-order",
        "obs-schema",
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
fn bad_fixture_lock_across_call_sees_the_reply_wait_of_a_sent_call() {
    let findings = run(&fixture("bad"), &Config::clouds()).expect("fixture run");
    assert!(
        findings.iter().any(|f| f.rule == "lock-across-call"
            && f.message.contains("DsmServer.dirty")
            && f.message.contains(".await_reply(")),
        "a guard held across `await_reply` is not reported: {findings:#?}"
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
        f.file.ends_with("crates/dsm/src/server.rs") && f.message.contains("lock-order"),
        "should anchor the dead lock-order directive: {}:{} {}",
        f.file,
        f.line,
        f.message
    );
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
