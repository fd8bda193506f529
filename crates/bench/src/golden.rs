//! The goldens: `paper_tables_output.txt` and `SLO_dsm.json` hold every
//! deterministic modeled number, and `tests/goldens.rs` checks a fresh
//! run against them byte for byte. A deliberate model change is blessed
//! by regenerating them with the commands that print them:
//!
//! ```text
//! cargo run -p clouds-bench --release --bin paper_tables > paper_tables_output.txt
//! cargo run -p clouds-bench --release --bin slo_run > SLO_dsm.json
//! ```
//!
//! Table rows are compared with runs of whitespace collapsed: a column
//! is as wide as its widest cell, so a host-scheduled cell that changes
//! length re-pads every row of its table.

/// Rows whose numbers depend on how the host schedules threads, keyed by
/// (section id, row label). They are compared on their label only. This
/// list is the meter of ROADMAP items 1 and 9: it empties as host
/// scheduling leaves the model.
pub const HOST_SCHEDULED: &[(&str, &str)] = &[
    ("E1", "context switch"),
    ("E4", "2 worker(s)"),
    ("E4", "4 worker(s)"),
    ("E4", "8 worker(s)"),
    ("E5", "S-threads"),
    ("E5", "LCP-threads"),
    ("E5", "GCP-threads"),
    ("E6b", "n=2 PETs, r=3, no failures"),
    ("E6b", "n=3 PETs, r=3, no failures"),
    ("A1", "2 worker(s), modern LAN"),
    ("A1", "4 worker(s), modern LAN"),
    ("A1", "8 worker(s), modern LAN"),
    ("E11", "2 clients × 64 pages"),
    ("E11", "4 clients × 64 pages"),
];

/// Sections the goldens test does not render. Every E6 trial crashes
/// nodes and waits out RaTP's wall-clock retry budget against them:
/// nearly two minutes asleep for under a second of work.
pub const SKIPPED: &[&str] = &["E6"];

/// A section's id: the first word of its title (`E6b`, `A1`, …).
pub fn section_id(title: &str) -> &str {
    title.split_whitespace().next().unwrap_or("")
}

/// Mismatches between the golden tables and a fresh rendering of every
/// section but [`SKIPPED`], each naming its section and row; empty when
/// the golden holds. An `excluded` row must be in the golden and keep its
/// label, but its numbers may move.
pub fn check_tables(golden: &str, fresh: &str, excluded: &[(&str, &str)]) -> Vec<String> {
    let (golden, fresh) = (rows(golden, excluded), rows(fresh, excluded));
    let mut errs = diff("paper_tables_output.txt", &golden, &fresh);
    for (id, label) in excluded {
        if !golden.contains(&format!("{id} {label} …")) {
            errs.push(format!("{id} `{label}` is excluded but not in the golden"));
        }
    }
    errs
}

/// The rows of `golden` that differ from `fresh`, each naming its row;
/// empty when the two are equal.
pub fn diff(name: &str, golden: &[String], fresh: &[String]) -> Vec<String> {
    let pairs = golden.iter().zip(fresh).filter(|(g, f)| g != f);
    let mut errs: Vec<String> = pairs
        .map(|(g, f)| format!("{name}: `{g}` is now `{f}`"))
        .collect();
    if fresh.len() != golden.len() {
        errs.push(format!(
            "{name}: {} rows, golden {}",
            fresh.len(),
            golden.len()
        ));
    }
    errs
}

/// Every row of every `== title` section of a rendering but [`SKIPPED`],
/// as `id row` with whitespace runs collapsed; an `excluded` row is cut
/// to `id label …`.
fn rows(text: &str, excluded: &[(&str, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for block in text.split("\n\n") {
        let mut lines = block.trim_start().lines();
        let Some(title) = lines.next().and_then(|l| l.strip_prefix("== ")) else {
            continue;
        };
        let id = section_id(title);
        if SKIPPED.contains(&id) {
            continue;
        }
        for row in lines.skip(2) {
            let row = row.split_whitespace().collect::<Vec<_>>().join(" ");
            let hit = excluded.iter().find(|e| is_row(e, id, &row));
            out.push(hit.map_or(format!("{id} {row}"), |(_, l)| format!("{id} {l} …")));
        }
    }
    out
}

/// Whether `row` of section `id` is the listed row `(section, label)`.
fn is_row(&(section, label): &(&str, &str), id: &str, row: &str) -> bool {
    section == id && row.strip_prefix(label).is_some_and(|r| r.starts_with(' '))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{render_table, Row};

    const EXCLUDED: &[(&str, &str)] = &[("E4", "2 worker(s)")];

    /// Two small tables; E4's `2 worker(s)` is the excluded row.
    fn table(nfs: &str, two: &str, two_ms: &str) -> String {
        let e2 = [Row::new("8K transfer, Unix NFS", "50 ms", nfs, "baseline")];
        let e4 = [
            Row::new("1 worker(s)", "speedup", "2901.70 ms", "327 frames"),
            Row::new(two, "speedup", two_ms, "452 frames"),
        ];
        render_table("E2  Network", &e2) + &render_table("E4  Sort", &e4)
    }

    fn check(fresh: &str, excluded: &[(&str, &str)]) -> Vec<String> {
        let golden = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        check_tables(&golden, fresh, excluded)
    }

    #[test]
    fn an_excluded_row_is_compared_on_its_label_only() {
        // Its longer cell re-pads the checked `1 worker(s)` row too.
        let fresh = table("50.80 ms", "2 worker(s)", "11805.48 ms");
        assert!(check(&fresh, EXCLUDED).is_empty());
    }

    #[test]
    fn one_changed_digit_in_a_checked_row_fails_and_names_the_row() {
        let errs = check(&table("50.81 ms", "2 worker(s)", "1805.48 ms"), EXCLUDED);
        let want = "paper_tables_output.txt: `E2 8K transfer, Unix NFS 50 ms 50.80 ms baseline` \
                    is now `E2 8K transfer, Unix NFS 50 ms 50.81 ms baseline`";
        assert_eq!(errs, [want]);
    }

    #[test]
    fn an_excluded_row_missing_from_the_golden_fails() {
        let fresh = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        let errs = check(&fresh, &[("E4", "3 worker(s)")]);
        assert_eq!(errs, ["E4 `3 worker(s)` is excluded but not in the golden"]);
    }

    #[test]
    fn an_excluded_row_whose_label_is_missing_fails() {
        let errs = check(&table("50.80 ms", "2 workers", "1805.48 ms"), EXCLUDED);
        let want = "paper_tables_output.txt: `E4 2 worker(s) …` \
                    is now `E4 2 workers speedup 1805.48 ms 452 frames`";
        assert_eq!(errs, [want]);
    }
}
