//! The golden: `paper_tables_output.txt` holds every deterministic
//! modeled number once, and `tests/goldens.rs` checks a fresh run against
//! it byte for byte. EXPERIMENTS.md quotes each of its sections verbatim,
//! and the same test holds every quote to the golden. A deliberate model
//! change is blessed by regenerating the golden with the command that
//! prints it, then pasting the changed sections into EXPERIMENTS.md:
//!
//! ```text
//! cargo run -p clouds-bench --release --bin paper_tables > paper_tables_output.txt
//! ```
//!
//! Table rows are compared with runs of whitespace collapsed: a column
//! is as wide as its widest cell, so a host-scheduled cell that changes
//! length re-pads every row of its table. Quotes are compared exactly.

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
fn diff(name: &str, golden: &[String], fresh: &[String]) -> Vec<String> {
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

/// Mismatches between the `== title` sections of `golden` and their
/// quotes in `doc` (named `doc_name`): a ```` ```text ```` block whose
/// first line is a section's title must repeat the section line for line.
/// A section with no quote, a quote that differs and a quote of no section
/// each fail and name the section; empty when every quote holds.
pub fn check_quotes(doc_name: &str, golden: &str, doc: &str) -> Vec<String> {
    let sections: Vec<&str> = golden
        .split("\n\n")
        .map(str::trim_start)
        .filter(|b| b.starts_with("== "))
        .collect();
    let quotes = quotes(doc);
    let mut errs = Vec::new();
    for section in &sections {
        let id = title_id(section);
        let Some(quote) = quotes.iter().find(|q| title_id(q) == id) else {
            errs.push(format!("{doc_name}: {id} is not quoted"));
            continue;
        };
        let (want, got): (Vec<&str>, Vec<&str>) =
            (section.lines().collect(), quote.lines().collect());
        if let Some((n, (w, g))) = want.iter().zip(&got).enumerate().find(|(_, (w, g))| w != g) {
            errs.push(format!(
                "{doc_name}: {id} quote line {} is `{g}`, golden `{w}`",
                n + 1
            ));
        } else if want.len() != got.len() {
            let (w, g) = (want.len(), got.len());
            errs.push(format!("{doc_name}: {id} quote has {g} lines, golden {w}"));
        }
    }
    for quote in &quotes {
        let id = title_id(quote);
        if !sections.iter().any(|s| title_id(s) == id) {
            errs.push(format!("{doc_name}: {id} is quoted but not in the golden"));
        }
    }
    errs
}

/// The section id of a block that starts with its `== title` line.
fn title_id(block: &str) -> &str {
    section_id(block.strip_prefix("== ").unwrap_or(""))
}

/// The body of every ```` ```text ```` block of `doc` that starts with a
/// `== title` line.
fn quotes(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        if line == "```text" {
            let body: Vec<&str> = lines.by_ref().take_while(|l| *l != "```").collect();
            if body.first().is_some_and(|l| l.starts_with("== ")) {
                out.push(body.join("\n"));
            }
        }
    }
    out
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

    /// A doc that quotes `sections` of `golden`, one block each.
    fn doc(golden: &str, sections: &[&str]) -> String {
        let blocks = golden.split("\n\n").map(str::trim_start);
        let quoted = blocks.filter(|b| sections.iter().any(|s| title_id(b) == *s));
        quoted
            .map(|b| format!("Prose.\n\n```text\n{}\n```\n", b.trim_end()))
            .collect()
    }

    #[test]
    fn verbatim_quotes_of_every_section_hold() {
        let golden = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        assert!(check_quotes("DOC.md", &golden, &doc(&golden, &["E2", "E4"])).is_empty());
    }

    #[test]
    fn one_changed_digit_in_a_quote_fails_and_names_the_section() {
        let golden = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        let quoted = doc(&golden, &["E2", "E4"]).replace("1805.48", "1805.49");
        let errs = check_quotes("DOC.md", &golden, &quoted);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with("DOC.md: E4 quote line 5 is `2 worker(s)"),
            "{errs:?}"
        );
        assert!(errs[0].contains("1805.49 ms") && errs[0].contains("golden `2 worker(s)"));
    }

    #[test]
    fn a_section_with_no_quote_fails() {
        let golden = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        let errs = check_quotes("DOC.md", &golden, &doc(&golden, &["E4"]));
        assert_eq!(errs, ["DOC.md: E2 is not quoted"]);
    }

    #[test]
    fn a_cut_quote_and_a_quote_of_no_section_fail() {
        let golden = table("50.80 ms", "2 worker(s)", "1805.48 ms");
        let doc = doc(&golden, &["E2", "E4"]);
        let cut = doc.lines().filter(|l| !l.ends_with("452 frames"));
        let quoted =
            cut.map(|l| format!("{l}\n")).collect::<String>() + "```text\n== E99 Nothing\n```\n";
        let errs = check_quotes("DOC.md", &golden, &quoted);
        let want = [
            "DOC.md: E4 quote has 4 lines, golden 5",
            "DOC.md: E99 is quoted but not in the golden",
        ];
        assert_eq!(errs, want);
    }

    #[test]
    fn an_excluded_row_whose_label_is_missing_fails() {
        let errs = check(&table("50.80 ms", "2 workers", "1805.48 ms"), EXCLUDED);
        let want = "paper_tables_output.txt: `E4 2 worker(s) …` \
                    is now `E4 2 workers speedup 1805.48 ms 452 frames`";
        assert_eq!(errs, [want]);
    }
}
