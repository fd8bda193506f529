//! Every deterministic modeled number, checked against its one golden:
//! each `paper_tables` section except [`golden::SKIPPED`] against
//! `paper_tables_output.txt`, byte for byte (host-scheduled cells print
//! as `host-scheduled`; E13's rows hold every field of the seeded sweep),
//! and
//! EXPERIMENTS.md's verbatim quote of every golden section against the
//! golden. A mismatch names its section and row. Bless a deliberate
//! model change as the [`golden`] module describes. The one test is alone
//! in its binary so no sibling test competes with it for the host.

use clouds_bench::golden::{self, SKIPPED};
use clouds_bench::tables;

#[test]
fn modeled_numbers_match_the_goldens() {
    let read = |file: &str| {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let rendered: String = tables::SECTIONS
        .iter()
        .filter(|(title, _)| !SKIPPED.contains(&golden::section_id(title)))
        .map(tables::render)
        .collect();
    let printed = read("paper_tables_output.txt");
    let mut errs = golden::check_tables(&printed, &rendered);
    errs.extend(golden::check_quotes(
        "EXPERIMENTS.md",
        &printed,
        &read("EXPERIMENTS.md"),
    ));
    assert!(errs.is_empty(), "golden mismatches:\n{}", errs.join("\n"));
}
