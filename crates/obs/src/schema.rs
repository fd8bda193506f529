//! The metric-name contract, checked where every name passes: each name
//! a [`MetricsRegistry`](crate::MetricsRegistry) registers or reads has a
//! row of that kind in `OBS_SCHEMA.md`. Debug builds only.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Name → kind of every row of the table, parsed on first use.
fn rows() -> &'static BTreeMap<&'static str, &'static str> {
    static ROWS: OnceLock<BTreeMap<&'static str, &'static str>> = OnceLock::new();
    ROWS.get_or_init(|| parse(include_str!("../../../OBS_SCHEMA.md")))
}

/// A row is a `|` line whose first backticked token is the name and
/// whose second cell is the kind. Header and separator rows carry no
/// backticks.
fn parse(table: &'static str) -> BTreeMap<&'static str, &'static str> {
    table
        .lines()
        .filter_map(|line| {
            let cells = line.trim().strip_prefix('|')?;
            let (_, quoted) = cells.split_once('`')?;
            let (name, _) = quoted.split_once('`')?;
            let kind = cells.split('|').nth(1)?.trim();
            Some((name.trim(), kind))
        })
        .collect()
}

/// Panic unless `name` has a row of `kind` (`"counter"` or
/// `"histogram"`).
pub(crate) fn check(name: &str, kind: &str) {
    match rows().get(name) {
        Some(&listed) if listed == kind => {}
        Some(listed) => {
            panic!("metric `{name}` is used as a {kind} but OBS_SCHEMA.md lists a {listed}")
        }
        None => panic!("metric `{name}` has no row in OBS_SCHEMA.md: add one or fix the name"),
    }
}
