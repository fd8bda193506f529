//! `run`'s table, the result-set file format, and `agree`: do two sets
//! of runs of the same code tell the same story?

use crate::metrics::{parse_result_line, Exact, MetricDef, Parsed, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// Whether `exact` metrics must print identically on two fixed-count
/// runs of `workload` (see [`Exact`]). On the paging workloads nothing
/// has to: their read-ahead acks and evictions race.
fn must_repeat(workload: &str, exact: Exact) -> bool {
    match exact {
        Exact::No => false,
        Exact::Count => ["kv_get", "kv_put", "ledger_2pc"].contains(&workload),
        Exact::VirtualTime => ["kv_get", "kv_put"].contains(&workload),
    }
}

/// One child run of a result set.
pub struct Record {
    pub workload: String,
    pub trace: bool,
    /// The child's result line as printed.
    pub line: String,
    pub result: Parsed,
}

impl Record {
    pub fn new(workload: &str, trace: bool, line: &str) -> Option<Record> {
        Some(Record {
            workload: workload.to_string(),
            trace,
            line: line.to_string(),
            result: parse_result_line(line)?,
        })
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// All metrics of a set, one row per metric, one column per workload.
pub fn table(records: &[Record]) -> String {
    let mut out = String::new();
    for trace in [false, true] {
        let columns: Vec<&Record> = records.iter().filter(|r| r.trace == trace).collect();
        let _ = write!(
            out,
            "\n{:<38} {:>7}",
            if trace { "per-layer" } else { "end-to-end" },
            "unit"
        );
        for r in &columns {
            let _ = write!(out, " {:>14}", r.workload);
        }
        out.push('\n');
        for d in defs(trace) {
            let _ = write!(out, "{:<38} {:>7}", d.name, d.unit);
            for r in &columns {
                let _ = write!(out, " {:>14.3}", r.result.value(d.name).unwrap_or(f64::NAN));
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<38} {:>7}", "attempted / failed", "count");
        for r in &columns {
            let _ = write!(
                out,
                " {:>14}",
                format!("{} / {}", r.result.attempted, r.result.failed)
            );
        }
        out.push('\n');
    }
    out
}

/// One line per child run: `<workload> <trace> <result object>`.
pub fn to_file(records: &[Record]) -> String {
    records
        .iter()
        .map(|r| format!("{} {} {}\n", r.workload, u8::from(r.trace), r.line))
        .collect()
}

pub fn from_file(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_file(path, &text)
}

fn parse_file(path: &str, text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let (Some(workload), Some(trace), Some(json)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("{path}: malformed line: {line}"));
            };
            Record::new(workload, trace == "1", json)
                .ok_or_else(|| format!("{path}: unreadable result: {line}"))
        })
        .collect()
}

/// Compare two sets. Per workload × end-to-end metric: both values,
/// their relative difference, the metric's bound, pass/fail — the
/// verdict. Then, for information, every exact metric (counts, virtual
/// times) that did not print identically on a deterministic workload,
/// with both sets' retransmit counts: a wall-clock retransmit timer
/// firing is the one known way such a value can differ.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            let _ = writeln!(
                out,
                "{} --trace {}: missing from the second set",
                ra.workload,
                u8::from(ra.trace)
            );
            ok = false;
            continue;
        };
        for r in [ra, rb] {
            if !r.result.correct || r.result.failed > 0 {
                let _ = writeln!(
                    out,
                    "{}: incorrect or failed ops ({} failed)",
                    r.workload, r.result.failed
                );
                ok = false;
            }
        }
        if ra.trace {
            continue;
        }
        for d in END_TO_END {
            let (Some(x), Some(y)) = (ra.result.value(d.name), rb.result.value(d.name)) else {
                continue;
            };
            let diff = if x + y == 0.0 {
                0.0
            } else {
                (x - y).abs() / ((x + y) / 2.0)
            };
            let pass = diff <= d.bound;
            ok &= pass;
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:>14.3} {:>14.3} {:>7.2}% {:>6.0}%  {}",
                ra.workload,
                d.name,
                x,
                y,
                diff * 100.0,
                d.bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }

    let mut drift = String::new();
    for ra in a.iter().filter(|r| must_repeat(&r.workload, Exact::Count)) {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            continue;
        };
        if ra.result.attempted != rb.result.attempted {
            continue; // time-boxed runs: counts are not comparable
        }
        for d in defs(ra.trace)
            .iter()
            .filter(|d| must_repeat(&ra.workload, d.exact))
        {
            let (x, y) = (ra.result.text(d.name), rb.result.text(d.name));
            if x != y {
                let _ = writeln!(
                    drift,
                    "{:<12} {:<32} {} != {}",
                    ra.workload,
                    d.name,
                    x.unwrap_or("-"),
                    y.unwrap_or("-")
                );
            }
        }
        if ra.trace {
            let _ = writeln!(
                drift,
                "{:<12} {:<32} {} / {}",
                ra.workload,
                "(ratp.retransmits, both sets)",
                ra.result.text("ratp.retransmits").unwrap_or("-"),
                rb.result.text("ratp.retransmits").unwrap_or("-")
            );
        }
    }
    // Listed, not judged: the one known cause — a wall-clock retransmit
    // timer firing — is itself a matter of host timing.
    let differing = drift.lines().filter(|l| l.contains(" != ")).count();
    let _ = writeln!(
        out,
        "\ncounts (kv_get, kv_put, ledger_2pc) and virtual times (kv_get, kv_put): {differing} not byte-identical"
    );
    out.push_str(&drift);
    let _ = writeln!(out, "\n{}", if ok { "AGREE" } else { "DISAGREE" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, Values};

    fn set(wall: f64, calls: f64) -> Vec<Record> {
        let mut out = Vec::new();
        for trace in [false, true] {
            let values: Values = defs(trace)
                .iter()
                .map(|d| {
                    let v = match d.name {
                        "wall_ops_per_s" => wall,
                        "ratp.calls_per_op" => calls,
                        _ => 2.0,
                    };
                    (d.name, v)
                })
                .collect();
            let line = result_line(defs(trace), &values, true, 100, 0);
            out.push(Record::new("kv_get", trace, &line).expect("parses"));
        }
        out
    }

    #[test]
    fn identical_sets_agree_and_roundtrip_through_the_file_format() {
        let a = set(8000.0, 2.0);
        let b = parse_file("a.txt", &to_file(&a)).expect("reads back");
        assert!(parse_file("a.txt", "kv_get 0").is_err());
        let (text, ok) = compare(&a, &b);
        assert!(ok, "{text}");
        assert!(text.ends_with("AGREE\n"));
    }

    #[test]
    fn a_wall_metric_beyond_its_bound_disagrees_and_a_drifting_count_is_listed() {
        let (text, ok) = compare(&set(8000.0, 2.0), &set(6000.0, 2.0));
        assert!(!ok && text.contains("FAIL"), "{text}");
        let (text, ok) = compare(&set(8000.0, 2.0), &set(8000.0, 2.0004));
        assert!(
            ok && text.contains("ratp.calls_per_op") && text.contains("!="),
            "{text}"
        );
        let (text, ok) = compare(&set(8000.0, 2.0), &set(8100.0, 2.0));
        assert!(ok, "{text}");
    }
}
