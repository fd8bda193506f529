//! `clouds-benchmark` — the repo benchmark.
//!
//! ```text
//! clouds-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! clouds-benchmark run   [--seed <n>] [--smoke] [--out <file>]
//! clouds-benchmark agree [--seed <n>] [--smoke] | agree <file> <file>
//! clouds-benchmark manifest
//! ```
//!
//! The first form is the driver contract: one workload, measured for
//! `--seconds`, one JSON object on the last line of standard output
//! (`--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
//! ones). `run` does all five workloads in both modes with the
//! committed fixed op counts, `agree` compares two such sets, and
//! `manifest` prints `BENCHMARK.json`. See README.md.
//!
//! Every measurement runs in a fresh child process pinned to one CPU:
//! the simulated nodes' threads ping-pong, and unpinned their
//! cross-core wake-ups make latency bimodal (3–4×).

mod agree;
mod counts;
mod gen;
mod host;
mod metrics;
mod objects;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use gen::Workload;
use run::Sizing;
use std::process::{ExitCode, Stdio};

/// Divisor of the committed op counts under `--smoke`.
const SMOKE_DIVISOR: u64 = 50;
const DEFAULT_SEED: u64 = 13;

fn usage() -> ExitCode {
    eprintln!(
        "usage: clouds-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         clouds-benchmark run [--seed <n>] [--smoke] [--out <file>]\n       \
         clouds-benchmark agree [--seed <n>] [--smoke] | agree <file> <file>\n       \
         clouds-benchmark manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Flags of the measuring forms.
#[derive(Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    divisor: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => flags.workload = Some(Workload::parse(it.next()?)?),
            "--seed" => flags.seed = Some(it.next()?.parse().ok()?),
            "--seconds" => flags.seconds = Some(it.next()?.parse().ok().filter(|s| *s > 0)?),
            "--divisor" => flags.divisor = Some(it.next()?.parse().ok().filter(|d| *d > 0)?),
            "--trace" => {
                flags.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = Some(it.next()?.clone()),
            file if !file.starts_with('-') => flags.files.push(file.to_string()),
            _ => return None,
        }
    }
    Some(flags)
}

/// One workload in this (already pinned) process; prints the result
/// object as the last line of standard output. Whether it is correct.
fn measure(workload: Workload, seed: u64, sizing: Sizing, trace: bool) -> bool {
    println!(
        "{}",
        host::header(
            seed,
            &format!("{} {sizing:?}", workload.name()),
            host::pinned_cpu()
        )
    );
    let (defs, report) = if trace {
        (metrics::PER_LAYER, run::layer_run(workload, seed, sizing))
    } else {
        (metrics::END_TO_END, run::timed_run(workload, seed, sizing))
    };
    for d in defs {
        if let Some(v) = report.values.get(d.name) {
            println!("{:<40} {:>18.4} {}", d.name, v, d.unit);
        }
    }
    println!(
        "{}",
        metrics::result_line(
            defs,
            &report.values,
            report.correct,
            report.attempted,
            report.failed
        )
    );
    report.correct
}

/// Run every workload in both modes, each in a pinned child, and
/// return the children's result lines as `(workload, trace, json)`.
fn run_set(seed: u64, divisor: u64) -> Result<Vec<agree::Record>, String> {
    let mut records = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args: Vec<String> = [
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
                "--divisor",
                &divisor.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .map(String::from)
            .to_vec();
            eprintln!("... {} --trace {}", workload.name(), u8::from(trace));
            let output = host::pinned_child(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start child: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() {
                return Err(format!(
                    "{} --trace {} failed: {last}",
                    workload.name(),
                    u8::from(trace)
                ));
            }
            records.push(
                agree::Record::new(workload.name(), trace, last)
                    .ok_or_else(|| format!("unreadable result line: {last}"))?,
            );
        }
    }
    Ok(records)
}

/// Run `command`; `Ok(true)` = everything measured is correct and
/// agrees, `None` = the command line was not understood.
fn dispatch(command: &str, args: &[String], flags: &Flags) -> Option<Result<bool, String>> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let divisor = if flags.smoke { SMOKE_DIVISOR } else { 1 };
    Some(match command {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "measure" => {
            let sizing = match (flags.seconds, flags.divisor) {
                (Some(s), None) => Sizing::Seconds(s),
                (None, Some(divisor)) => Sizing::Ops { divisor },
                _ => return None,
            };
            let (workload, trace) = (flags.workload?, flags.trace?);
            if std::env::var_os(host::PINNED_ENV).is_some() {
                Ok(measure(workload, seed, sizing, trace))
            } else {
                // Not pinned yet: re-run this very command line in a
                // child pinned to one CPU and relay its verdict.
                host::pinned_child(args)
                    .status()
                    .map(|status| status.success())
                    .map_err(|e| format!("cannot start child: {e}"))
            }
        }
        "run" => run_set(seed, divisor).and_then(|records| {
            // The children were pinned as `pinned_child` pins them.
            let sizing = format!("ops / {divisor}");
            println!("{}", host::header(seed, &sizing, host::pin_target()));
            print!("{}", agree::table(&records));
            match &flags.out {
                Some(path) => std::fs::write(path, agree::to_file(&records))
                    .map(|()| true)
                    .map_err(|e| format!("cannot write {path}: {e}")),
                None => Ok(true),
            }
        }),
        "agree" => {
            let sets = match &flags.files[..] {
                [] => run_set(seed, divisor).and_then(|a| Ok((a, run_set(seed, divisor)?))),
                [a, b] => agree::from_file(a).and_then(|a| Ok((a, agree::from_file(b)?))),
                _ => return None,
            };
            sets.map(|(a, b)| {
                let (text, ok) = agree::compare(&a, &b);
                print!("{text}");
                ok
            })
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("clouds-benchmark: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "agree" | "manifest")) => (c, &args[1..]),
        _ => ("measure", &args[..]),
    };
    match parse_flags(rest).and_then(|flags| dispatch(command, &args, &flags)) {
        Some(Ok(true)) => ExitCode::SUCCESS,
        Some(Ok(false)) => ExitCode::FAILURE,
        Some(Err(e)) => {
            eprintln!("clouds-benchmark: {e}");
            ExitCode::FAILURE
        }
        None => usage(),
    }
}
