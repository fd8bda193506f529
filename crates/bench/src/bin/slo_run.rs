//! Run the canonical E13 open-loop SLO sweep and print one JSON line per
//! offered-load point (the `SLO_dsm.json` record format) to stdout:
//!
//! ```text
//! cargo run -p clouds-bench --release --bin slo_run [-- --seed N]
//! ```
//!
//! The sweep is entirely virtual-time and seeded: two runs with the
//! same `--seed` (default [`clouds_bench::load::DEFAULT_SEED`]) produce
//! **byte-identical** output. The default-seed output is the golden
//! `SLO_dsm.json`, which `tests/goldens.rs` checks; bless a deliberate
//! model change with `slo_run > SLO_dsm.json`. `paper_tables` prints the
//! same sweep as its E13 table.

use clouds_bench::load;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => Some(load::DEFAULT_SEED),
        [flag, v] if flag == "--seed" => v.parse().ok(),
        _ => None,
    };
    let Some(seed) = seed else {
        eprintln!("usage: slo_run [--seed N]");
        return ExitCode::from(2);
    };
    eprintln!("slo_run: E13 open-loop sweep, seed {seed} (virtual time, Sun-3 cost model)");
    for p in load::run_e13(seed) {
        println!("{}", p.json_line());
    }
    ExitCode::SUCCESS
}
