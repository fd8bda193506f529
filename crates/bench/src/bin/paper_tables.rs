//! Regenerate every measured claim of the paper in one run:
//!
//! ```text
//! cargo run -p clouds-bench --release --bin paper_tables
//! ```
//!
//! Results are in virtual time under the calibrated Sun-3/Ethernet cost
//! model (see `clouds_simnet::CostModel::sun3_ethernet`). The committed
//! output is the golden `paper_tables_output.txt`; redirect this bin's
//! stdout into it to bless a deliberate model change.

#![warn(clippy::iter_over_hash_type)]

use clouds_bench::tables;

fn main() {
    println!("Clouds reproduction — paper-vs-measured tables");
    println!("(virtual time, calibrated Sun-3 / 10 Mb/s Ethernet cost model)");
    for section in tables::SECTIONS {
        print!("{}", tables::render(section));
    }
    println!();
    println!("done. see EXPERIMENTS.md for the recorded snapshot and commentary.");
}
