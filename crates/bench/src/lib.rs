//! `clouds-bench` — the experiment runners that regenerate every
//! measured claim of the paper's evaluation (§4.3) and research section
//! (§5) in **virtual time** (the calibrated Sun-3 cost model). See
//! DESIGN.md's per-experiment index (E1–E13) and EXPERIMENTS.md for
//! commentary.
//!
//! `cargo run -p clouds-bench --release --bin paper_tables` prints the
//! paper-vs-measured [`tables`], the open-loop load sweep ([`load`]) as
//! E13 among them. Its committed output is the [`golden`] that
//! `cargo test -p clouds-bench --release --test goldens` checks.
//!
//! This crate never reads the wall clock — the root `clippy.toml` bans
//! `Instant::now`, `SystemTime::now` and `thread::sleep` in every crate,
//! and nothing here carries an exception. What the implementation costs
//! on the host is measured by the repo benchmark (`benchmark/`), and
//! only there.

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod baselines;
pub mod causal_exp;
pub mod consistency_exp;
pub mod golden;
pub mod invocation_exp;
pub mod kernel_exp;
pub mod load;
pub mod network_exp;
pub mod paging_exp;
pub mod pet_exp;
pub mod recovery_exp;
pub mod report;
pub mod sort_exp;
pub mod tables;

pub use report::{render_table, Row};
