//! `clouds-consistency` — consistency-preserving threads (§5.2.1).
//!
//! > "The Clouds 'consistency-preservation' mechanisms present one
//! > uniform object-thread abstraction that allows programmers to
//! > specify a wide range of atomicity semantics. This scheme performs
//! > automatic locking and recovery of persistent data."
//!
//! Three kinds of threads, selected per operation by its static label
//! ([`clouds::OperationLabel`]):
//!
//! * **s-threads** — no system locking or recovery. "They can freely
//!   interleave with other s-threads and cp-threads", which is exactly
//!   as dangerous as it sounds (see the `anomalies` tests).
//! * **lcp-threads** — automatic segment-level locking + shadow-page
//!   recovery, committed atomically *per data server* ("local
//!   (lightweight) consistency").
//! * **gcp-threads** — the same, plus a durable **two-phase commit**
//!   across every data server the computation touched ("global
//!   (heavyweight) consistency").
//!
//! The mechanism half (read/write sets, shadow pages, lock callbacks)
//! lives in `clouds::consistency_hooks`, and the 2PC participant in
//! every data server's `clouds_dsm::DsmServer`. This crate supplies the
//! policy:
//!
//! * [`RemoteLockHooks`] — acquires segment locks at each segment's home
//!   data server, with a deadline (lock-wait timeout = the deadlock
//!   resolution of the paper's scheme: abort and retry).
//! * [`ConsistencyRuntime`] — the user-facing API and the 2PC
//!   coordinator: run any invocation as an s-, lcp- or gcp-thread, with
//!   automatic retry on lock-timeout aborts. A gcp commit's verdict is
//!   decided once, at the outcome registry (the first data server),
//!   before phase 2, so a participant that crashes in between learns it.
//!
//! # Examples
//!
//! ```
//! use clouds::prelude::*;
//! use clouds_consistency::ConsistencyRuntime;
//!
//! struct Account;
//! impl ObjectCode for Account {
//!     fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
//!         match entry {
//!             "deposit" => {
//!                 let amount: u64 = decode_args(args)?;
//!                 let v = ctx.persistent().read_u64(0)? + amount;
//!                 ctx.persistent().write_u64(0, v)?;
//!                 encode_result(&v)
//!             }
//!             "balance" => encode_result(&ctx.persistent().read_u64(0)?),
//!             other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
//!         }
//!     }
//!     // Deposits are global consistency preserving.
//!     fn label(&self, entry: &str) -> OperationLabel {
//!         match entry {
//!             "deposit" => OperationLabel::Gcp,
//!             _ => OperationLabel::S,
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), CloudsError> {
//! let cluster = Cluster::builder()
//!     .compute_servers(1)
//!     .data_servers(2)
//!     .cost_model(clouds_simnet::CostModel::zero())
//!     .build()?;
//! cluster.register_class("account", Account)?;
//! let runtime = ConsistencyRuntime::install(&cluster);
//!
//! let acct = cluster.create_object("account", "Acct")?;
//! let cs = cluster.compute(0);
//! // Runs as a gcp-thread because of the label.
//! let balance: u64 = clouds::decode_args(
//!     &runtime.invoke_labeled(cs, acct, "deposit", &clouds::encode_args(&50u64)?)?,
//! )?;
//! assert_eq!(balance, 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod hooks;
mod runtime;

pub use hooks::RemoteLockHooks;
pub use runtime::{ConsistencyRuntime, CpOptions, CpStats};
