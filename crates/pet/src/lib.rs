//! `clouds-pet` — **Parallel Execution Threads** (§5.2.2).
//!
//! > "The approach uses a mechanism called parallel execution threads or
//! > PET which tries to provide uninterrupted processing in the face of
//! > pre-existing (static) failures, as well as system and software
//! > failures that occur while a resilient computation is in progress
//! > (dynamic failures)."
//!
//! The three requirements the paper lists map directly onto this crate:
//!
//! * **Replication of objects** — [`ReplicatedObject::create`] makes `r`
//!   instances of a class, each placed wholly on a *different* data
//!   server (independent failure modes).
//! * **Replication of computation** — [`resilient_invoke`] starts `n`
//!   parallel gcp-threads, each on a different compute server, each
//!   invoking a *different replica* ("the replica selection algorithm
//!   tries to ensure that separate threads execute at different nodes to
//!   minimize the number of threads affected by a failure"). The PETs
//!   "run independently as if there is no replication": their updates
//!   stay in private shadow pages.
//! * **An atomic commit mechanism** — when one or more PETs complete,
//!   one is chosen as the **terminating thread**; its updates are
//!   propagated to a quorum of replicas through the data servers' commit
//!   participants. "If there is a failure in committing this thread,
//!   another completed thread is chosen. If the commit process succeeds,
//!   all the remaining threads are aborted."
//!
//! "This method allows a tradeoff in the amount of resources used (i.e.
//! the number of parallel threads started for each computation) and the
//! desired degree of resilience" — exactly what experiment E6 measures.
//!
//! # Examples
//!
//! ```
//! use clouds::prelude::*;
//! use clouds_consistency::ConsistencyRuntime;
//! use clouds_pet::{resilient_invoke, PetOptions, ReplicatedObject};
//!
//! struct Tally;
//! impl ObjectCode for Tally {
//!     fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
//!         match entry {
//!             "add" => {
//!                 let n: u64 = decode_args(args)?;
//!                 let v = ctx.persistent().read_u64(0)? + n;
//!                 ctx.persistent().write_u64(0, v)?;
//!                 encode_result(&v)
//!             }
//!             "get" => encode_result(&ctx.persistent().read_u64(0)?),
//!             other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), CloudsError> {
//! let cluster = Cluster::builder()
//!     .compute_servers(3)
//!     .data_servers(3)
//!     .cost_model(clouds_simnet::CostModel::zero())
//!     .build()?;
//! cluster.register_class("tally", Tally)?;
//! let _runtime = ConsistencyRuntime::install(&cluster);
//!
//! // Triplicated object, 2 parallel execution threads, majority quorum.
//! let robj = ReplicatedObject::create(cluster.compute(0), "tally", 3)?;
//! let outcome = resilient_invoke(
//!     cluster.computes(),
//!     &robj,
//!     "add",
//!     &clouds::encode_args(&7u64)?,
//!     &PetOptions { pets: 2, ..PetOptions::default() },
//! )?;
//! let total: u64 = clouds::decode_args(&outcome.result)?;
//! assert_eq!(total, 7);
//! assert!(outcome.committed_replicas.len() >= 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod replica;
mod resilient;

pub use replica::{ReplicaInfo, ReplicatedObject};
pub use resilient::{resilient_invoke, read_any, PetOptions, PetOutcome};
