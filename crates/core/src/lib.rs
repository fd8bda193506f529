//! `clouds` — the Clouds distributed operating system.
//!
//! This crate assembles the substrates (`clouds-ra`, `clouds-dsm`,
//! `clouds-ratp`, `clouds-naming`) into the system the paper describes:
//! an **object–thread** operating system over a set of compute servers,
//! data servers and user workstations (§1.2, §3, Figure 3).
//!
//! * **Objects** ([`object`], [`class`]) — "a Clouds object is a
//!   persistent virtual address space": a header (meta) segment, a
//!   persistent data segment, and a persistent heap segment, all stored
//!   on data servers and demand-paged everywhere. Objects are *passive*;
//!   their code is a [`class::ObjectCode`] registered in the node's
//!   [`class::ClassRegistry`] (standing in for the CC++ / Distributed
//!   Eiffel compiler output).
//! * **Threads** ([`thread`]) — "the only form of user activity": a
//!   thread is created at a workstation, executes entry points in
//!   objects, and traverses objects (and machines) through nested
//!   invocations. Arguments and results are *values* carried by
//!   `clouds-codec`; addresses never cross an object boundary.
//! * **System objects** (§4.2) — the object manager
//!   ([`object_manager`]), thread manager (inside [`node`]), user I/O
//!   manager ([`io`]), DSM client/server and naming, each installed as a
//!   RaTP service on the appropriate machines.
//! * **The cluster** ([`cluster`]) — a builder wiring any number of
//!   compute servers, data servers and workstations onto one simulated
//!   Ethernet.
//!
//! # Quick start
//!
//! The paper's rectangle example (§2.4), end to end:
//!
//! ```
//! use clouds::prelude::*;
//! use serde::{Serialize, Deserialize};
//!
//! struct Rectangle;
//!
//! impl ObjectCode for Rectangle {
//!     fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
//!         match entry {
//!             "size" => {
//!                 let (x, y): (i32, i32) = decode_args(args)?;
//!                 ctx.persistent().write_i32(0, x)?;
//!                 ctx.persistent().write_i32(4, y)?;
//!                 encode_result(&())
//!             }
//!             "area" => {
//!                 let x = ctx.persistent().read_i32(0)?;
//!                 let y = ctx.persistent().read_i32(4)?;
//!                 encode_result(&(x * y))
//!             }
//!             other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), CloudsError> {
//! let cluster = Cluster::builder()
//!     .compute_servers(1)
//!     .data_servers(1)
//!     .workstations(1)
//!     .build()?;
//! cluster.register_class("rectangle", Rectangle)?;
//!
//! let ws = cluster.workstation(0);
//! ws.create_object("rectangle", "Rect01")?;
//! ws.run_wait("Rect01", "size", &(5i32, 10i32))?;
//! let area: i32 = ws.run_wait_decode("Rect01", "area", &())?;
//! assert_eq!(area, 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

pub mod active;
pub mod class;
pub mod cluster;
pub mod consistency_hooks;
mod error;
pub mod failover;
pub mod invocation;
pub mod io;
pub mod memory;
pub mod node;
pub mod object;
pub mod object_manager;
pub mod shell;
pub mod thread;

pub use class::{ClassRegistry, EntryResult, ObjectCode, OperationLabel};
pub use cluster::{Cluster, ClusterBuilder};
pub use error::CloudsError;
pub use failover::FailoverConfig;
pub use invocation::Invocation;
pub use node::{ComputeServer, DataServer, Workstation};
pub use shell::Shell;
pub use active::ActiveHandle;
pub use thread::{ThreadHandle, ThreadId};

// The naming port is defined by the name service and by the DSM's port
// table, two crates that cannot see each other; this one sees both.
const _: () = assert!(clouds_naming::NAMING_PORT == clouds_dsm::ports::NAMING);

/// Decode entry-point arguments from their wire form.
///
/// # Errors
///
/// [`CloudsError::BadArguments`] when the bytes do not decode as `T`.
pub fn decode_args<T: serde::Deserialize>(args: &[u8]) -> Result<T, CloudsError> {
    clouds_codec::from_bytes(args).map_err(|e| CloudsError::BadArguments(e.to_string()))
}

/// Encode a value as entry-point arguments.
///
/// # Errors
///
/// [`CloudsError::BadArguments`] when the value cannot be encoded.
pub fn encode_args<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, CloudsError> {
    clouds_codec::to_bytes(value).map_err(|e| CloudsError::BadArguments(e.to_string()))
}

/// Encode an entry point's result value.
///
/// # Errors
///
/// [`CloudsError::BadArguments`] when the value cannot be encoded.
pub fn encode_result<T: serde::Serialize>(value: &T) -> EntryResult {
    clouds_codec::to_bytes(value).map_err(|e| CloudsError::BadArguments(e.to_string()))
}

/// Everything an application needs to write and run Clouds objects.
pub mod prelude {
    pub use crate::class::{EntryResult, ObjectCode, OperationLabel};
    pub use crate::cluster::Cluster;
    pub use crate::error::CloudsError;
    pub use crate::invocation::Invocation;
    pub use crate::{decode_args, encode_args, encode_result};
    pub use clouds_ra::SysName;
}
