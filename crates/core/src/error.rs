//! The Clouds operating-system error type.

use clouds_ra::RaError;
use std::fmt;

/// Errors surfaced by the Clouds OS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CloudsError {
    /// A kernel / storage / DSM failure.
    Ra(RaError),
    /// An unknown class name.
    NoSuchClass(String),
    /// An unknown entry point on a class.
    NoSuchEntryPoint(String),
    /// An unknown object (bad sysname or destroyed object).
    NoSuchObject(clouds_ra::SysName),
    /// A name-service failure.
    Naming(String),
    /// Arguments or results failed to encode/decode.
    BadArguments(String),
    /// A transport failure reaching another node.
    Transport(String),
    /// The invoked entry point raised an application error.
    Application(String),
    /// A consistency violation: lock acquisition timed out after all
    /// retries (cp-threads), or commit failed.
    ConsistencyAbort(String),
    /// A gcp-thread's commit is in doubt: the outcome registry gave no
    /// verdict on this transaction, so neither phase 2 was sent and its
    /// participants keep its intents and locks.
    InDoubt(u64),
    /// The object's persistent-heap is exhausted or corrupt.
    Heap(String),
    /// The thread executing the invocation panicked or disappeared.
    ThreadFailed(String),
}

impl fmt::Display for CloudsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudsError::Ra(e) => write!(f, "kernel error: {e}"),
            CloudsError::NoSuchClass(c) => write!(f, "no class named {c:?}"),
            CloudsError::NoSuchEntryPoint(e) => write!(f, "no entry point named {e:?}"),
            CloudsError::NoSuchObject(s) => write!(f, "no object {s}"),
            CloudsError::Naming(m) => write!(f, "naming: {m}"),
            CloudsError::BadArguments(m) => write!(f, "bad arguments: {m}"),
            CloudsError::Transport(m) => write!(f, "transport: {m}"),
            CloudsError::Application(m) => write!(f, "application error: {m}"),
            CloudsError::ConsistencyAbort(m) => write!(f, "consistency abort: {m}"),
            CloudsError::InDoubt(txn) => {
                write!(f, "txn {txn} in doubt: no verdict from the registry")
            }
            CloudsError::Heap(m) => write!(f, "persistent heap: {m}"),
            CloudsError::ThreadFailed(m) => write!(f, "thread failed: {m}"),
        }
    }
}

impl std::error::Error for CloudsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CloudsError::Ra(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RaError> for CloudsError {
    fn from(e: RaError) -> Self {
        CloudsError::Ra(e)
    }
}

impl From<clouds_naming::NameError> for CloudsError {
    fn from(e: clouds_naming::NameError) -> Self {
        CloudsError::Naming(e.to_string())
    }
}

impl From<clouds_ratp::CallError> for CloudsError {
    fn from(e: clouds_ratp::CallError) -> Self {
        CloudsError::Transport(e.to_string())
    }
}

impl From<clouds_codec::Error> for CloudsError {
    fn from(e: clouds_codec::Error) -> Self {
        CloudsError::BadArguments(e.to_string())
    }
}
