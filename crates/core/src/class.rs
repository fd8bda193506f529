//! Classes: the templates Clouds objects are instantiated from (§2.4).
//!
//! "To the programmer, there are two kinds of Clouds objects: classes
//! and instances. A class is a template that is used to generate
//! instances … a class is a compiled program module."
//!
//! In the original system, classes were produced by the CC++ or
//! Distributed Eiffel compilers and loaded onto a data server. In this
//! reproduction the "compiled program module" is a Rust value
//! implementing [`ObjectCode`], registered under the class name in every
//! node's [`ClassRegistry`] at cluster boot (the instance *state* still
//! lives entirely in data-server segments — only code is distributed
//! this way, mirroring how every Sun-3 ran the same kernel image).

use crate::error::CloudsError;
use crate::invocation::Invocation;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Result of an entry-point execution: codec-encoded result bytes.
pub type EntryResult = Result<Vec<u8>, CloudsError>;

/// The static consistency label of an operation (§5.2.1).
///
/// "Each operation has a static label that declares the consistency
/// needs of the operation. The labels are S (for standard), LCP (for
/// local consistency preserving) and GCP (for global consistency
/// preserving)."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OperationLabel {
    /// Standard: no system locking or recovery; free interleaving.
    #[default]
    S,
    /// Local consistency: automatic locking + recovery, committed
    /// per data server without cross-server atomicity (lightweight).
    Lcp,
    /// Global consistency: automatic locking + recovery with a full
    /// two-phase commit across all involved data servers (heavyweight).
    Gcp,
}

/// The code of a Clouds class.
///
/// `dispatch` is the object's set of entry points; `construct` runs once
/// when an instance is created (the paper's constructor entry, e.g.
/// `entry rectangle`). Implementations must be stateless — all instance
/// state lives in the object's persistent segments, reached through the
/// [`Invocation`] context. See the crate-level example.
pub trait ObjectCode: Send + Sync + 'static {
    /// Initialize a fresh instance's persistent state.
    ///
    /// # Errors
    ///
    /// Any [`CloudsError`]; creation fails and the object is not
    /// registered.
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        let _ = ctx;
        Ok(())
    }

    /// Execute the entry point named `entry` with encoded `args`.
    ///
    /// # Errors
    ///
    /// [`CloudsError::NoSuchEntryPoint`] for unknown names; anything
    /// else the entry point raises.
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult;

    /// The consistency label of an entry point (default: `S`).
    fn label(&self, entry: &str) -> OperationLabel {
        let _ = entry;
        OperationLabel::S
    }

    /// Size in bytes of the instance's persistent data segment.
    fn data_segment_len(&self) -> u64 {
        clouds_ra::PAGE_SIZE as u64
    }

    /// Size in bytes of the instance's persistent heap segment.
    fn heap_segment_len(&self) -> u64 {
        4 * clouds_ra::PAGE_SIZE as u64
    }
}

/// A registered class: name plus code.
#[derive(Clone)]
pub struct Class {
    name: String,
    code: Arc<dyn ObjectCode>,
}

impl fmt::Debug for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Class").field("name", &self.name).finish()
    }
}

impl Class {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class code.
    pub fn code(&self) -> &Arc<dyn ObjectCode> {
        &self.code
    }
}

/// Per-node table of loaded classes.
///
/// Cheap to clone; clones share the same table.
#[derive(Clone, Default)]
pub struct ClassRegistry {
    classes: Arc<RwLock<BTreeMap<String, Class>>>,
}

impl fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassRegistry")
            .field("classes", &self.classes.read().len())
            .finish()
    }
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Load (or replace) a class.
    pub fn register<C: ObjectCode>(&self, name: &str, code: C) {
        self.register_arc(name, Arc::new(code));
    }

    /// Load a class from an existing `Arc` (shared across nodes).
    pub fn register_arc(&self, name: &str, code: Arc<dyn ObjectCode>) {
        self.classes.write().insert(
            name.to_string(),
            Class {
                name: name.to_string(),
                code,
            },
        );
    }

    /// Look up a class.
    ///
    /// # Errors
    ///
    /// [`CloudsError::NoSuchClass`] if absent.
    pub fn get(&self, name: &str) -> Result<Class, CloudsError> {
        self.classes
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CloudsError::NoSuchClass(name.to_string()))
    }

    /// Names of all loaded classes, sorted.
    pub fn names(&self) -> Vec<String> {
        self.classes.read().keys().cloned().collect()
    }

    /// Number of loaded classes.
    pub fn len(&self) -> usize {
        self.classes.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl ObjectCode for Nop {
        fn dispatch(&self, entry: &str, _ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
            Err(CloudsError::NoSuchEntryPoint(entry.to_string()))
        }
    }

    #[test]
    fn register_and_get() {
        let reg = ClassRegistry::new();
        assert!(reg.is_empty());
        reg.register("nop", Nop);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("nop").unwrap().name(), "nop");
        assert!(matches!(
            reg.get("ghost"),
            Err(CloudsError::NoSuchClass(_))
        ));
    }

    #[test]
    fn clones_share_table() {
        let reg = ClassRegistry::new();
        let alias = reg.clone();
        reg.register("nop", Nop);
        assert!(alias.get("nop").is_ok());
    }

    #[test]
    fn names_are_sorted() {
        let reg = ClassRegistry::new();
        reg.register("zeta", Nop);
        reg.register("alpha", Nop);
        assert_eq!(reg.names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn default_segment_sizes() {
        assert_eq!(Nop.data_segment_len(), clouds_ra::PAGE_SIZE as u64);
        assert_eq!(Nop.heap_segment_len(), 4 * clouds_ra::PAGE_SIZE as u64);
    }
}
