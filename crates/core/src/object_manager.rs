//! The user object manager system object (§4.2).
//!
//! "User-level objects are implemented through a system object called
//! the object manager. The object manager creates and deletes objects
//! and provides the object invocation facility."
//!
//! Activation builds the object's virtual space (header + data + heap
//! segments demand-paged through the node's partition) and caches it;
//! a *cold* activation additionally touches the object's code pages —
//! in the original system the code segment was demand-paged from the
//! data server like everything else, and that paging dominates the
//! paper's 103 ms worst-case null invocation (§4.3).

use crate::class::Class;
use crate::class::ClassRegistry;
use crate::consistency_hooks::CpSession;
use crate::error::CloudsError;
use crate::memory::{ObjectMemory, DATA_BASE, HEAP_BASE};
use crate::object::{ObjectMeta, OBJECT_MAGIC};
use clouds_dsm::DsmClientPartition;
use clouds_ra::{AddressSpace, Partition, RaKernel, SysName, WriteBackItem, PAGE_SIZE};
use clouds_simnet::{FastMap, NodeId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Number of pages in an object's header+code segment beyond the header
/// page itself. Models the class code that had to be demand-paged on a
/// cold activation.
pub const CODE_PAGES: u32 = 8;

/// A cached activation: everything needed to run invocations on an
/// object without touching the data server again.
#[derive(Clone)]
pub(crate) struct Activation {
    pub meta: ObjectMeta,
    pub class: Class,
}

/// Per-compute-server object manager.
pub struct ObjectManager {
    kernel: Arc<RaKernel>,
    /// The node's DSM client partition: compute servers are diskless,
    /// so every object segment lives on a data server.
    dsm: Arc<DsmClientPartition>,
    registry: ClassRegistry,
    activations: Mutex<FastMap<SysName, Activation>>,
}

impl fmt::Debug for ObjectManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectManager")
            .field("node", &self.kernel.node())
            .field("activations", &self.activations.lock().len())
            .finish()
    }
}

impl ObjectManager {
    /// Create the manager over the node's DSM client partition.
    pub fn new_dsm(
        kernel: Arc<RaKernel>,
        dsm: Arc<DsmClientPartition>,
        registry: ClassRegistry,
    ) -> ObjectManager {
        ObjectManager {
            kernel,
            dsm,
            registry,
            activations: Mutex::new(FastMap::default()),
        }
    }

    /// The class registry in use.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Create a new object of `class_name`. All three segments are
    /// co-located; `placement` selects the data server (defaults to the
    /// partition's hash placement for the header's sysname).
    ///
    /// The constructor entry runs before the sysname is returned.
    ///
    /// # Errors
    ///
    /// Unknown class, storage failures, or constructor errors.
    pub fn create_object(
        &self,
        class_name: &str,
        placement: Option<NodeId>,
        run_construct: impl FnOnce(&ObjectMeta, &Class) -> Result<(), CloudsError>,
    ) -> Result<ObjectMeta, CloudsError> {
        let class = self.registry.get(class_name)?;
        let sysname = self.kernel.new_sysname();
        let data_seg = self.kernel.new_sysname();
        let heap_seg = self.kernel.new_sysname();
        let data_len = class.code().data_segment_len().max(8);
        let heap_len = class.code().heap_segment_len();
        let header_len = (1 + CODE_PAGES) as u64 * PAGE_SIZE as u64;

        let create_at = |seg: SysName, len: u64| -> Result<(), CloudsError> {
            match placement {
                Some(home) => Ok(self.dsm.create_segment_at(seg, len, home)?),
                None => Ok(self.dsm.create_segment(seg, len)?),
            }
        };
        create_at(sysname, header_len)?;
        create_at(data_seg, data_len)?;
        if heap_len > 0 {
            create_at(heap_seg, heap_len)?;
        }

        let meta = ObjectMeta {
            magic: OBJECT_MAGIC,
            sysname,
            class_name: class_name.to_string(),
            data_seg,
            data_len,
            heap_seg,
            heap_len,
        };
        let header = WriteBackItem {
            seg: sysname,
            page: 0,
            data: meta.to_page()?,
        };
        for written in self.dsm.write_back_batch(&[header]) {
            written?;
        }
        run_construct(&meta, &class)?;
        Ok(meta)
    }

    /// Destroy an object and all its segments.
    ///
    /// # Errors
    ///
    /// Unknown object or storage failures.
    pub fn destroy_object(&self, sysname: SysName) -> Result<(), CloudsError> {
        let meta = ObjectMeta::load(&*self.dsm, sysname)?;
        self.activations.lock().remove(&sysname);
        self.dsm.destroy_segment(meta.data_seg)?;
        if meta.heap_len > 0 {
            self.dsm.destroy_segment(meta.heap_seg)?;
        }
        self.dsm.destroy_segment(sysname)?;
        Ok(())
    }

    /// Activate an object: load its header (and, cold, its code pages),
    /// resolve the class, and cache the result.
    ///
    /// # Errors
    ///
    /// [`CloudsError::NoSuchObject`] / [`CloudsError::NoSuchClass`] /
    /// storage failures.
    pub(crate) fn activate(&self, sysname: SysName) -> Result<Activation, CloudsError> {
        if let Some(act) = self.activations.lock().get(&sysname) {
            return Ok(act.clone());
        }
        // Cold path: page in the header…
        let meta = ObjectMeta::load(&*self.dsm, sysname)?;
        // …and the code pages (demand paging the class code, which
        // dominates the cold invocation cost in §4.3).
        let header_pages = (self.dsm.segment_len(sysname)? as usize).div_ceil(PAGE_SIZE);
        for page in 1..header_pages as u32 {
            let _ = self.dsm.fetch_page_transient(sysname, page)?;
        }
        let class = self.registry.get(&meta.class_name)?;
        let act = Activation { meta, class };
        self.activations.lock().insert(sysname, act.clone());
        Ok(act)
    }

    /// Drop an activation (e.g. for cold-path experiments).
    pub fn deactivate(&self, sysname: SysName) {
        self.activations.lock().remove(&sysname);
    }

    /// Drop all activations (crash simulation).
    pub fn deactivate_all(&self) {
        self.activations.lock().clear();
    }

    /// Build the memory view for one invocation of an activated object.
    pub(crate) fn build_memory(
        &self,
        act: &Activation,
        session: Option<Arc<CpSession>>,
    ) -> Result<ObjectMemory, CloudsError> {
        let mut space = AddressSpace::new(
            Arc::clone(self.kernel.page_cache()),
            Arc::clone(&self.dsm) as Arc<dyn Partition>,
        );
        space.map(DATA_BASE, act.meta.data_seg, 0, act.meta.data_len, true)?;
        if act.meta.heap_len > 0 {
            space.map(HEAP_BASE, act.meta.heap_seg, 0, act.meta.heap_len, true)?;
        }
        Ok(ObjectMemory::new(
            space,
            act.meta.data_seg,
            act.meta.data_len,
            act.meta.heap_seg,
            act.meta.heap_len,
            session,
        ))
    }

    /// The kernel this manager belongs to.
    pub fn kernel(&self) -> &Arc<RaKernel> {
        &self.kernel
    }

    /// The DSM client partition used for all object storage.
    pub fn partition(&self) -> &Arc<DsmClientPartition> {
        &self.dsm
    }
}
