//! Per-object memory: persistent data, the persistent heap, and the
//! cp-thread shadow routing (§2.1, §5.1).
//!
//! "A Clouds object contains user defined code, persistent data, a
//! volatile heap for temporary memory allocation, and a persistent heap
//! for allocating memory that becomes a part of the persistent data
//! structures in the object."
//!
//! [`ObjectMemory`] is the window an executing entry point gets onto the
//! object's address space. Reads and writes are demand-paged through the
//! node's DSM partition; for cp-threads every access is re-routed
//! through the thread's [`CpSession`] (locks + shadow pages). The
//! volatile heap is simply Rust values on the invocation's stack; the
//! *persistent* heap is a first-fit allocator whose free list itself
//! lives in the heap segment — so heap state enjoys exactly the same
//! persistence and consistency semantics as the data it allocates.

use crate::consistency_hooks::CpSession;
use crate::error::CloudsError;
use clouds_ra::{AddressSpace, SysName, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Virtual base address of the persistent data segment in an object's
/// space.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Virtual base address of the persistent heap segment.
pub const HEAP_BASE: u64 = 0x8000_0000;

const HEAP_MAGIC: u64 = 0x000C_10D5_4EA9;
/// Heap header: magic, bump pointer, free-list head.
const HEAP_HEADER: u64 = 24;
/// Minimum allocation granule (must hold a free-list node).
const HEAP_GRANULE: u64 = 16;

/// Which of the object's segments an accessor targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Data,
    Heap,
}

/// The executing entry point's view of its object's persistent memory.
pub struct ObjectMemory {
    space: AddressSpace,
    data_seg: SysName,
    data_len: u64,
    heap_seg: SysName,
    heap_len: u64,
    session: Option<Arc<CpSession>>,
}

impl std::fmt::Debug for ObjectMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectMemory")
            .field("data_seg", &self.data_seg)
            .field("cp", &self.session.is_some())
            .finish()
    }
}

impl ObjectMemory {
    /// Assemble the memory view. `space` must already map the data
    /// segment at [`DATA_BASE`] and the heap segment at [`HEAP_BASE`].
    pub(crate) fn new(
        space: AddressSpace,
        data_seg: SysName,
        data_len: u64,
        heap_seg: SysName,
        heap_len: u64,
        session: Option<Arc<CpSession>>,
    ) -> ObjectMemory {
        ObjectMemory {
            space,
            data_seg,
            data_len,
            heap_seg,
            heap_len,
            session,
        }
    }

    /// Size of the persistent data segment in bytes.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Size of the persistent heap segment in bytes.
    pub fn heap_len(&self) -> u64 {
        self.heap_len
    }

    fn region_parts(&self, region: Region) -> (SysName, u64, u64) {
        match region {
            Region::Data => (self.data_seg, DATA_BASE, self.data_len),
            Region::Heap => (self.heap_seg, HEAP_BASE, self.heap_len),
        }
    }

    fn check(&self, region: Region, offset: u64, len: u64) -> Result<(), CloudsError> {
        let (seg, _, region_len) = self.region_parts(region);
        if offset.saturating_add(len) > region_len {
            return Err(CloudsError::Ra(clouds_ra::RaError::OutOfRange {
                segment: seg,
                offset,
                len,
                segment_len: region_len,
            }));
        }
        Ok(())
    }

    /// Length in bytes of `page` within a segment of `seg_len` bytes.
    fn page_len(seg_len: u64, page: u32) -> usize {
        let start = page as u64 * PAGE_SIZE as u64;
        ((seg_len - start).min(PAGE_SIZE as u64)) as usize
    }

    fn read_region(&self, region: Region, offset: u64, len: usize) -> Result<Vec<u8>, CloudsError> {
        self.check(region, offset, len as u64)?;
        let (seg, base, seg_len) = self.region_parts(region);
        match &self.session {
            None => Ok(self.space.read(base + offset, len)?),
            Some(session) => {
                session.ensure_read(seg)?;
                let mut out = vec![0u8; len];
                let mut done = 0usize;
                while done < len {
                    let pos = offset as usize + done;
                    let page = (pos / PAGE_SIZE) as u32;
                    let in_page = pos % PAGE_SIZE;
                    let chunk = (PAGE_SIZE - in_page).min(len - done);
                    // Read-your-writes: shadows first, canonical second.
                    match session.shadow(seg, page) {
                        Some(shadow) => {
                            out[done..done + chunk]
                                .copy_from_slice(&shadow[in_page..in_page + chunk]);
                        }
                        None => {
                            let bytes = self
                                .space
                                .read(base + pos as u64, chunk)?;
                            out[done..done + chunk].copy_from_slice(&bytes);
                        }
                    }
                    done += chunk;
                    let _ = seg_len;
                }
                Ok(out)
            }
        }
    }

    fn write_region(&self, region: Region, offset: u64, data: &[u8]) -> Result<(), CloudsError> {
        self.check(region, offset, data.len() as u64)?;
        let (seg, base, seg_len) = self.region_parts(region);
        match &self.session {
            None => Ok(self.space.write(base + offset, data)?),
            Some(session) => {
                session.ensure_write(seg)?;
                let mut done = 0usize;
                while done < data.len() {
                    let pos = offset as usize + done;
                    let page = (pos / PAGE_SIZE) as u32;
                    let in_page = pos % PAGE_SIZE;
                    let chunk = (PAGE_SIZE - in_page).min(data.len() - done);
                    let page_len = Self::page_len(seg_len, page);
                    session.with_shadow(
                        seg,
                        page,
                        || {
                            // First touch: shadow starts from the
                            // canonical image.
                            Ok(self
                                .space
                                .read(base + page as u64 * PAGE_SIZE as u64, page_len)?)
                        },
                        |shadow| {
                            shadow[in_page..in_page + chunk]
                                .copy_from_slice(&data[done..done + chunk]);
                        },
                    )?;
                    done += chunk;
                }
                Ok(())
            }
        }
    }

    /// Read raw bytes from the persistent data segment.
    ///
    /// # Errors
    ///
    /// Out-of-range accesses, DSM failures, or consistency aborts.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Result<Vec<u8>, CloudsError> {
        self.read_region(Region::Data, offset, len)
    }

    /// Write raw bytes to the persistent data segment.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> Result<(), CloudsError> {
        self.write_region(Region::Data, offset, data)
    }

    /// Read a little-endian `u64` from persistent data.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn read_u64(&self, offset: u64) -> Result<u64, CloudsError> {
        let b = self.read_bytes(offset, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Write a little-endian `u64` to persistent data.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn write_u64(&self, offset: u64, value: u64) -> Result<(), CloudsError> {
        self.write_bytes(offset, &value.to_le_bytes())
    }

    /// Read a little-endian `i32` from persistent data.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn read_i32(&self, offset: u64) -> Result<i32, CloudsError> {
        let b = self.read_bytes(offset, 4)?;
        Ok(i32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Write a little-endian `i32` to persistent data.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn write_i32(&self, offset: u64, value: i32) -> Result<(), CloudsError> {
        self.write_bytes(offset, &value.to_le_bytes())
    }

    /// Store a serializable value at `offset`, length-prefixed. Returns
    /// the total bytes used.
    ///
    /// # Errors
    ///
    /// Encoding failures and the usual access errors.
    pub fn write_value<T: Serialize>(&self, offset: u64, value: &T) -> Result<u64, CloudsError> {
        let bytes = clouds_codec::to_bytes(value)?;
        self.write_bytes(offset, &(bytes.len() as u64).to_le_bytes())?;
        self.write_bytes(offset + 8, &bytes)?;
        Ok(8 + bytes.len() as u64)
    }

    /// Load a value previously stored with [`ObjectMemory::write_value`].
    ///
    /// # Errors
    ///
    /// Decoding failures and the usual access errors.
    pub fn read_value<T: Deserialize>(&self, offset: u64) -> Result<T, CloudsError> {
        let len = self.read_u64(offset)?;
        if len > self.data_len {
            return Err(CloudsError::BadArguments(format!(
                "stored value length {len} is implausible"
            )));
        }
        let bytes = self.read_bytes(offset + 8, len as usize)?;
        Ok(clouds_codec::from_bytes(&bytes)?)
    }

    // --- persistent heap -------------------------------------------------

    fn heap_read_u64(&self, offset: u64) -> Result<u64, CloudsError> {
        let b = self.read_region(Region::Heap, offset, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn heap_write_u64(&self, offset: u64, value: u64) -> Result<(), CloudsError> {
        self.write_region(Region::Heap, offset, &value.to_le_bytes())
    }

    fn heap_init_if_needed(&self) -> Result<(), CloudsError> {
        if self.heap_read_u64(0)? != HEAP_MAGIC {
            self.heap_write_u64(0, HEAP_MAGIC)?;
            self.heap_write_u64(8, HEAP_HEADER)?; // bump pointer
            self.heap_write_u64(16, 0)?; // free-list head
        }
        Ok(())
    }

    /// Allocate `len` bytes on the persistent heap, returning the heap
    /// offset. The block becomes part of the object's persistent state.
    ///
    /// # Errors
    ///
    /// [`CloudsError::Heap`] when the heap is exhausted.
    pub fn heap_alloc(&self, len: u64) -> Result<u64, CloudsError> {
        self.heap_init_if_needed()?;
        let need = len.max(HEAP_GRANULE).div_ceil(8) * 8;

        // First-fit scan of the free list.
        let mut prev: Option<u64> = None;
        let mut cursor = self.heap_read_u64(16)?;
        while cursor != 0 {
            let block_len = self.heap_read_u64(cursor)?;
            let next = self.heap_read_u64(cursor + 8)?;
            if block_len >= need {
                match prev {
                    Some(p) => self.heap_write_u64(p + 8, next)?,
                    None => self.heap_write_u64(16, next)?,
                }
                return Ok(cursor);
            }
            prev = Some(cursor);
            cursor = next;
        }

        // Bump allocation.
        let bump = self.heap_read_u64(8)?;
        if bump + need > self.heap_len {
            return Err(CloudsError::Heap(format!(
                "out of persistent heap: need {need} bytes, {} free",
                self.heap_len.saturating_sub(bump)
            )));
        }
        self.heap_write_u64(8, bump + need)?;
        Ok(bump)
    }

    /// Return a block to the heap. `len` must be the original request.
    ///
    /// # Errors
    ///
    /// Access errors; freeing garbage offsets corrupts the object's own
    /// heap only (as on any real heap).
    pub fn heap_free(&self, offset: u64, len: u64) -> Result<(), CloudsError> {
        self.heap_init_if_needed()?;
        let need = len.max(HEAP_GRANULE).div_ceil(8) * 8;
        let head = self.heap_read_u64(16)?;
        self.heap_write_u64(offset, need)?;
        self.heap_write_u64(offset + 8, head)?;
        self.heap_write_u64(16, offset)
    }

    /// Read raw bytes from a heap block.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn heap_read(&self, offset: u64, len: usize) -> Result<Vec<u8>, CloudsError> {
        self.read_region(Region::Heap, offset, len)
    }

    /// Write raw bytes into a heap block.
    ///
    /// # Errors
    ///
    /// As for [`ObjectMemory::read_bytes`].
    pub fn heap_write(&self, offset: u64, data: &[u8]) -> Result<(), CloudsError> {
        self.write_region(Region::Heap, offset, data)
    }

    /// Flush dirty pages through to the data servers (s-thread
    /// durability point).
    ///
    /// # Errors
    ///
    /// Propagates write-back failures.
    pub fn flush(&self) -> Result<(), CloudsError> {
        Ok(self.space.flush()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency_hooks::{CpSession, LockHooks};
    use clouds_ra::{LocalPartition, PageCache, Partition, SegmentStore};
    use clouds_simnet::{CostModel, VirtualClock};

    struct NopHooks;
    impl LockHooks for NopHooks {
        fn lock_read(&self, _o: u64, _s: SysName) -> Result<(), CloudsError> {
            Ok(())
        }
        fn lock_write(&self, _o: u64, _s: SysName) -> Result<(), CloudsError> {
            Ok(())
        }
    }

    fn memory(session: Option<Arc<CpSession>>) -> (ObjectMemory, SegmentStore) {
        let store = SegmentStore::new();
        let data = SysName::from_parts(1, 1);
        let heap = SysName::from_parts(1, 2);
        let data_len = 2 * PAGE_SIZE as u64;
        let heap_len = 4 * PAGE_SIZE as u64;
        store.create(data, data_len).unwrap();
        store.create(heap, heap_len).unwrap();
        let part: Arc<dyn Partition> = Arc::new(LocalPartition::new(
            store.clone(),
            Arc::new(VirtualClock::new()),
            CostModel::zero(),
        ));
        let cache = Arc::new(PageCache::new(64));
        let mut space = AddressSpace::new(cache, part);
        space.map(DATA_BASE, data, 0, data_len, true).unwrap();
        space.map(HEAP_BASE, heap, 0, heap_len, true).unwrap();
        (
            ObjectMemory::new(space, data, data_len, heap, heap_len, session),
            store,
        )
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let (m, _store) = memory(None);
        m.write_u64(0, 99).unwrap();
        m.write_i32(8, -5).unwrap();
        assert_eq!(m.read_u64(0).unwrap(), 99);
        assert_eq!(m.read_i32(8).unwrap(), -5);
    }

    #[test]
    fn value_storage_roundtrip() {
        let (m, _store) = memory(None);
        let v = vec!["a".to_string(), "bc".to_string()];
        let used = m.write_value(100, &v).unwrap();
        assert!(used > 8);
        let back: Vec<String> = m.read_value(100).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn out_of_range_rejected() {
        let (m, _store) = memory(None);
        assert!(m.read_bytes(2 * PAGE_SIZE as u64 - 4, 8).is_err());
        assert!(m.write_u64(2 * PAGE_SIZE as u64, 1).is_err());
    }

    #[test]
    fn heap_alloc_free_reuse() {
        let (m, _store) = memory(None);
        let a = m.heap_alloc(100).unwrap();
        let b = m.heap_alloc(100).unwrap();
        assert_ne!(a, b);
        m.heap_write(a, b"heap data").unwrap();
        assert_eq!(m.heap_read(a, 9).unwrap(), b"heap data");
        m.heap_free(a, 100).unwrap();
        // First-fit reuses the freed block.
        let c = m.heap_alloc(64).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn heap_exhaustion_is_reported() {
        let (m, _store) = memory(None);
        let mut allocated = 0u64;
        loop {
            match m.heap_alloc(PAGE_SIZE as u64) {
                Ok(_) => allocated += 1,
                Err(CloudsError::Heap(_)) => break,
                Err(other) => panic!("unexpected error {other}"),
            }
            assert!(allocated < 10, "heap should exhaust after <4 pages");
        }
        assert!(allocated >= 3);
    }

    #[test]
    fn cp_session_writes_are_shadowed_not_canonical() {
        let hooks: Arc<dyn LockHooks> = Arc::new(NopHooks);
        let session = CpSession::new(1, hooks);
        let (m, store) = memory(Some(Arc::clone(&session)));
        m.write_u64(0, 777).unwrap();
        // Read-your-writes through the shadow.
        assert_eq!(m.read_u64(0).unwrap(), 777);
        // The canonical store is untouched.
        let raw = store
            .get(SysName::from_parts(1, 1))
            .unwrap()
            .read()
            .read(0, 8)
            .unwrap();
        assert_eq!(u64::from_le_bytes(raw.try_into().unwrap()), 0);
        assert_eq!(session.shadow_count(), 1);
        assert_eq!(session.write_set().len(), 1);
    }

    #[test]
    fn cp_session_reads_lock_and_pass_through() {
        let hooks: Arc<dyn LockHooks> = Arc::new(NopHooks);
        let session = CpSession::new(1, hooks);
        // Seed canonical data with a non-cp writer first.
        let (plain, store) = memory(None);
        plain.write_u64(16, 31337).unwrap();
        plain.flush().unwrap();
        drop(plain);
        let data = SysName::from_parts(1, 1);
        let heap = SysName::from_parts(1, 2);
        let part: Arc<dyn Partition> = Arc::new(LocalPartition::new(
            store,
            Arc::new(VirtualClock::new()),
            CostModel::zero(),
        ));
        let cache = Arc::new(PageCache::new(64));
        let mut space = AddressSpace::new(cache, part);
        space
            .map(DATA_BASE, data, 0, 2 * PAGE_SIZE as u64, true)
            .unwrap();
        space
            .map(HEAP_BASE, heap, 0, 4 * PAGE_SIZE as u64, true)
            .unwrap();
        let m = ObjectMemory::new(
            space,
            data,
            2 * PAGE_SIZE as u64,
            heap,
            4 * PAGE_SIZE as u64,
            Some(Arc::clone(&session)),
        );
        assert_eq!(m.read_u64(16).unwrap(), 31337);
        assert_eq!(session.read_set(), vec![data]);
        assert_eq!(session.shadow_count(), 0);
    }

    #[test]
    fn cp_heap_allocation_is_transactional() {
        let hooks: Arc<dyn LockHooks> = Arc::new(NopHooks);
        let session = CpSession::new(1, hooks);
        let (m, store) = memory(Some(Arc::clone(&session)));
        let a = m.heap_alloc(64).unwrap();
        m.heap_write(a, b"txn").unwrap();
        assert_eq!(m.heap_read(a, 3).unwrap(), b"txn");
        // Nothing reached the canonical heap segment: even the heap
        // header is still zero.
        let raw = store
            .get(SysName::from_parts(1, 2))
            .unwrap()
            .read()
            .read(0, 8)
            .unwrap();
        assert_eq!(raw, vec![0u8; 8]);
    }

    #[test]
    fn write_spanning_pages_under_session() {
        let hooks: Arc<dyn LockHooks> = Arc::new(NopHooks);
        let session = CpSession::new(1, hooks);
        let (m, _store) = memory(Some(session.clone()));
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let off = PAGE_SIZE as u64 - 150;
        m.write_bytes(off, &data).unwrap();
        assert_eq!(m.read_bytes(off, 300).unwrap(), data);
        assert_eq!(session.shadow_count(), 2);
    }
}
