//! Virtual spaces and demand-paged address spaces (§4.1).
//!
//! "A virtual space is the abstraction of an addressing domain, and is a
//! monotonically increasing range of virtual addresses with possible
//! holes in the range. Each contiguous range of virtual addresses is
//! mapped to (a portion of) a segment."
//!
//! [`VirtualSpace`] is the pure mapping structure; [`AddressSpace`]
//! combines it with the node's [`PageCache`] and [`Partition`] to give
//! the faulting read/write path every Clouds object invocation uses.

use crate::error::RaError;
use crate::partition::{AccessMode, PageCache, Partition};
use crate::segment::PAGE_SIZE;
use crate::sysname::SysName;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One contiguous virtual range backed by (a portion of) a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// First virtual address of the range.
    pub base: u64,
    /// Length of the range in bytes.
    pub len: u64,
    /// Backing segment.
    pub segment: SysName,
    /// Offset within the segment where the range begins.
    pub seg_offset: u64,
    /// Whether writes are permitted.
    pub writable: bool,
}

impl Mapping {
    fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// An addressing domain: ordered, non-overlapping mappings with holes.
#[derive(Debug, Clone, Default)]
pub struct VirtualSpace {
    ranges: BTreeMap<u64, Mapping>,
}

impl VirtualSpace {
    /// An empty space.
    pub fn new() -> VirtualSpace {
        VirtualSpace::default()
    }

    /// Map `[base, base+len)` to `segment[seg_offset ..]`.
    ///
    /// # Errors
    ///
    /// [`RaError::OverlappingMapping`] if the range intersects an
    /// existing mapping.
    pub fn map(
        &mut self,
        base: u64,
        segment: SysName,
        seg_offset: u64,
        len: u64,
        writable: bool,
    ) -> Result<()> {
        let new = Mapping {
            base,
            len,
            segment,
            seg_offset,
            writable,
        };
        // Check the neighbour below and all ranges starting inside us.
        if let Some((_, prev)) = self.ranges.range(..=base).next_back() {
            if prev.end() > base {
                return Err(RaError::OverlappingMapping(base));
            }
        }
        if self.ranges.range(base..new.end()).next().is_some() {
            return Err(RaError::OverlappingMapping(base));
        }
        self.ranges.insert(base, new);
        Ok(())
    }

    /// Remove the mapping starting exactly at `base`.
    ///
    /// # Errors
    ///
    /// [`RaError::Unmapped`] if no mapping starts there.
    pub fn unmap(&mut self, base: u64) -> Result<Mapping> {
        self.ranges.remove(&base).ok_or(RaError::Unmapped(base))
    }

    /// Translate an access of `len` bytes at `vaddr` to a segment range.
    ///
    /// # Errors
    ///
    /// [`RaError::Unmapped`] if no mapping covers `vaddr`;
    /// [`RaError::CrossesMapping`] if the access runs past the mapping's
    /// end (accesses may span *pages*, not mappings).
    pub fn translate(&self, vaddr: u64, len: u64) -> Result<(SysName, u64, bool)> {
        let (_, m) = self
            .ranges
            .range(..=vaddr)
            .next_back()
            .ok_or(RaError::Unmapped(vaddr))?;
        if vaddr >= m.end() {
            return Err(RaError::Unmapped(vaddr));
        }
        if vaddr + len > m.end() {
            return Err(RaError::CrossesMapping(vaddr));
        }
        Ok((m.segment, m.seg_offset + (vaddr - m.base), m.writable))
    }

    /// All mappings in address order.
    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.ranges.values()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the space has no mappings.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// A demand-paged view of a [`VirtualSpace`]: the execution environment
/// of a Clouds object activation.
pub struct AddressSpace {
    vspace: VirtualSpace,
    cache: Arc<PageCache>,
    partition: Arc<dyn Partition>,
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("mappings", &self.vspace.len())
            .finish()
    }
}

impl AddressSpace {
    /// Build an address space over the node's cache and partition.
    pub fn new(cache: Arc<PageCache>, partition: Arc<dyn Partition>) -> AddressSpace {
        AddressSpace {
            vspace: VirtualSpace::new(),
            cache,
            partition,
        }
    }

    /// The mapping structure.
    pub fn vspace(&self) -> &VirtualSpace {
        &self.vspace
    }

    /// The partition backing this space.
    pub fn partition(&self) -> &Arc<dyn Partition> {
        &self.partition
    }

    /// Add a mapping (see [`VirtualSpace::map`]).
    ///
    /// # Errors
    ///
    /// As for [`VirtualSpace::map`].
    pub fn map(
        &mut self,
        base: u64,
        segment: SysName,
        seg_offset: u64,
        len: u64,
        writable: bool,
    ) -> Result<()> {
        self.vspace.map(base, segment, seg_offset, len, writable)
    }

    /// Remove a mapping (see [`VirtualSpace::unmap`]).
    ///
    /// # Errors
    ///
    /// As for [`VirtualSpace::unmap`].
    pub fn unmap(&mut self, base: u64) -> Result<Mapping> {
        self.vspace.unmap(base)
    }

    /// Read `len` bytes at `vaddr`, demand-paging as needed.
    ///
    /// # Errors
    ///
    /// Translation errors ([`RaError::Unmapped`],
    /// [`RaError::CrossesMapping`]) or partition failures.
    pub fn read(&self, vaddr: u64, len: usize) -> Result<Vec<u8>> {
        let (segment, seg_off, _w) = self.vspace.translate(vaddr, len as u64)?;
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let pos = seg_off as usize + done;
            let page = (pos / PAGE_SIZE) as u32;
            let in_page = pos % PAGE_SIZE;
            let chunk = (PAGE_SIZE - in_page).min(len - done);
            self.cache
                .access((segment, page), AccessMode::Read, &*self.partition, |f| {
                    out[done..done + chunk].copy_from_slice(&f.data[in_page..in_page + chunk]);
                })?;
            done += chunk;
        }
        Ok(out)
    }

    /// Write `data` at `vaddr`, demand-paging (exclusively) as needed.
    ///
    /// # Errors
    ///
    /// Translation errors, [`RaError::ReadOnly`] for read-only mappings,
    /// or partition failures.
    pub fn write(&self, vaddr: u64, data: &[u8]) -> Result<()> {
        let (segment, seg_off, writable) = self.vspace.translate(vaddr, data.len() as u64)?;
        if !writable {
            return Err(RaError::ReadOnly(vaddr));
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = seg_off as usize + done;
            let page = (pos / PAGE_SIZE) as u32;
            let in_page = pos % PAGE_SIZE;
            let chunk = (PAGE_SIZE - in_page).min(data.len() - done);
            self.cache
                .access((segment, page), AccessMode::Write, &*self.partition, |f| {
                    f.data[in_page..in_page + chunk].copy_from_slice(&data[done..done + chunk]);
                    f.dirty = true;
                })?;
            done += chunk;
        }
        Ok(())
    }

    /// Read a little-endian `u64` at `vaddr`.
    ///
    /// # Errors
    ///
    /// As for [`AddressSpace::read`].
    pub fn read_u64(&self, vaddr: u64) -> Result<u64> {
        let bytes = self.read(vaddr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Write a little-endian `u64` at `vaddr`.
    ///
    /// # Errors
    ///
    /// As for [`AddressSpace::write`].
    pub fn write_u64(&self, vaddr: u64, value: u64) -> Result<()> {
        self.write(vaddr, &value.to_le_bytes())
    }

    /// Flush all dirty pages of the node cache through this partition.
    ///
    /// # Errors
    ///
    /// Propagates write-back failures.
    pub fn flush(&self) -> Result<()> {
        self.cache.flush(&*self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::LocalPartition;
    use crate::segment::SegmentStore;
    use clouds_simnet::{CostModel, VirtualClock};

    fn seg(n: u64) -> SysName {
        SysName::from_parts(1, n)
    }

    #[test]
    fn map_rejects_overlap() {
        let mut v = VirtualSpace::new();
        v.map(0x1000, seg(1), 0, 0x2000, true).unwrap();
        assert!(matches!(
            v.map(0x2000, seg(2), 0, 0x1000, true),
            Err(RaError::OverlappingMapping(_))
        ));
        assert!(matches!(
            v.map(0x0800, seg(2), 0, 0x1000, true),
            Err(RaError::OverlappingMapping(_))
        ));
        // Adjacent is fine.
        v.map(0x3000, seg(2), 0, 0x1000, true).unwrap();
        v.map(0x0, seg(3), 0, 0x1000, true).unwrap();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn translate_respects_holes_and_bounds() {
        let mut v = VirtualSpace::new();
        v.map(0x1000, seg(1), 0x100, 0x1000, false).unwrap();
        assert!(matches!(v.translate(0x0500, 1), Err(RaError::Unmapped(_))));
        assert!(matches!(v.translate(0x2000, 1), Err(RaError::Unmapped(_))));
        let (s, off, w) = v.translate(0x1004, 4).unwrap();
        assert_eq!((s, off, w), (seg(1), 0x104, false));
        assert!(matches!(
            v.translate(0x1FFF, 2),
            Err(RaError::CrossesMapping(_))
        ));
    }

    #[test]
    fn unmap_then_translate_fails() {
        let mut v = VirtualSpace::new();
        v.map(0x1000, seg(1), 0, 0x1000, true).unwrap();
        let m = v.unmap(0x1000).unwrap();
        assert_eq!(m.segment, seg(1));
        assert!(matches!(v.translate(0x1000, 1), Err(RaError::Unmapped(_))));
        assert!(matches!(v.unmap(0x1000), Err(RaError::Unmapped(_))));
    }

    fn space() -> (AddressSpace, Arc<LocalPartition>) {
        let clock = Arc::new(VirtualClock::new());
        let store = SegmentStore::new();
        store.create(seg(1), 4 * PAGE_SIZE as u64).unwrap();
        store.create(seg(2), PAGE_SIZE as u64).unwrap();
        let part = Arc::new(LocalPartition::new(store, clock, CostModel::zero()));
        let cache = Arc::new(PageCache::new(64));
        (
            AddressSpace::new(cache, Arc::clone(&part) as Arc<dyn Partition>),
            part,
        )
    }

    #[test]
    fn read_write_roundtrip_across_pages() {
        let (mut a, _p) = space();
        a.map(0x10000, seg(1), 0, 4 * PAGE_SIZE as u64, true)
            .unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 256) as u8).collect();
        let addr = 0x10000 + PAGE_SIZE as u64 - 50;
        a.write(addr, &data).unwrap();
        assert_eq!(a.read(addr, data.len()).unwrap(), data);
    }

    #[test]
    fn write_to_readonly_mapping_rejected() {
        let (mut a, _p) = space();
        a.map(0x10000, seg(1), 0, PAGE_SIZE as u64, false).unwrap();
        assert!(matches!(
            a.write(0x10000, b"nope"),
            Err(RaError::ReadOnly(_))
        ));
        // Reads still work.
        assert_eq!(a.read(0x10000, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn u64_helpers() {
        let (mut a, _p) = space();
        a.map(0, seg(2), 0, PAGE_SIZE as u64, true).unwrap();
        a.write_u64(16, 0xDEAD_BEEF_CAFE).unwrap();
        assert_eq!(a.read_u64(16).unwrap(), 0xDEAD_BEEF_CAFE);
    }

    #[test]
    fn flush_persists_to_store() {
        let (mut a, p) = space();
        a.map(0, seg(2), 0, PAGE_SIZE as u64, true).unwrap();
        a.write(0, b"durable").unwrap();
        a.flush().unwrap();
        let stored = p.store().get(seg(2)).unwrap().read().read(0, 7).unwrap();
        assert_eq!(&stored, b"durable");
    }

    #[test]
    fn mapping_with_segment_offset() {
        let (mut a, p) = space();
        // Map only the second page of seg(1).
        a.map(0, seg(1), PAGE_SIZE as u64, PAGE_SIZE as u64, true)
            .unwrap();
        a.write(0, b"offset").unwrap();
        a.flush().unwrap();
        let stored = p
            .store()
            .get(seg(1))
            .unwrap()
            .read()
            .read(PAGE_SIZE as u64, 6)
            .unwrap();
        assert_eq!(&stored, b"offset");
    }

    #[test]
    fn two_spaces_share_one_cache_coherently() {
        let clock = Arc::new(VirtualClock::new());
        let store = SegmentStore::new();
        store.create(seg(1), PAGE_SIZE as u64).unwrap();
        let part: Arc<dyn Partition> =
            Arc::new(LocalPartition::new(store, clock, CostModel::zero()));
        let cache = Arc::new(PageCache::new(8));
        let mut a = AddressSpace::new(Arc::clone(&cache), Arc::clone(&part));
        let mut b = AddressSpace::new(cache, part);
        a.map(0, seg(1), 0, PAGE_SIZE as u64, true).unwrap();
        b.map(0x8000_0000, seg(1), 0, PAGE_SIZE as u64, true)
            .unwrap();
        a.write(0, b"shared").unwrap();
        // b sees a's write through the shared frame without any flush.
        assert_eq!(b.read(0x8000_0000, 6).unwrap(), b"shared");
    }
}
