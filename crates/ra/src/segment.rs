//! Segments and the stable segment store (§4.1).
//!
//! A segment is "a sequence of uninterpreted bytes of variable length
//! that exists either on the disk or in physical memory". The canonical,
//! durable copy of every segment lives in the [`SegmentStore`] of exactly
//! one data server; compute servers only hold demand-paged cached frames
//! (see `clouds-dsm`).

use crate::error::RaError;
use crate::sysname::SysName;
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Size of a kernel page in bytes, matching the Sun-3's 8 KB pages used
/// in the paper's measurements.
pub const PAGE_SIZE: usize = 8192;

/// One page worth of bytes. Pages start zero-filled and are allocated
/// lazily, so touching a fresh page models the paper's "zero-filled
/// page fault".
pub type PageData = Box<[u8; PAGE_SIZE]>;

fn zero_page() -> PageData {
    // `vec!` then convert keeps the 8 KB off the stack.
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exact page size")
}

/// A segment: named, variable-length, persistent byte storage.
///
/// Pages are `None` until first written; a `None` page reads as zeros.
/// Every page carries a version counter incremented on each write-back,
/// used by the DSM coherence protocol and PET's quorum reads.
#[derive(Debug)]
pub struct Segment {
    name: SysName,
    len: u64,
    pages: Vec<Option<PageData>>,
    versions: Vec<u64>,
}

impl Segment {
    /// Create an all-zero segment of `len` bytes.
    pub fn new(name: SysName, len: u64) -> Segment {
        let n_pages = (len as usize).div_ceil(PAGE_SIZE);
        Segment {
            name,
            len,
            pages: (0..n_pages).map(|_| None).collect(),
            versions: vec![0; n_pages],
        }
    }

    /// The segment's sysname.
    pub fn name(&self) -> SysName {
        self.name
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Whether `page` has ever been written (false ⇒ reads as zeros).
    pub fn is_page_materialized(&self, page: u32) -> bool {
        self.pages
            .get(page as usize)
            .is_some_and(|p| p.is_some())
    }

    /// Version counter of `page` (0 if never written).
    pub fn page_version(&self, page: u32) -> u64 {
        self.versions.get(page as usize).copied().unwrap_or(0)
    }

    fn check_page(&self, page: u32) -> Result<usize> {
        let idx = page as usize;
        if idx >= self.pages.len() {
            return Err(RaError::OutOfRange {
                segment: self.name,
                offset: page as u64 * PAGE_SIZE as u64,
                len: PAGE_SIZE as u64,
                segment_len: self.len,
            });
        }
        Ok(idx)
    }

    /// Copy out one full page (zeros if never written).
    ///
    /// # Errors
    ///
    /// [`RaError::OutOfRange`] if `page` is past the end.
    pub fn read_page(&self, page: u32) -> Result<Vec<u8>> {
        let idx = self.check_page(page)?;
        Ok(match &self.pages[idx] {
            Some(data) => data.to_vec(),
            None => vec![0u8; PAGE_SIZE],
        })
    }

    /// Overwrite one full page, bumping its version.
    ///
    /// # Errors
    ///
    /// [`RaError::OutOfRange`] if `page` is past the end or `data` is not
    /// exactly one page.
    pub fn write_page(&mut self, page: u32, data: &[u8]) -> Result<u64> {
        let idx = self.check_page(page)?;
        if data.len() != PAGE_SIZE {
            return Err(RaError::OutOfRange {
                segment: self.name,
                offset: page as u64 * PAGE_SIZE as u64,
                len: data.len() as u64,
                segment_len: self.len,
            });
        }
        let dst = self.pages[idx].get_or_insert_with(zero_page);
        dst.copy_from_slice(data);
        self.versions[idx] += 1;
        Ok(self.versions[idx])
    }

    /// Install a replayed page image *and* its logged version — the
    /// recovery path of a data server rebuilding its in-memory segment
    /// cache from the append-only log (`clouds-store`). Unlike
    /// [`Segment::write_page`] this does not mint a new version: the
    /// version counter must continue exactly where the pre-crash server
    /// left it, or post-restart mirror pushes would be mistaken for
    /// stale duplicates by their receivers.
    ///
    /// # Errors
    ///
    /// [`RaError::OutOfRange`] if `page` is past the end or `data` is
    /// not exactly one page.
    pub fn restore_page(&mut self, page: u32, data: &[u8], version: u64) -> Result<()> {
        let idx = self.check_page(page)?;
        if data.len() != PAGE_SIZE {
            return Err(RaError::OutOfRange {
                segment: self.name,
                offset: page as u64 * PAGE_SIZE as u64,
                len: data.len() as u64,
                segment_len: self.len,
            });
        }
        let dst = self.pages[idx].get_or_insert_with(zero_page);
        dst.copy_from_slice(data);
        self.versions[idx] = self.versions[idx].max(version);
        Ok(())
    }

    /// Read an arbitrary byte range (may span pages).
    ///
    /// # Errors
    ///
    /// [`RaError::OutOfRange`] if the range extends past the segment.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.check_range(offset, len as u64)?;
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let pos = offset as usize + done;
            let page = pos / PAGE_SIZE;
            let in_page = pos % PAGE_SIZE;
            let chunk = (PAGE_SIZE - in_page).min(len - done);
            if let Some(Some(data)) = self.pages.get(page) {
                out[done..done + chunk].copy_from_slice(&data[in_page..in_page + chunk]);
            }
            done += chunk;
        }
        Ok(out)
    }

    /// Write an arbitrary byte range (may span pages), bumping versions
    /// of the touched pages.
    ///
    /// # Errors
    ///
    /// [`RaError::OutOfRange`] if the range extends past the segment.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_range(offset, data.len() as u64)?;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset as usize + done;
            let page = pos / PAGE_SIZE;
            let in_page = pos % PAGE_SIZE;
            let chunk = (PAGE_SIZE - in_page).min(data.len() - done);
            let dst = self.pages[page].get_or_insert_with(zero_page);
            dst[in_page..in_page + chunk].copy_from_slice(&data[done..done + chunk]);
            self.versions[page] += 1;
            done += chunk;
        }
        Ok(())
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<()> {
        if offset.saturating_add(len) > self.len {
            return Err(RaError::OutOfRange {
                segment: self.name,
                offset,
                len,
                segment_len: self.len,
            });
        }
        Ok(())
    }
}

/// The in-memory segment cache of a data server. Despite the name this
/// is *volatile* state: durability lives in the append-only log
/// (`clouds-store`), which every mutation writes through before it is
/// acknowledged. A crash wipes this map ([`SegmentStore::clear`]) and
/// restart rebuilds it by replaying the log — the same split as the
/// prototype's data service, where DRAM caching fronted the Unix files
/// that actually persisted.
///
/// Cheap to clone; clones share the same store.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    segments: Arc<RwLock<HashMap<SysName, Arc<RwLock<Segment>>>>>,
}

impl SegmentStore {
    /// An empty store.
    pub fn new() -> SegmentStore {
        SegmentStore::default()
    }

    /// Create a segment of `len` zero bytes.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentExists`] if the sysname is taken.
    pub fn create(&self, name: SysName, len: u64) -> Result<()> {
        let mut map = self.segments.write();
        if map.contains_key(&name) {
            return Err(RaError::SegmentExists(name));
        }
        map.insert(name, Arc::new(RwLock::new(Segment::new(name, len))));
        Ok(())
    }

    /// Destroy a segment ("segments persist until explicitly destroyed").
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] if absent.
    pub fn destroy(&self, name: SysName) -> Result<()> {
        self.segments
            .write()
            .remove(&name)
            .map(|_| ())
            .ok_or(RaError::SegmentNotFound(name))
    }

    /// Shared handle to a segment.
    ///
    /// # Errors
    ///
    /// [`RaError::SegmentNotFound`] if absent.
    pub fn get(&self, name: SysName) -> Result<Arc<RwLock<Segment>>> {
        self.segments
            .read()
            .get(&name)
            .cloned()
            .ok_or(RaError::SegmentNotFound(name))
    }

    /// Whether a segment exists.
    pub fn contains(&self, name: SysName) -> bool {
        self.segments.read().contains_key(&name)
    }

    /// Drop every segment — the crash simulation wiping the data
    /// server's DRAM. The caller is expected to repopulate from the
    /// durable log before serving again.
    pub fn clear(&self) {
        self.segments.write().clear();
    }

    /// Number of stored segments.
    pub fn len(&self) -> usize {
        self.segments.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.read().is_empty()
    }

    /// Sysnames of all stored segments, in sysname order.
    pub fn names(&self) -> Vec<SysName> {
        #[expect(clippy::disallowed_methods, reason = "sorted before returning")]
        let mut names: Vec<SysName> = self.segments.read().keys().copied().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: u64) -> SysName {
        SysName::from_parts(1, n)
    }

    #[test]
    fn fresh_segment_reads_zeros() {
        let s = Segment::new(name(1), 3 * PAGE_SIZE as u64);
        assert_eq!(s.page_count(), 3);
        assert!(!s.is_page_materialized(0));
        assert_eq!(s.read(100, 8).unwrap(), vec![0u8; 8]);
        assert_eq!(s.read_page(2).unwrap(), vec![0u8; PAGE_SIZE]);
    }

    #[test]
    fn partial_last_page() {
        let s = Segment::new(name(1), PAGE_SIZE as u64 + 100);
        assert_eq!(s.page_count(), 2);
        assert_eq!(s.len(), PAGE_SIZE as u64 + 100);
    }

    #[test]
    fn write_then_read_across_pages() {
        let mut s = Segment::new(name(1), 3 * PAGE_SIZE as u64);
        let data: Vec<u8> = (0..(PAGE_SIZE + 500)).map(|i| (i % 256) as u8).collect();
        let offset = PAGE_SIZE as u64 - 250;
        s.write(offset, &data).unwrap();
        assert_eq!(s.read(offset, data.len()).unwrap(), data);
        assert!(s.is_page_materialized(0));
        assert!(s.is_page_materialized(1));
        assert!(s.is_page_materialized(2));
    }

    #[test]
    fn versions_bump_on_write() {
        let mut s = Segment::new(name(1), 2 * PAGE_SIZE as u64);
        assert_eq!(s.page_version(0), 0);
        s.write(0, b"x").unwrap();
        assert_eq!(s.page_version(0), 1);
        assert_eq!(s.page_version(1), 0);
        s.write_page(1, &vec![7u8; PAGE_SIZE]).unwrap();
        assert_eq!(s.page_version(1), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = Segment::new(name(1), 100);
        assert!(matches!(
            s.read(90, 20),
            Err(RaError::OutOfRange { .. })
        ));
        assert!(matches!(
            s.write(101, b"a"),
            Err(RaError::OutOfRange { .. })
        ));
        assert!(matches!(s.read_page(1), Err(RaError::OutOfRange { .. })));
    }

    #[test]
    fn write_page_requires_exact_size() {
        let mut s = Segment::new(name(1), PAGE_SIZE as u64);
        assert!(s.write_page(0, &[0u8; 10]).is_err());
        assert!(s.write_page(0, &vec![0u8; PAGE_SIZE]).is_ok());
    }

    #[test]
    fn store_create_get_destroy() {
        let store = SegmentStore::new();
        store.create(name(1), 100).unwrap();
        assert!(matches!(
            store.create(name(1), 100),
            Err(RaError::SegmentExists(_))
        ));
        assert!(store.contains(name(1)));
        assert_eq!(store.len(), 1);
        store.get(name(1)).unwrap().write().write(0, b"hi").unwrap();
        assert_eq!(
            store.get(name(1)).unwrap().read().read(0, 2).unwrap(),
            b"hi"
        );
        store.destroy(name(1)).unwrap();
        assert!(matches!(
            store.get(name(1)),
            Err(RaError::SegmentNotFound(_))
        ));
        assert!(matches!(
            store.destroy(name(1)),
            Err(RaError::SegmentNotFound(_))
        ));
    }

    #[test]
    fn store_clones_share_state() {
        let store = SegmentStore::new();
        let alias = store.clone();
        store.create(name(9), 10).unwrap();
        assert!(alias.contains(name(9)));
    }

    #[test]
    fn zero_length_segment() {
        let s = Segment::new(name(1), 0);
        assert!(s.is_empty());
        assert_eq!(s.page_count(), 0);
        assert_eq!(s.read(0, 0).unwrap(), Vec::<u8>::new());
    }
}
