//! Object metadata: the on-store representation of a Clouds object.
//!
//! An object is "a persistent virtual address space" (§2.1) made of
//! segments. Its *header* — what §3.2 calls "a header for the object"
//! that a compute server "retrieves from the appropriate data server" —
//! is a one-page meta segment whose sysname **is** the object's sysname.
//! The header names the class and the data/heap segments, so activating
//! an object anywhere requires only its sysname plus the DSM.

use crate::error::CloudsError;
use clouds_ra::{Partition, SysName, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// Magic marking a valid object header page.
pub const OBJECT_MAGIC: u64 = 0xC1_0D5_0B1;

/// The persistent header of a Clouds object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Identifies a valid header ([`OBJECT_MAGIC`]).
    pub magic: u64,
    /// The object's own sysname (= the header segment's sysname).
    pub sysname: SysName,
    /// Name of the class this object instantiates.
    pub class_name: String,
    /// Segment holding the persistent instance data.
    pub data_seg: SysName,
    /// Length of the data segment in bytes.
    pub data_len: u64,
    /// Segment holding the persistent heap.
    pub heap_seg: SysName,
    /// Length of the heap segment in bytes.
    pub heap_len: u64,
}

impl ObjectMeta {
    /// Serialize the header into a full page image.
    ///
    /// # Errors
    ///
    /// [`CloudsError::BadArguments`] if the meta does not fit in a page
    /// (a pathological class name).
    pub fn to_page(&self) -> Result<Vec<u8>, CloudsError> {
        let bytes = clouds_codec::to_bytes(self)?;
        if bytes.len() > PAGE_SIZE {
            return Err(CloudsError::BadArguments(
                "object header exceeds one page".to_string(),
            ));
        }
        let mut page = vec![0u8; PAGE_SIZE];
        page[..bytes.len()].copy_from_slice(&bytes);
        Ok(page)
    }

    /// Parse a header from its page image.
    ///
    /// # Errors
    ///
    /// [`CloudsError::NoSuchObject`] when the page is not a valid header
    /// (wrong magic, corrupt encoding).
    pub fn from_page(sysname: SysName, page: &[u8]) -> Result<ObjectMeta, CloudsError> {
        // The codec rejects trailing bytes, so decode from a prefix scan:
        // the header is self-delimiting because every field is
        // length-prefixed; decode with a forgiving reader.
        let meta = ObjectMeta::deserialize(&mut serde::Reader::new(page))
            .map_err(|_| CloudsError::NoSuchObject(sysname))?;
        if meta.magic != OBJECT_MAGIC || meta.sysname != sysname {
            return Err(CloudsError::NoSuchObject(sysname));
        }
        Ok(meta)
    }

    /// Read and parse an object header through a partition.
    ///
    /// # Errors
    ///
    /// [`CloudsError::NoSuchObject`] for missing/invalid headers,
    /// [`CloudsError::Ra`] for storage failures.
    pub fn load(partition: &dyn Partition, sysname: SysName) -> Result<ObjectMeta, CloudsError> {
        let fetch = partition
            .fetch_page_transient(sysname, 0)
            .map_err(|e| match e {
                clouds_ra::RaError::SegmentNotFound(_) => CloudsError::NoSuchObject(sysname),
                other => CloudsError::Ra(other),
            })?;
        ObjectMeta::from_page(sysname, &fetch.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ObjectMeta {
        ObjectMeta {
            magic: OBJECT_MAGIC,
            sysname: SysName::from_parts(1, 1),
            class_name: "rectangle".to_string(),
            data_seg: SysName::from_parts(1, 2),
            data_len: 8192,
            heap_seg: SysName::from_parts(1, 3),
            heap_len: 16384,
        }
    }

    #[test]
    fn page_roundtrip() {
        let m = meta();
        let page = m.to_page().unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        let back = ObjectMeta::from_page(m.sysname, &page).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_magic_rejected() {
        let m = meta();
        let mut page = m.to_page().unwrap();
        page[0] ^= 0xFF;
        assert!(matches!(
            ObjectMeta::from_page(m.sysname, &page),
            Err(CloudsError::NoSuchObject(_))
        ));
    }

    #[test]
    fn sysname_mismatch_rejected() {
        let m = meta();
        let page = m.to_page().unwrap();
        assert!(matches!(
            ObjectMeta::from_page(SysName::from_parts(9, 9), &page),
            Err(CloudsError::NoSuchObject(_))
        ));
    }

    #[test]
    fn zero_page_is_not_an_object() {
        let page = vec![0u8; PAGE_SIZE];
        assert!(ObjectMeta::from_page(SysName::from_parts(1, 1), &page).is_err());
    }
}
