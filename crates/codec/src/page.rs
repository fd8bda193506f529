//! `PageBytes` — a cheaply cloneable byte payload for page-sized data.
//!
//! DSM wire messages carry whole 8 KB pages. A `Vec<u8>` field encodes
//! and decodes one element at a time, which would dominate the paging hot
//! path. `PageBytes` has the same wire form (a `u64` length, then the
//! bytes) but moves the payload as one block: one length prefix plus one
//! `memcpy` on encode, and on decode either one `memcpy` — or **zero
//! copies** when the caller decodes with [`from_bytes_shared`], which lets
//! the payload become a refcounted [`Bytes`] slice of the undecoded input
//! buffer.
//!
//! The zero-copy decode works without `unsafe`: the [`Reader`] hands out
//! subslices of the original input, so when that input is the contents
//! of a [`Bytes`] buffer registered for the current decode, plain pointer
//! arithmetic (`as_ptr() as usize`) locates the subslice's offset inside
//! the parent and `Bytes::slice` shares the allocation.

use crate::Result;
use bytes::Bytes;
use serde::{Deserialize, Reader, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;

thread_local! {
    /// Parent buffer of the decode currently running on this thread, if
    /// the caller opted into zero-copy via [`from_bytes_shared`].
    static DECODE_PARENT: RefCell<Option<Bytes>> = const { RefCell::new(None) };
}

/// Restores the previously installed parent when a shared decode ends,
/// so nested or back-to-back decodes never see a stale buffer.
struct ParentGuard {
    prev: Option<Bytes>,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        DECODE_PARENT.with(|p| *p.borrow_mut() = self.prev.take());
    }
}

/// Decode a value of type `T` from the full contents of `parent`,
/// letting any [`PageBytes`] fields inside `T` borrow (refcount-share)
/// the parent buffer instead of copying their payloads out.
///
/// Exactly [`crate::from_bytes`] otherwise: the whole input must be
/// consumed.
///
/// # Errors
///
/// As for [`crate::from_bytes`].
pub fn from_bytes_shared<T: Deserialize>(parent: &Bytes) -> Result<T> {
    let _guard = DECODE_PARENT.with(|p| ParentGuard {
        prev: p.borrow_mut().replace(parent.clone()),
    });
    crate::from_bytes(parent.as_ref())
}

/// A page-sized byte payload that encodes as one block, exactly like a
/// `Vec<u8>` holding the same bytes, and decodes without copying when the
/// input buffer is shared via [`from_bytes_shared`].
///
/// Cloning is O(1) (refcount bump). Dereferences to `[u8]`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PageBytes(Bytes);

impl PageBytes {
    /// An empty payload.
    pub fn new() -> PageBytes {
        PageBytes(Bytes::new())
    }

    /// Copy a slice into a fresh payload.
    pub fn copy_from_slice(data: &[u8]) -> PageBytes {
        PageBytes(Bytes::copy_from_slice(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// The underlying shared buffer.
    pub fn into_bytes(self) -> Bytes {
        self.0
    }

    /// View as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl Deref for PageBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl AsRef<[u8]> for PageBytes {
    fn as_ref(&self) -> &[u8] {
        self.0.as_ref()
    }
}

impl From<Vec<u8>> for PageBytes {
    /// Zero-copy: wraps the vector's allocation.
    fn from(v: Vec<u8>) -> PageBytes {
        PageBytes(Bytes::from(v))
    }
}

impl From<Bytes> for PageBytes {
    fn from(b: Bytes) -> PageBytes {
        PageBytes(b)
    }
}

impl From<&[u8]> for PageBytes {
    fn from(v: &[u8]) -> PageBytes {
        PageBytes::copy_from_slice(v)
    }
}

impl fmt::Debug for PageBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBytes[{} bytes]", self.len())
    }
}

impl Serialize for PageBytes {
    #[inline]
    fn serialize(&self, out: &mut Vec<u8>) {
        serde::write_bytes(out, self);
    }
}

/// If `v` is a subslice of the decode's registered parent buffer, share
/// the parent's allocation; otherwise copy. The containment test is
/// plain integer arithmetic on `as_ptr()` addresses — no `unsafe`.
fn adopt(v: &[u8]) -> PageBytes {
    DECODE_PARENT.with(|p| {
        if let Some(parent) = p.borrow().as_ref() {
            let base = parent.as_ref().as_ptr() as usize;
            let ptr = v.as_ptr() as usize;
            if ptr >= base && ptr + v.len() <= base + parent.len() {
                let off = ptr - base;
                return PageBytes(parent.slice(off..off + v.len()));
            }
        }
        PageBytes::copy_from_slice(v)
    })
}

impl Deserialize for PageBytes {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<PageBytes> {
        r.take_bytes().map(adopt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Grant {
        page: u32,
        data: PageBytes,
        version: u64,
    }

    fn sample(len: usize) -> Grant {
        Grant {
            page: 7,
            data: PageBytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
            version: 42,
        }
    }

    #[test]
    fn roundtrips_through_plain_decode() {
        let g = sample(8192);
        let bytes = to_bytes(&g).unwrap();
        let back: Grant = from_bytes(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn wire_format_matches_vec_u8() {
        // PageBytes must be drop-in wire-compatible with Vec<u8> fields:
        // same u64 length prefix + raw bytes.
        let payload = vec![1u8, 2, 3, 4, 5];
        let as_vec = to_bytes(&payload).unwrap();
        let as_page = to_bytes(&PageBytes::from(payload.clone())).unwrap();
        assert_eq!(as_vec, as_page);
        let back: Vec<u8> = from_bytes(&as_page).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn shared_decode_borrows_the_input_buffer() {
        let g = sample(8192);
        let wire = Bytes::from(to_bytes(&g).unwrap());
        let base = wire.as_ref().as_ptr() as usize;
        let back: Grant = from_bytes_shared(&wire).unwrap();
        assert_eq!(back, g);
        let ptr = back.data.as_slice().as_ptr() as usize;
        assert!(
            ptr >= base && ptr + back.data.len() <= base + wire.len(),
            "payload must alias the wire buffer, not a copy"
        );
    }

    #[test]
    fn plain_decode_after_shared_decode_copies() {
        let g = sample(64);
        let wire = Bytes::from(to_bytes(&g).unwrap());
        let _shared: Grant = from_bytes_shared(&wire).unwrap();
        // The guard must have cleared the parent: a later plain decode
        // of a different buffer gets an owned copy and stays correct.
        let other = to_bytes(&g).unwrap();
        let back: Grant = from_bytes(&other).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_page_roundtrips() {
        let g = Grant {
            page: 0,
            data: PageBytes::new(),
            version: 0,
        };
        let wire = Bytes::from(to_bytes(&g).unwrap());
        let back: Grant = from_bytes_shared(&wire).unwrap();
        assert_eq!(back, g);
    }
}
