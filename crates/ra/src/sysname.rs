//! Sysnames: the flat, global, unique names of Clouds (§2.1).
//!
//! "Each Clouds object has a global system-level name called a sysname,
//! which is a bit string that is unique over the entire distributed
//! system. Therefore, the sysname-based naming scheme in Clouds creates a
//! uniform, flat system name space."
//!
//! Segments, objects and classes all carry sysnames. A sysname is 128
//! bits: the high 64 encode the generating node, the low 64 a per-node
//! counter — unique without coordination, exactly what a real system
//! derives from station ids.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A systemwide unique name for a segment, object, or class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SysName {
    hi: u64,
    lo: u64,
}

impl SysName {
    /// The reserved nil sysname (never generated).
    pub const NIL: SysName = SysName { hi: 0, lo: 0 };

    /// Construct from raw halves; used by generators and tests.
    pub const fn from_parts(hi: u64, lo: u64) -> SysName {
        SysName { hi, lo }
    }

    /// The raw 128-bit value.
    pub const fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Whether this is the nil sysname.
    pub const fn is_nil(self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// Parse the `{hi:016x}-{lo:016x}` form produced by `Display`.
    pub fn parse(s: &str) -> Option<SysName> {
        let (hi, lo) = s.split_once('-')?;
        if hi.len() != 16 || lo.len() != 16 {
            return None;
        }
        Some(SysName {
            hi: u64::from_str_radix(hi, 16).ok()?,
            lo: u64::from_str_radix(lo, 16).ok()?,
        })
    }
}

impl fmt::Display for SysName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:016x}", self.hi, self.lo)
    }
}

impl fmt::Debug for SysName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SysName({self})")
    }
}

/// Per-node sysname generator.
///
/// ```
/// use clouds_ra::SysNameGen;
/// let g = SysNameGen::new(3);
/// let a = g.next();
/// let b = g.next();
/// assert_ne!(a, b);
/// ```
#[derive(Debug)]
pub struct SysNameGen {
    node: u64,
    counter: AtomicU64,
}

impl SysNameGen {
    /// Generator for names minted by `node`.
    pub fn new(node: u32) -> SysNameGen {
        SysNameGen {
            node: node as u64,
            counter: AtomicU64::new(1),
        }
    }

    /// Mint a fresh, never-before-returned sysname.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&self) -> SysName {
        SysName {
            hi: self.node,
            lo: self.counter.fetch_add(1, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_simnet::FastSet;

    #[test]
    fn display_parse_roundtrip() {
        let s = SysName::from_parts(0xABCD, 42);
        let text = s.to_string();
        assert_eq!(SysName::parse(&text), Some(s));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(SysName::parse("xyz").is_none());
        assert!(SysName::parse("0-0").is_none());
        assert!(SysName::parse("000000000000000g-0000000000000001").is_none());
    }

    #[test]
    fn nil_detection() {
        assert!(SysName::NIL.is_nil());
        assert!(!SysName::from_parts(0, 1).is_nil());
    }

    #[test]
    fn generators_never_collide() {
        let g1 = SysNameGen::new(1);
        let g2 = SysNameGen::new(2);
        let mut seen = FastSet::default();
        for _ in 0..1000 {
            assert!(seen.insert(g1.next()));
            assert!(seen.insert(g2.next()));
        }
    }

    /// The page cache and the coherence directory key by `(SysName,
    /// page)`: its table hash is pinned here, and is the one
    /// `clouds-simnet` pins for the two words and the page.
    #[test]
    fn page_key_hash_is_pinned() {
        use clouds_simnet::FastHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let key = (SysName::from_parts(1, 5), 17u32);
        let hash = BuildHasherDefault::<FastHasher>::default().hash_one(key);
        assert_eq!(hash, 0x3531_4487_c3bf_03c9);
    }

    #[test]
    fn generator_is_thread_safe() {
        use std::sync::Arc;
        let g = Arc::new(SysNameGen::new(7));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || (0..500).map(|_| g.next()).collect::<Vec<_>>())
            })
            .collect();
        let mut seen = FastSet::default();
        for h in handles {
            for s in h.join().unwrap() {
                assert!(seen.insert(s));
            }
        }
        assert_eq!(seen.len(), 2000);
    }

    #[test]
    fn ordering_is_lexicographic_on_parts() {
        assert!(SysName::from_parts(1, 99) < SysName::from_parts(2, 0));
        assert!(SysName::from_parts(1, 1) < SysName::from_parts(1, 2));
    }

    #[test]
    fn as_u128_packs_parts() {
        let s = SysName::from_parts(1, 2);
        assert_eq!(s.as_u128(), (1u128 << 64) | 2);
    }
}
