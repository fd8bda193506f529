//! The workspace's one table hasher. Every in-process hash table — the
//! page cache's slots, the coherence directory, RaTP's pending, inflight
//! and replied tables, this crate's node map — is a [`FastMap`] or a
//! [`FastSet`]; clippy bans `std::collections::HashMap` and `HashSet`
//! everywhere else. It lives here because this is the one crate every
//! crate with a table already depends on.
//!
//! The hasher has no seed. std's default keys SipHash-1-3 per process
//! from OS entropy to resist HashDoS, but every key hashed here is one of
//! the program's own ids (node ids, transaction ids, sysnames, page
//! numbers, port numbers, names an object gave itself), so there is no
//! adversary to resist, and a table's layout is then a function of what
//! was put in it. Its iteration order still follows insertion history,
//! which follows thread interleaving, so the root `clippy.toml` keeps
//! banning hash-order iteration.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's Fx hash: odd, so each step is a bijection
/// of `h` for any word.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// rustc's Fx step, `h = (h.rotate_left(5) ^ word) · K`: one multiply
/// per integer written, and one per 8 bytes of a byte string. Not a
/// general-purpose hash; see the module docs for why it suffices.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` under [`FastHasher`]; build one with `FastMap::default()`.
#[expect(
    clippy::disallowed_types,
    reason = "the one definition every table goes through"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` under [`FastHasher`]; build one with `FastSet::default()`.
#[expect(
    clippy::disallowed_types,
    reason = "the one definition every table goes through"
)]
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// A `(SysName, page)` key as the page cache and the directory hash
    /// it: `SysName` is `{ hi: node, lo: counter }` with a derived
    /// `Hash`, which writes its two words in order.
    fn page_key(node: u64, counter: u64, page: u32) -> u64 {
        hash(&((node, counter), page))
    }

    /// The function is pinned: a change to it is a change to every
    /// table's layout, and should be made on purpose.
    #[test]
    fn hashes_are_pinned() {
        assert_eq!(hash(&0x0000_0003_0000_002au64), 0xd3dd_e7cb_6b95_bc72);
        assert_eq!(
            hash(&(NodeId(2), 0x0000_0001_0000_0007u64)),
            0xa1ec_0790_6885_774f
        );
        assert_eq!(page_key(1, 5, 17), 0x3531_4487_c3bf_03c9);
        assert_eq!(hash(&String::from("balance")), 0xeca1_42e9_b816_c6c8);
    }

    /// hashbrown indexes a table by the hash's low bits and filters a
    /// probe group by its top 7: check, over keys of the shapes the
    /// product uses, that neither piles up. No bucket of 2^12 low-bit
    /// buckets or 2^7 tag buckets may hold twice its mean share.
    fn assert_spread(what: &str, hashes: &[u64]) {
        let check = |name: &str, buckets: usize, bucket: &dyn Fn(u64) -> usize| {
            let mut load = vec![0usize; buckets];
            for &h in hashes {
                load[bucket(h)] += 1;
            }
            let mean = hashes.len() / buckets;
            let worst = load.iter().copied().max().unwrap_or(0);
            assert!(
                worst <= 2 * mean,
                "{what}: a {name} bucket holds {worst} keys, mean {mean}"
            );
        };
        check("low-12-bit", 1 << 12, &|h| (h & 0xfff) as usize);
        check("top-7-bit", 1 << 7, &|h| (h >> 57) as usize);
    }

    #[test]
    fn product_keys_spread_over_index_and_tag_bits() {
        // 2^16 transaction ids, `(node << 32) | counter`, from four nodes:
        // as `pending` hashes them (alone) and as `replied` does (behind
        // the sender's id).
        let txns: Vec<(u32, u64)> = (1..=4u32)
            .flat_map(|node| (0..1u64 << 14).map(move |i| (node, (u64::from(node) << 32) | i)))
            .collect();
        let alone: Vec<u64> = txns.iter().map(|(_, txn)| hash(txn)).collect();
        assert_spread("txn", &alone);
        let keyed: Vec<u64> = txns
            .iter()
            .map(|&(node, txn)| hash(&(NodeId(node), txn)))
            .collect();
        assert_spread("(NodeId, txn)", &keyed);
        // 2^16 `(SysName, page)` keys: 64 segments minted by two nodes,
        // 1024 pages each.
        let pages: Vec<u64> = (0..64u64)
            .flat_map(|seg| (0..1024u32).map(move |page| page_key(1 + seg % 2, 1 + seg, page)))
            .collect();
        assert_spread("(SysName, page)", &pages);
    }
}
