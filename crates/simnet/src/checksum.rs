//! `lanesum32`, the workspace's one integrity checksum: RaTP puts it in
//! every frame header and the log store in every record frame. It lives
//! here because this is the one crate both already depend on.

/// Bytes consumed per round: one little-endian `u64` per lane.
const CHUNK: usize = 32;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One xor–multiply–rotate step; a bijection of `h` for any `word`.
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MUL).rotate_left(29)
}

/// Mix every whole [`CHUNK`] of `bytes` into the lanes; the remainder
/// (shorter than a chunk) is handed back.
fn mix_chunks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let chunks = bytes.chunks_exact(CHUNK);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = step(*lane, word);
        }
    }
    tail
}

/// `lanesum32`: four interleaved 64-bit xor–multiply–rotate lanes over
/// 32-byte chunks, a byte-wise tail, folded to 32 bits. It reads a word
/// at a time — the cost of an integrity check should be memory
/// bandwidth, and a byte-at-a-time FNV-1a is ≈ 25× that on a page — and
/// every step is a bijection of its lane, so a single flipped bit
/// always reaches the lane's final state. Plenty to catch a torn tail
/// or bit rot in transit — we are detecting damage, not adversaries.
pub fn lanesum32(bytes: &[u8]) -> u32 {
    lanesum32_parts(&[], bytes)
}

/// [`lanesum32`] of `head ‖ rest` without joining them: a frame's
/// checksum covers the bytes either side of its own checksum field, and
/// this reads them where they lie. Only the one chunk that straddles
/// the seam is assembled (on the stack).
pub fn lanesum32_parts(head: &[u8], rest: &[u8]) -> u32 {
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let head_tail = mix_chunks(&mut lanes, head);
    // What is left for the byte-wise tail, either side of the seam.
    let (head_tail, rest_tail) = if head_tail.is_empty() {
        (head_tail, mix_chunks(&mut lanes, rest))
    } else if head_tail.len() + rest.len() >= CHUNK {
        let (fill, after) = rest.split_at(CHUNK - head_tail.len());
        let mut seam = [0u8; CHUNK];
        seam[..head_tail.len()].copy_from_slice(head_tail);
        seam[head_tail.len()..].copy_from_slice(fill);
        mix_chunks(&mut lanes, &seam);
        (&[][..], mix_chunks(&mut lanes, after))
    } else {
        (head_tail, rest)
    };
    let mut h = (head.len() + rest.len()) as u64;
    for lane in lanes {
        h = step(h, lane);
    }
    for &b in head_tail.iter().chain(rest_tail) {
        h = step(h, u64::from(b));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(MUL);
    (h >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pattern(len: u32) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(31).wrapping_add(i >> 8) ^ 0xA5) as u8)
            .collect()
    }

    /// Values computed by the store's private `lanesum32` at the commit
    /// before the function moved here: log media written then still
    /// verifies now. 8192 and 0 exercise whole chunks only; 31 and 33
    /// the byte-wise tail without and with a chunk before it.
    #[test]
    fn pinned_vectors_from_before_the_move() {
        let page = pattern(8192);
        assert_eq!(lanesum32(&[]), 0x411E_1BF6);
        assert_eq!(lanesum32(&page), 0x1B19_C722);
        assert_eq!(lanesum32(&page[..31]), 0xA20B_398C);
        assert_eq!(lanesum32(&page[..33]), 0xD669_692C);
    }

    #[test]
    fn lanesum_covers_every_length_and_is_never_zero_on_nothing() {
        // A zero-filled tail must not read as an empty valid record.
        assert_ne!(lanesum32(&[]), 0);
        // Lengths around the 32-byte chunking: extending by a zero byte
        // changes the sum (the tail and the length are both hashed).
        let zeros = [0u8; 100];
        for len in 0..zeros.len() {
            assert_ne!(
                lanesum32(&zeros[..len]),
                lanesum32(&zeros[..len + 1]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Wherever the seam falls — inside a chunk, on a chunk
        /// boundary, inside the tail, at either end — the parts form
        /// is the contiguous form.
        #[test]
        fn parts_form_equals_contiguous_form(
            len in 0u32..200,
            split in 0usize..200,
            salt in any::<u8>(),
        ) {
            let bytes: Vec<u8> = pattern(len).iter().map(|b| b ^ salt).collect();
            let (head, rest) = bytes.split_at(split.min(bytes.len()));
            prop_assert_eq!(lanesum32_parts(head, rest), lanesum32(&bytes));
        }
    }
}
