//! SplitMix64: the workspace's one seeded generator.
//!
//! Tiny, seedable and free of OS entropy, so every draw derives from a
//! seed. Frame fates ([`crate::FaultPlan::fate`]), the E13 load
//! generator, chaos seed derivation and the seeded tests all draw from
//! it.

/// The SplitMix64 output finalizer: a bijection on `u64` that spreads
/// nearby inputs far apart. Several values hash into one seed by
/// chaining it: `mix64(mix64(a) ^ b)`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 — statistically fine for simulation and load shaping, not
/// cryptographic. Its draws are bit-identical to the vendored `rand`
/// shim's `StdRng` (`next_range(n)` to `gen_range(0..n)`).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The increment between states: `⌊2⁶⁴/φ⌋`, odd.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A generator whose entire future is determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn next_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift: unbiased enough for simulation, branch-free.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_the_reference_splitmix64_stream() {
        // The published SplitMix64 outputs for seed 0 (Vigna's
        // `splitmix64.c`).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(
            SplitMix64::new(5).next_u64(),
            mix64(5u64.wrapping_add(SplitMix64::GAMMA))
        );
    }
}
