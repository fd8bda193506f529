//! Property tests for the open-loop load generators: deterministic for
//! a fixed seed, statistically shaped as advertised, and free of wall
//! clock / OS entropy (clippy's `disallowed-methods` bans wall-clock
//! reads repo-wide).

use clouds_bench::load::{PoissonArrivals, SplitMix64, Zipf, ZIPF_S};
use proptest::prelude::*;

#[test]
fn poisson_rate_matches_offered_load() {
    // 20k gaps at 100 rps: the empirical mean inter-arrival must sit
    // within 3% of the configured 10 ms.
    let mut arr = PoissonArrivals::new(42, 100);
    let n = 20_000u64;
    let mut last = 0u64;
    for _ in 0..n {
        let t = arr.next_arrival().as_nanos();
        assert!(t > last, "arrivals strictly increase");
        last = t;
    }
    let mean_gap = last as f64 / n as f64;
    let expected = 1e9 / 100.0;
    assert!(
        (mean_gap - expected).abs() / expected < 0.03,
        "mean gap {mean_gap} vs expected {expected}"
    );
}

#[test]
fn zipf_skew_concentrates_on_hot_ranks() {
    let zipf = Zipf::new(64, ZIPF_S);
    let mut rng = SplitMix64::new(7);
    let mut freq = [0u64; 64];
    let n = 40_000;
    for _ in 0..n {
        freq[zipf.sample(&mut rng)] += 1;
    }
    // Rank 0's share under s=0.99, n=64 is 1/H ≈ 21%; allow wide
    // statistical slack but reject anything uniform-ish (1.6%).
    let share0 = freq[0] as f64 / n as f64;
    assert!((0.15..=0.28).contains(&share0), "rank-0 share {share0}");
    // The head dominates the tail: the top 8 ranks draw ~57% of
    // traffic vs ~14.5% for the bottom 32 (analytically ×3.9 under
    // s=0.99); ×3 leaves statistical slack.
    let head: u64 = freq[..8].iter().sum();
    let tail: u64 = freq[32..].iter().sum();
    assert!(head > 3 * tail, "head {head} vs tail {tail}");
    // Every rank is reachable in a sample this large.
    assert!(freq.iter().all(|&f| f > 0), "no starved ranks");
}

proptest! {
    /// Same seed → same stream; different seed → different stream
    /// (no hidden entropy source can sneak in either way).
    #[test]
    fn generators_are_pure_functions_of_the_seed(seed in any::<u64>(), rps in 1u64..10_000) {
        let take = |mut a: PoissonArrivals| -> Vec<u64> {
            (0..64).map(|_| a.next_arrival().as_nanos()).collect()
        };
        let s1 = take(PoissonArrivals::new(seed, rps));
        prop_assert_eq!(&s1, &take(PoissonArrivals::new(seed, rps)));
        prop_assert_ne!(&s1, &take(PoissonArrivals::new(seed ^ 1, rps)));

        let zipf = Zipf::new(32, ZIPF_S);
        let draw = |mut r: SplitMix64| -> Vec<usize> {
            (0..64).map(|_| zipf.sample(&mut r)).collect()
        };
        let z1 = draw(SplitMix64::new(seed));
        prop_assert_eq!(&z1, &draw(SplitMix64::new(seed)));
        prop_assert!(z1.iter().all(|&k| k < 32), "ranks in range");
    }

    /// Range sampling is in-bounds for any seed and modulus.
    #[test]
    fn next_range_is_in_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_range(n) < n);
        }
    }
}
