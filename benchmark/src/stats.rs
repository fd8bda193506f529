//! Order statistics over raw samples (no histogram buckets: every
//! reported percentile is an actual sample).

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Fallback tail percentiles in per mille, best first (integers, so
/// "how many samples lie beyond" is exact).
const TAIL_LADDER_PERMILLE: [usize; 5] = [990, 950, 900, 750, 500];

/// The `q`-quantile (nearest rank) of an already sorted slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The tail percentile a run of `n` samples reports: the workload's
/// committed rung (per mille) when at least [`MIN_BEYOND`] samples lie
/// beyond it, otherwise the highest lower rung of p99/p95/p90/p75/p50
/// that has them (a p99 read off 300 samples is the 3rd-largest one —
/// noise, not a tail). The committed rungs hold on every 10-second run,
/// so the fallback only matters for much smaller ones (`--smoke`).
pub fn tail_quantile(n: usize, committed_permille: usize) -> f64 {
    let enough_beyond = |pm: &usize| n * (1000 - pm) / 1000 >= MIN_BEYOND;
    let rung = [committed_permille]
        .into_iter()
        .chain(
            TAIL_LADDER_PERMILLE
                .into_iter()
                .filter(|pm| *pm < committed_permille),
        )
        .find(enough_beyond)
        .unwrap_or(500);
    rung as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_falls_back_when_fewer_than_ten_samples_lie_beyond() {
        // The committed rung as long as ten samples lie beyond it ...
        assert_eq!(tail_quantile(100_000, 999), 0.999);
        assert_eq!(tail_quantile(10_000, 999), 0.999); // exactly 10 beyond
        assert_eq!(tail_quantile(1_000, 990), 0.99);
        assert_eq!(tail_quantile(800, 950), 0.95); // never a *higher* rung
        assert_eq!(tail_quantile(800, 900), 0.90);
        // ... otherwise the highest lower rung that has them.
        assert_eq!(tail_quantile(9_999, 999), 0.99); // 9 beyond p99.9
        assert_eq!(tail_quantile(999, 999), 0.95); // 9 beyond p99 too
        assert_eq!(tail_quantile(199, 950), 0.90);
        assert_eq!(tail_quantile(60, 990), 0.75);
        assert_eq!(tail_quantile(25, 900), 0.50);
        assert_eq!(tail_quantile(3, 950), 0.50);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
