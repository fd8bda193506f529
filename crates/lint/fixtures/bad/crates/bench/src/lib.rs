//! Fixture: an experiment runner timing itself on the host clock. The
//! same line recurs in `src/bin/` (flagged) and `tests/` (not).

pub fn elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}
