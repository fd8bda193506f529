//! Virtual time: logical nanosecond clocks used for all performance
//! accounting in the reproduction.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Vt` is used both as a timestamp ("the frame arrives at `t`") and as a
/// duration ("a context switch costs 140 µs"); the paper's numbers are all
/// durations, so no distinct duration type is warranted.
///
/// ```
/// use clouds_simnet::Vt;
/// let t = Vt::from_micros(140);
/// assert_eq!(t + Vt::from_micros(60), Vt::from_micros(200));
/// assert_eq!(t.as_millis_f64(), 0.14);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vt(u64);

impl Vt {
    /// Virtual time zero.
    pub const ZERO: Vt = Vt(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Vt {
        Vt(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Vt {
        Vt(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Vt {
        Vt(ms * 1_000_000)
    }

    /// Nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microsecond value (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Millisecond value as floating point, convenient for reports.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction; `Vt` never goes negative.
    pub fn saturating_sub(self, rhs: Vt) -> Vt {
        Vt(self.0.saturating_sub(rhs.0))
    }

    /// Scale a cost by a count (e.g. per-byte costs). Saturates instead
    /// of wrapping, unlike `ops::Mul` would suggest — hence a method.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, times: u64) -> Vt {
        Vt(self.0.saturating_mul(times))
    }
}

impl Add for Vt {
    type Output = Vt;

    fn add(self, rhs: Vt) -> Vt {
        Vt(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Vt {
    fn add_assign(&mut self, rhs: Vt) {
        *self = *self + rhs;
    }
}

impl Sub for Vt {
    type Output = Vt;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`Vt::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: Vt) -> Vt {
        debug_assert!(self.0 >= rhs.0, "virtual time went backwards");
        Vt(self.0.saturating_sub(rhs.0))
    }
}

impl From<Duration> for Vt {
    fn from(d: Duration) -> Vt {
        Vt(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl fmt::Display for Vt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A monotonic per-node logical clock.
///
/// Computation *charges* costs ([`VirtualClock::charge`]); message receipt
/// *advances* the clock to the arrival timestamp
/// ([`VirtualClock::advance_to`]). Both are lock-free and safe to call from
/// any thread of the simulated node.
///
/// ```
/// use clouds_simnet::{VirtualClock, Vt};
/// let clock = VirtualClock::new();
/// clock.charge(Vt::from_micros(140));
/// clock.advance_to(Vt::from_micros(100)); // in the past: no-op
/// assert_eq!(clock.now(), Vt::from_micros(140));
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A fresh clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Vt {
        Vt(self.now_ns.load(Ordering::Acquire))
    }

    /// Advance by `cost`, returning the new time.
    pub fn charge(&self, cost: Vt) -> Vt {
        Vt(self.now_ns.fetch_add(cost.0, Ordering::AcqRel) + cost.0)
    }

    /// Advance to at least `t` (no-op if already past), returning the
    /// resulting time.
    pub fn advance_to(&self, t: Vt) -> Vt {
        let prev = self.now_ns.fetch_max(t.0, Ordering::AcqRel);
        Vt(prev.max(t.0))
    }

    /// [`VirtualClock::advance_to`] `t`, then [`VirtualClock::charge`]
    /// `cost`, as one step: `now = max(now, t) + cost`. Receiving a
    /// packet is this pair, and several threads may receive for one node
    /// at once; done as two steps, another thread's advance could land
    /// between them and the clock end up later than any serial order of
    /// the receipts allows.
    pub fn advance_and_charge(&self, t: Vt, cost: Vt) -> Vt {
        let step = |now: u64| now.max(t.0).saturating_add(cost.0);
        let prev = self
            .now_ns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |now| Some(step(now)))
            .expect("the update closure never declines");
        Vt(step(prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Vt::from_millis(1), Vt::from_micros(1000));
        assert_eq!(Vt::from_micros(1), Vt::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let a = Vt::from_nanos(100);
        let b = Vt::from_nanos(40);
        assert_eq!(a + b, Vt::from_nanos(140));
        assert_eq!(a - b, Vt::from_nanos(60));
        assert_eq!(b.saturating_sub(a), Vt::ZERO);
        assert_eq!(b.mul(3), Vt::from_nanos(120));
    }

    #[test]
    fn display_scales() {
        assert_eq!(Vt::from_nanos(5).to_string(), "5ns");
        assert_eq!(Vt::from_micros(5).to_string(), "5.000us");
        assert_eq!(Vt::from_millis(5).to_string(), "5.000ms");
    }

    #[test]
    fn clock_charges_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Vt::ZERO);
        assert_eq!(c.charge(Vt::from_nanos(10)), Vt::from_nanos(10));
        assert_eq!(c.advance_to(Vt::from_nanos(5)), Vt::from_nanos(10));
        assert_eq!(c.advance_to(Vt::from_nanos(50)), Vt::from_nanos(50));
        assert_eq!(c.now(), Vt::from_nanos(50));
    }

    #[test]
    fn clock_is_monotonic_under_concurrency() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut last = Vt::ZERO;
                for _ in 0..1000 {
                    let t = c.charge(Vt::from_nanos(3));
                    assert!(t > last);
                    last = t;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), Vt::from_nanos(4 * 1000 * 3));
    }

    #[test]
    fn racing_receipts_are_some_serial_order_of_themselves() {
        use std::sync::{Arc, Barrier};
        const COST: Vt = Vt::from_nanos(5);
        // Arrivals close enough that each one's charge overtakes the
        // next: the order of the receipts shows in every result.
        let arrivals: Vec<Vt> = (0..4).map(|i| Vt::from_nanos(10 + 2 * i)).collect();
        for _ in 0..200 {
            let clock = Arc::new(VirtualClock::new());
            let start = Arc::new(Barrier::new(arrivals.len()));
            let racers: Vec<_> = arrivals
                .iter()
                .map(|&arrival| {
                    let (clock, start) = (Arc::clone(&clock), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        (clock.advance_and_charge(arrival, COST), arrival)
                    })
                })
                .collect();
            let mut results: Vec<(Vt, Vt)> =
                racers.into_iter().map(|r| r.join().unwrap()).collect();
            // Each call returns the clock as it left it, so the results
            // sorted name the serial order; replaying the two-step
            // receipt in that order must give exactly those results.
            results.sort_unstable();
            let serial = VirtualClock::new();
            for (after, arrival) in results {
                serial.advance_to(arrival);
                assert_eq!(serial.charge(COST), after);
            }
            assert_eq!(clock.now(), serial.now());
        }
    }

    #[test]
    fn duration_conversion() {
        let v: Vt = Duration::from_millis(2).into();
        assert_eq!(v, Vt::from_millis(2));
    }
}
