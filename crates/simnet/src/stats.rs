//! Network traffic counters, used by the experiments (e.g. DSM page
//! traffic in experiment E4).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the network; snapshot with
/// [`Stats::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_duplicated: AtomicU64,
    pub frames_corrupted: AtomicU64,
    pub frames_reordered: AtomicU64,
    pub deliveries: AtomicU64,
}

impl Stats {
    /// Add what one walk over a burst counted.
    pub(crate) fn add(&self, tally: &Tally) {
        let counters = [
            (&self.frames_sent, tally.sent),
            (&self.bytes_sent, tally.bytes),
            (&self.frames_dropped, tally.dropped),
            (&self.frames_duplicated, tally.duplicated),
            (&self.frames_corrupted, tally.corrupted),
            (&self.frames_reordered, tally.reordered),
        ];
        for (counter, n) in counters {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> NetworkStats {
        NetworkStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_duplicated: self.frames_duplicated.load(Ordering::Relaxed),
            frames_corrupted: self.frames_corrupted.load(Ordering::Relaxed),
            frames_reordered: self.frames_reordered.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
        }
    }
}

/// What a walk over a burst counts as it goes, for [`Stats::add`] to
/// add at once.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub sent: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    pub reordered: u64,
}

/// A point-in-time snapshot of network traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Frames successfully enqueued for delivery.
    pub frames_sent: u64,
    /// Total payload bytes of delivered frames.
    pub bytes_sent: u64,
    /// Frames dropped by loss, partitions, or crashed destinations.
    pub frames_dropped: u64,
    /// Extra copies injected by duplication faults.
    pub frames_duplicated: u64,
    /// Frames whose payload had a bit flipped by corruption faults.
    pub frames_corrupted: u64,
    /// Frames held back and delivered out of order by reorder faults.
    pub frames_reordered: u64,
    /// Hand-overs to a node's sink, each a [`Delivery`](crate::Delivery)
    /// of one or more frames: one per burst that has a frame survive the
    /// wire, one more for each fault-schedule event inside a burst, and
    /// one per destination of the frames a closing reorder window
    /// releases.
    pub deliveries: u64,
}

impl NetworkStats {
    /// Difference between two snapshots (`self` must be the later one).
    pub fn since(&self, earlier: &NetworkStats) -> NetworkStats {
        NetworkStats {
            frames_sent: self.frames_sent - earlier.frames_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            frames_dropped: self.frames_dropped - earlier.frames_dropped,
            frames_duplicated: self.frames_duplicated - earlier.frames_duplicated,
            frames_corrupted: self.frames_corrupted - earlier.frames_corrupted,
            frames_reordered: self.frames_reordered - earlier.frames_reordered,
            deliveries: self.deliveries - earlier.deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = Stats::default();
        s.frames_sent.store(10, Ordering::Relaxed);
        s.bytes_sent.store(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.frames_sent.store(15, Ordering::Relaxed);
        s.bytes_sent.store(180, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.frames_sent, 5);
        assert_eq!(d.bytes_sent, 80);
    }
}
