//! Fault injection: loss, duplication, jitter, reordering, corruption,
//! partitions.
//!
//! Node crash/restart is handled by [`crate::Network`] itself; this module
//! holds the *link* fault state. A frame's fate is a pure function of the
//! network's seed, its directed link and its index on that link
//! ([`FaultPlan::fate`]), so it does not depend on what other senders do
//! meanwhile.

use crate::splitmix::{mix64, SplitMix64};
use crate::table::{FastMap, FastSet};
use crate::time::Vt;
use crate::NodeId;

/// What the wire does to one frame; see [`FaultPlan::fate`]. The default
/// is a clean delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fate {
    /// The frame never arrives.
    pub lost: bool,
    /// A second copy arrives too.
    pub duplicated: bool,
    /// Extra delay on top of the modeled wire delay.
    pub jitter: Vt,
    /// The payload byte, and the bit in it, flipped in transit.
    pub corrupt_at: Option<(usize, u32)>,
    /// The frame is held back and delivered after later traffic to its
    /// destination.
    pub reordered: bool,
}

/// Declarative description of link faults, applied via
/// [`crate::Network::set_faults`] or mutated piecemeal through the
/// `Network` convenience methods.
///
/// ```
/// use clouds_simnet::{FaultPlan, NodeId};
/// let mut plan = FaultPlan::default();
/// plan.global_loss = 0.1;
/// plan.link_loss.insert((NodeId(1), NodeId(2)), 1.0);
/// assert_eq!(plan.loss_probability(NodeId(1), NodeId(2)), 1.0);
/// assert_eq!(plan.loss_probability(NodeId(2), NodeId(1)), 0.1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any frame is dropped.
    pub global_loss: f64,
    /// Per-directed-link loss probability, overriding `global_loss`.
    pub link_loss: FastMap<(NodeId, NodeId), f64>,
    /// Probability in `[0, 1]` that a delivered frame is duplicated.
    pub duplication: f64,
    /// Pairs of nodes that cannot communicate (both directions).
    pub partitions: FastSet<(NodeId, NodeId)>,
    /// Maximum extra delivery delay; each frame gets a uniform draw from
    /// `[0, jitter]` added to its modeled wire delay.
    pub jitter: Vt,
    /// Probability in `[0, 1]` that a frame is held back and delivered
    /// after later traffic to the same destination (reordering).
    pub reorder: f64,
    /// Probability in `[0, 1]` that a delivered frame has one payload byte
    /// flipped in transit.
    pub corruption: f64,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Effective loss probability for a frame `src → dst`.
    pub fn loss_probability(&self, src: NodeId, dst: NodeId) -> f64 {
        *self.link_loss.get(&(src, dst)).unwrap_or(&self.global_loss)
    }

    /// Whether no probabilistic fault can touch a frame `src → dst`:
    /// such a frame draws no fate and takes no index on its link.
    pub(crate) fn is_quiet(&self, src: NodeId, dst: NodeId) -> bool {
        self.loss_probability(src, dst) <= 0.0
            && self.duplication <= 0.0
            && self.jitter == Vt::ZERO
            && self.corruption <= 0.0
            && self.reorder <= 0.0
    }

    /// The fate of the `n`-th frame (counting from 0) that the link
    /// `src → dst` carried while this plan, or an earlier one, could draw
    /// for it, under network seed `seed`; `len` is its payload length.
    ///
    /// A pure function: the draws — loss, duplication, jitter, corruption
    /// (byte, then bit), reordering, in that order, each only if its
    /// fault is in force — come from a generator seeded by
    /// `mix64(mix64(seed ^ link) ^ n)`. Frames of other links, however
    /// they interleave with this one, cannot move them. Two threads of
    /// one node sending on the same link do still race for `n`: which
    /// frame is the `n`-th is the program's schedule, not the network's.
    pub fn fate(&self, seed: u64, src: NodeId, dst: NodeId, n: u64, len: usize) -> Fate {
        let link = u64::from(src.0) << 32 | u64::from(dst.0);
        let rng = &mut SplitMix64::new(mix64(mix64(seed ^ link) ^ n));
        let lost = chance(rng, self.loss_probability(src, dst));
        let duplicated = chance(rng, self.duplication);
        let jitter = if self.jitter > Vt::ZERO {
            let bound = self.jitter.as_nanos();
            Vt::from_nanos(rng.next_range(bound.saturating_add(1)))
        } else {
            Vt::ZERO
        };
        let corrupt_at = (len > 0 && chance(rng, self.corruption)).then(|| {
            (
                rng.next_range(len as u64) as usize,
                rng.next_range(8) as u32,
            )
        });
        let reordered = chance(rng, self.reorder);
        Fate {
            lost,
            duplicated,
            jitter,
            corrupt_at,
            reordered,
        }
    }

    /// Whether `a` and `b` are separated by a partition.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::key(a, b))
    }

    /// Cut communication between every node in `left` and every node in
    /// `right`.
    pub fn partition(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.partitions.insert(Self::key(a, b));
            }
        }
    }

    /// Reconnect every node in `left` with every node in `right`,
    /// removing exactly the pairs a matching [`FaultPlan::partition`]
    /// call added. Other partitions stay in force.
    pub fn unpartition(&mut self, left: &[NodeId], right: &[NodeId]) {
        for &a in left {
            for &b in right {
                self.partitions.remove(&Self::key(a, b));
            }
        }
    }

    /// Remove all partitions.
    ///
    /// This *only* reconnects partitioned nodes; probabilistic faults
    /// (loss, duplication, jitter, reordering, corruption) remain in
    /// force. Use [`FaultPlan::clear`] to return to a fault-free network.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Reset *all* fault state — loss (global and per-link), duplication,
    /// partitions, jitter, reordering and corruption — back to the
    /// fault-free default. Unlike [`FaultPlan::heal`], which only removes
    /// partitions, `clear` makes the plan equivalent to
    /// [`FaultPlan::none`].
    pub fn clear(&mut self) {
        *self = FaultPlan::default();
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// A draw that comes true with probability `p`; a fault not in force
/// (`p ≤ 0`) takes no draw.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    p > 0.0 && rng.next_f64() < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_symmetric() {
        let mut p = FaultPlan::none();
        p.partition(&[NodeId(1)], &[NodeId(2), NodeId(3)]);
        assert!(p.is_partitioned(NodeId(1), NodeId(2)));
        assert!(p.is_partitioned(NodeId(2), NodeId(1)));
        assert!(p.is_partitioned(NodeId(3), NodeId(1)));
        assert!(!p.is_partitioned(NodeId(2), NodeId(3)));
        p.heal();
        assert!(!p.is_partitioned(NodeId(1), NodeId(2)));
    }

    #[test]
    fn link_loss_overrides_global() {
        let mut p = FaultPlan::none();
        p.global_loss = 0.25;
        p.link_loss.insert((NodeId(5), NodeId(6)), 0.0);
        assert_eq!(p.loss_probability(NodeId(5), NodeId(6)), 0.0);
        assert_eq!(p.loss_probability(NodeId(6), NodeId(5)), 0.25);
    }

    #[test]
    fn unpartition_removes_only_matching_pairs() {
        let mut p = FaultPlan::none();
        p.partition(&[NodeId(1)], &[NodeId(2)]);
        p.partition(&[NodeId(3)], &[NodeId(4)]);
        p.unpartition(&[NodeId(2)], &[NodeId(1)]); // order-insensitive
        assert!(!p.is_partitioned(NodeId(1), NodeId(2)));
        assert!(p.is_partitioned(NodeId(3), NodeId(4)));
    }

    #[test]
    fn heal_leaves_probabilistic_faults_in_force() {
        let mut p = FaultPlan::none();
        p.global_loss = 0.5;
        p.link_loss.insert((NodeId(1), NodeId(2)), 1.0);
        p.duplication = 0.25;
        p.jitter = Vt::from_millis(3);
        p.reorder = 0.1;
        p.corruption = 0.01;
        p.partition(&[NodeId(1)], &[NodeId(2)]);

        p.heal();
        assert!(!p.is_partitioned(NodeId(1), NodeId(2)));
        assert_eq!(p.global_loss, 0.5);
        assert_eq!(p.loss_probability(NodeId(1), NodeId(2)), 1.0);
        assert_eq!(p.duplication, 0.25);
        assert_eq!(p.jitter, Vt::from_millis(3));
        assert_eq!(p.reorder, 0.1);
        assert_eq!(p.corruption, 0.01);
    }

    #[test]
    fn clear_resets_every_fault_axis() {
        let mut p = FaultPlan::none();
        p.global_loss = 0.5;
        p.link_loss.insert((NodeId(1), NodeId(2)), 1.0);
        p.duplication = 0.25;
        p.jitter = Vt::from_millis(3);
        p.reorder = 0.1;
        p.corruption = 0.01;
        p.partition(&[NodeId(1)], &[NodeId(2)]);

        p.clear();
        assert_eq!(p.global_loss, 0.0);
        assert!(p.link_loss.is_empty());
        assert_eq!(p.duplication, 0.0);
        assert!(p.partitions.is_empty());
        assert_eq!(p.jitter, Vt::ZERO);
        assert_eq!(p.reorder, 0.0);
        assert_eq!(p.corruption, 0.0);
    }

    #[test]
    fn a_fate_depends_on_seed_link_and_index_only() {
        let mut p = FaultPlan::none();
        assert!(p.is_quiet(NodeId(1), NodeId(2)));
        p.global_loss = 0.5;
        p.jitter = Vt::from_millis(1);
        assert!(!p.is_quiet(NodeId(1), NodeId(2)));
        let fates = |seed, src, dst| -> Vec<Fate> {
            (0..64)
                .map(|n| p.fate(seed, NodeId(src), NodeId(dst), n, 100))
                .collect()
        };
        assert_eq!(fates(7, 1, 2), fates(7, 1, 2));
        for other in [fates(8, 1, 2), fates(7, 2, 1), fates(7, 1, 3)] {
            assert_ne!(fates(7, 1, 2), other);
        }
        let lost = fates(7, 1, 2).iter().filter(|f| f.lost).count();
        assert!((16..48).contains(&lost), "{lost} of 64 lost at p = 0.5");
        // A fault not in force draws nothing: a clean fate.
        p.global_loss = 0.0;
        p.jitter = Vt::ZERO;
        assert_eq!(p.fate(7, NodeId(1), NodeId(2), 0, 100), Fate::default());
    }
}
