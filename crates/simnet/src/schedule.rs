//! Time-varying fault schedules: the chaos engine's input language.
//!
//! A [`FaultSchedule`] is a list of [`Disruption`]s — windows of virtual
//! time during which one fault (node crash, partition, loss, duplication,
//! jitter, reordering, corruption) is in force. Schedules are either built
//! by hand or generated from a single `u64` seed with
//! [`FaultSchedule::generate`], which makes every chaos run replayable
//! from one number.
//!
//! A schedule compiles ([`FaultSchedule::events`]) into a time-sorted list
//! of paired start/end [`FaultEvent`]s. The pairing matters for shrinking:
//! removing a whole [`Disruption`] (via [`FaultSchedule::without`]) always
//! removes both its onset and its recovery, so a shrunk schedule can never
//! leave a node crashed or a partition open "for free".
//!
//! The [`crate::Network`] applies events lazily as virtual time advances
//! past them (see [`crate::Network::set_schedule`]), so no real-time timers
//! are involved and runs stay reproducible.

use crate::time::Vt;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One kind of fault a [`Disruption`] injects while active.
#[derive(Debug, Clone, PartialEq)]
pub enum DisruptionKind {
    /// Crash a node at the window start; restart it at the window end.
    Crash(NodeId),
    /// Partition the `left` node set from the `right` set, healing those
    /// pairs (and only those pairs) at the window end.
    Partition {
        /// Nodes on one side of the cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Global frame loss probability while active.
    Loss(f64),
    /// Frame duplication probability while active.
    Duplication(f64),
    /// Maximum extra per-frame delay while active.
    Jitter(Vt),
    /// Frame reordering probability while active.
    Reorder(f64),
    /// Single-bit payload corruption probability while active.
    Corruption(f64),
}

impl fmt::Display for DisruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisruptionKind::Crash(id) => write!(f, "crash {id}"),
            DisruptionKind::Partition { left, right } => {
                write!(f, "partition {left:?} | {right:?}")
            }
            DisruptionKind::Loss(p) => write!(f, "loss {p:.2}"),
            DisruptionKind::Duplication(p) => write!(f, "duplication {p:.2}"),
            DisruptionKind::Jitter(j) => write!(f, "jitter {j}"),
            DisruptionKind::Reorder(p) => write!(f, "reorder {p:.2}"),
            DisruptionKind::Corruption(p) => write!(f, "corruption {p:.2}"),
        }
    }
}

/// One fault window: `kind` is in force for virtual times in
/// `[at, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Disruption {
    /// Window start (inclusive).
    pub at: Vt,
    /// Window end (exclusive); the recovery action fires here.
    pub until: Vt,
    /// The fault in force during the window.
    pub kind: DisruptionKind,
}

impl fmt::Display for Disruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} → {}] {}", self.at, self.until, self.kind)
    }
}

/// What a single compiled [`FaultEvent`] does to the network.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Mark a node crashed.
    Crash(NodeId),
    /// Restart a crashed node, discarding frames queued while down.
    Restart(NodeId),
    /// Open a partition between two node sets.
    Partition {
        /// Nodes on one side of the cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Heal exactly the pairs a matching `Partition` opened.
    Unpartition {
        /// Nodes on one side of the healed cut.
        left: Vec<NodeId>,
        /// Nodes on the other side.
        right: Vec<NodeId>,
    },
    /// Set the global loss probability.
    SetLoss(f64),
    /// Set the duplication probability.
    SetDuplication(f64),
    /// Set the maximum per-frame jitter.
    SetJitter(Vt),
    /// Set the reordering probability.
    SetReorder(f64),
    /// Set the corruption probability.
    SetCorruption(f64),
}

/// One compiled schedule entry: apply `action` once virtual time reaches
/// `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual-time threshold.
    pub at: Vt,
    /// True for a disruption onset, false for its recovery; recoveries
    /// sort before onsets at the same instant.
    pub is_start: bool,
    /// The state change to apply.
    pub action: FaultAction,
}

/// A complete chaos scenario: a seed (for provenance) plus the disruption
/// windows to apply. Overlapping windows of the *same* probabilistic kind
/// resolve last-writer-wins; crash and partition windows compose freely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Seed this schedule was generated from (0 for hand-built ones);
    /// printed in failure reports so runs can be replayed.
    pub seed: u64,
    /// The fault windows, in no particular order.
    pub disruptions: Vec<Disruption>,
}

impl FaultSchedule {
    /// An empty schedule (no faults ever).
    pub fn empty() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            disruptions: Vec::new(),
        }
    }

    /// Generate a schedule from a single seed.
    ///
    /// `nodes` are the machines eligible for crash/partition disruptions
    /// (callers exclude nodes the workload cannot survive losing);
    /// probabilistic link faults always apply network-wide. Every window
    /// closes at or before `horizon`, so a run that advances virtual time
    /// to `horizon` (see [`crate::Network::advance_schedule_to`]) is
    /// guaranteed to end fully healed.
    ///
    /// The same `(seed, nodes, horizon)` triple always yields the same
    /// schedule. A horizon too short to fit any window (< 16 ns) yields an
    /// empty, fault-free schedule — windows past the horizon would never
    /// be healed by a run that only advances that far.
    pub fn generate(seed: u64, nodes: &[NodeId], horizon: Vt) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = horizon.as_nanos();
        if h < 16 {
            return FaultSchedule {
                seed,
                disruptions: Vec::new(),
            };
        }
        let count = rng.gen_range(3..=7usize);
        let mut disruptions = Vec::with_capacity(count);
        for _ in 0..count {
            let at = Vt::from_nanos(rng.gen_range(0..h * 3 / 4));
            let dur = Vt::from_nanos(rng.gen_range(h / 16..=h / 3));
            let until = Vt::from_nanos((at + dur).as_nanos().min(h));
            let kind = match rng.gen_range(0..100u32) {
                0..=19 if !nodes.is_empty() => {
                    DisruptionKind::Crash(nodes[rng.gen_range(0..nodes.len())])
                }
                20..=34 if nodes.len() >= 2 => {
                    let mut pool = nodes.to_vec();
                    let left_size = rng.gen_range(1..pool.len());
                    for i in 0..left_size {
                        let j = rng.gen_range(i..pool.len());
                        pool.swap(i, j);
                    }
                    let right = pool.split_off(left_size);
                    DisruptionKind::Partition { left: pool, right }
                }
                0..=49 => DisruptionKind::Loss(rng.gen_range(0.05..0.40)),
                50..=59 => DisruptionKind::Duplication(rng.gen_range(0.05..0.30)),
                60..=74 => DisruptionKind::Jitter(Vt::from_nanos(rng.gen_range(h / 256..=h / 32))),
                75..=87 => DisruptionKind::Reorder(rng.gen_range(0.10..0.50)),
                _ => DisruptionKind::Corruption(rng.gen_range(0.05..0.30)),
            };
            disruptions.push(Disruption { at, until, kind });
        }
        FaultSchedule { seed, disruptions }
    }

    /// Copy of this schedule with disruption `idx` removed — the shrink
    /// step used by the chaos harness to minimise failing schedules.
    pub fn without(&self, idx: usize) -> FaultSchedule {
        let mut disruptions = self.disruptions.clone();
        disruptions.remove(idx);
        FaultSchedule {
            seed: self.seed,
            disruptions,
        }
    }

    /// Latest recovery instant across all windows, i.e. the earliest
    /// virtual time by which the network is guaranteed fault-free again.
    pub fn healed_by(&self) -> Vt {
        self.disruptions
            .iter()
            .map(|d| d.until)
            .max()
            .unwrap_or(Vt::ZERO)
    }

    /// Compile to a time-sorted event list. Each disruption contributes a
    /// start event at `at` and a recovery event at `until`; recoveries
    /// sort before onsets at the same instant so a window ending exactly
    /// when another begins does not cancel the newcomer.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = Vec::with_capacity(self.disruptions.len() * 2);
        for d in &self.disruptions {
            let (start, end) = match &d.kind {
                DisruptionKind::Crash(id) => (FaultAction::Crash(*id), FaultAction::Restart(*id)),
                DisruptionKind::Partition { left, right } => (
                    FaultAction::Partition {
                        left: left.clone(),
                        right: right.clone(),
                    },
                    FaultAction::Unpartition {
                        left: left.clone(),
                        right: right.clone(),
                    },
                ),
                DisruptionKind::Loss(p) => (FaultAction::SetLoss(*p), FaultAction::SetLoss(0.0)),
                DisruptionKind::Duplication(p) => (
                    FaultAction::SetDuplication(*p),
                    FaultAction::SetDuplication(0.0),
                ),
                DisruptionKind::Jitter(j) => {
                    (FaultAction::SetJitter(*j), FaultAction::SetJitter(Vt::ZERO))
                }
                DisruptionKind::Reorder(p) => {
                    (FaultAction::SetReorder(*p), FaultAction::SetReorder(0.0))
                }
                DisruptionKind::Corruption(p) => (
                    FaultAction::SetCorruption(*p),
                    FaultAction::SetCorruption(0.0),
                ),
            };
            events.push(FaultEvent {
                at: d.at,
                is_start: true,
                action: start,
            });
            events.push(FaultEvent {
                at: d.until,
                is_start: false,
                action: end,
            });
        }
        events.sort_by_key(|e| (e.at, e.is_start));
        events
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule seed={:#x} ({} disruptions)",
            self.seed,
            self.disruptions.len()
        )?;
        for d in &self.disruptions {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultSchedule::generate(0xBEEF, &nodes(4), Vt::from_millis(100));
        let b = FaultSchedule::generate(0xBEEF, &nodes(4), Vt::from_millis(100));
        assert_eq!(a, b);
        assert!(!a.disruptions.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSchedule::generate(1, &nodes(4), Vt::from_millis(100));
        let b = FaultSchedule::generate(2, &nodes(4), Vt::from_millis(100));
        assert_ne!(a, b);
    }

    #[test]
    fn windows_close_by_horizon() {
        let horizon = Vt::from_millis(50);
        for seed in 0..50 {
            let s = FaultSchedule::generate(seed, &nodes(5), horizon);
            for d in &s.disruptions {
                assert!(d.at < d.until, "empty window in {s}");
                assert!(d.until <= horizon, "window past horizon in {s}");
            }
            assert!(s.healed_by() <= horizon);
        }
    }

    #[test]
    fn degenerate_horizon_yields_empty_schedule() {
        // A window that cannot close by the horizon must not exist at all:
        // a run advancing only to the horizon would never heal it.
        for seed in 0..20 {
            for h in [Vt::ZERO, Vt::from_nanos(1), Vt::from_nanos(15)] {
                let s = FaultSchedule::generate(seed, &nodes(3), h);
                assert!(s.disruptions.is_empty(), "{s}");
                assert_eq!(s.healed_by(), Vt::ZERO);
            }
        }
    }

    #[test]
    fn events_are_sorted_and_paired() {
        let s = FaultSchedule::generate(7, &nodes(4), Vt::from_millis(100));
        let events = s.events();
        assert_eq!(events.len(), s.disruptions.len() * 2);
        for pair in events.windows(2) {
            assert!((pair[0].at, pair[0].is_start) <= (pair[1].at, pair[1].is_start));
        }
        let starts = events.iter().filter(|e| e.is_start).count();
        assert_eq!(starts * 2, events.len());
        // Every crash has a matching restart.
        for e in &events {
            if let FaultAction::Crash(id) = e.action {
                assert!(events
                    .iter()
                    .any(|r| r.action == FaultAction::Restart(id) && r.at >= e.at));
            }
        }
    }

    #[test]
    fn recovery_sorts_before_onset_at_same_instant() {
        let s = FaultSchedule {
            seed: 0,
            disruptions: vec![
                Disruption {
                    at: Vt::ZERO,
                    until: Vt::from_millis(1),
                    kind: DisruptionKind::Loss(0.5),
                },
                Disruption {
                    at: Vt::from_millis(1),
                    until: Vt::from_millis(2),
                    kind: DisruptionKind::Loss(0.9),
                },
            ],
        };
        let events = s.events();
        // At t=1ms the first window's recovery (loss→0) must precede the
        // second window's onset (loss→0.9).
        assert_eq!(events[1].at, Vt::from_millis(1));
        assert!(!events[1].is_start);
        assert_eq!(events[2].at, Vt::from_millis(1));
        assert!(events[2].is_start);
    }

    #[test]
    fn without_removes_one_disruption() {
        let s = FaultSchedule::generate(3, &nodes(3), Vt::from_millis(10));
        let n = s.disruptions.len();
        let shrunk = s.without(0);
        assert_eq!(shrunk.disruptions.len(), n - 1);
        assert_eq!(shrunk.seed, s.seed);
        assert_eq!(&shrunk.disruptions[..], &s.disruptions[1..]);
    }

    #[test]
    fn crash_windows_only_use_eligible_nodes() {
        for seed in 0..40 {
            let eligible = nodes(2);
            let s = FaultSchedule::generate(seed, &eligible, Vt::from_millis(20));
            for d in &s.disruptions {
                match &d.kind {
                    DisruptionKind::Crash(id) => assert!(eligible.contains(id)),
                    DisruptionKind::Partition { left, right } => {
                        assert!(!left.is_empty() && !right.is_empty());
                        for id in left.iter().chain(right) {
                            assert!(eligible.contains(id));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn empty_node_list_yields_link_faults_only() {
        for seed in 0..20 {
            let s = FaultSchedule::generate(seed, &[], Vt::from_millis(20));
            for d in &s.disruptions {
                assert!(!matches!(
                    d.kind,
                    DisruptionKind::Crash(_) | DisruptionKind::Partition { .. }
                ));
            }
        }
    }
}
