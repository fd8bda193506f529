//! Push ≡ pull: a bound endpoint's sink is handed exactly what an
//! unbound endpoint's queue would have held. The queue *is* the default
//! sink, so this pins that the delivery path has no second branch whose
//! fates, order, stamps or counters could drift from the first.
//!
//! Per-link fates: what the wire does to a frame depends on its link and
//! its place on that link, not on how other senders' frames interleave
//! with it.

use bytes::Bytes;
use clouds_simnet::{
    mix64, CostModel, FaultPlan, Frame, Network, NetworkStats, NodeId, SplitMix64, Vt,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const RECEIVER: NodeId = NodeId(2);
const SENDERS: [NodeId; 2] = [NodeId(1), NodeId(3)];
/// Frames each sender sends.
const PER_LINK: usize = 100;

/// What identifies a delivery: everything in the frame.
type Seen = (NodeId, Vec<u8>, Vt);

fn seen(frame: Frame) -> Seen {
    (frame.src, frame.payload.to_vec(), frame.arrival)
}

/// One sender's frames, in sending order, seeded by `traffic_seed` and
/// the sender: how far its clock moves before each send, and a payload
/// of seeded size that leads with its index on the link.
fn link_frames(traffic_seed: u64, sender: NodeId) -> Vec<(Vt, Bytes)> {
    let mut rng = SplitMix64::new(mix64(traffic_seed ^ u64::from(sender.0)));
    (0..PER_LINK as u32)
        .map(|i| {
            let charge = Vt::from_micros(rng.next_range(500));
            let mut payload = vec![0u8; 4 + rng.next_range(1396) as usize];
            payload[..4].copy_from_slice(&i.to_le_bytes());
            (charge, Bytes::from(payload))
        })
        .collect()
}

/// One seeded run from one thread: the senders' [`link_frames`] go out
/// merged into one sequence that `merge_seed` shuffles, under `plan`;
/// whatever reordering still holds back at the end is flushed.
fn run(
    net_seed: u64,
    traffic_seed: u64,
    merge_seed: u64,
    plan: &FaultPlan,
    bound: bool,
) -> (Vec<Seen>, NetworkStats) {
    let net = Network::with_seed(CostModel::sun3_ethernet(), net_seed);
    let senders = SENDERS.map(|id| net.register(id).unwrap());
    let mut receiver = net.register(RECEIVER).unwrap();
    let pushed = Arc::new(Mutex::new(Vec::new()));
    if bound {
        let pushed = Arc::clone(&pushed);
        receiver.bind(move |frame| pushed.lock().push(seen(frame)));
    }
    net.set_faults(plan.clone());
    // Which sender goes next: each one `PER_LINK` times, Fisher–Yates
    // shuffled.
    let mut order: Vec<usize> = (0..SENDERS.len() * PER_LINK)
        .map(|i| i % SENDERS.len())
        .collect();
    let mut merge = SplitMix64::new(merge_seed);
    for i in (1..order.len()).rev() {
        order.swap(i, merge.next_range(i as u64 + 1) as usize);
    }
    let mut lists = SENDERS.map(|id| link_frames(traffic_seed, id).into_iter());
    for who in order {
        let (charge, payload) = lists[who].next().unwrap();
        senders[who].clock().charge(charge);
        senders[who].send(RECEIVER, payload).unwrap();
    }
    net.advance_schedule_to(Vt::ZERO);
    let delivered = if bound {
        std::mem::take(&mut *pushed.lock())
    } else {
        std::iter::from_fn(|| receiver.try_recv().ok())
            .map(seen)
            .collect()
    };
    (delivered, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_bound_sink_sees_what_an_unbound_queue_holds(
        net_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        merge_seed in any::<u64>(),
        loss in 0.0f64..0.4,
        duplication in 0.0f64..0.4,
        corruption in 0.0f64..0.4,
        reorder in 0.0f64..0.6,
        jitter_us in 0u64..2_000,
    ) {
        let plan = FaultPlan {
            global_loss: loss,
            duplication,
            corruption,
            reorder,
            jitter: Vt::from_micros(jitter_us),
            ..FaultPlan::none()
        };
        let (pulled, pull_stats) = run(net_seed, traffic_seed, merge_seed, &plan, false);
        let (pushed, push_stats) = run(net_seed, traffic_seed, merge_seed, &plan, true);
        prop_assert!(!pulled.is_empty());
        prop_assert_eq!(pushed, pulled);
        prop_assert_eq!(push_stats, pull_stats);
    }

    /// Two merges of the same per-link frame lists: each link delivers
    /// the same frames at the same instants, and the network counts the
    /// same drops, copies and flips. Reordering is left out, because its
    /// limbo is per destination and so mixes links by design.
    #[test]
    fn fates_do_not_depend_on_how_senders_interleave(
        net_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        merge_a in any::<u64>(),
        merge_b in any::<u64>(),
        loss in 0.0f64..0.4,
        duplication in 0.0f64..0.4,
        corruption in 0.0f64..0.4,
        jitter_us in 0u64..2_000,
    ) {
        let plan = FaultPlan {
            global_loss: loss,
            duplication,
            corruption,
            jitter: Vt::from_micros(jitter_us),
            ..FaultPlan::none()
        };
        let (a, a_stats) = run(net_seed, traffic_seed, merge_a, &plan, true);
        let (b, b_stats) = run(net_seed, traffic_seed, merge_b, &plan, true);
        for sender in SENDERS {
            let link = |seen: &[Seen]| -> Vec<Seen> {
                seen.iter().filter(|s| s.0 == sender).cloned().collect()
            };
            prop_assert_eq!(link(&a), link(&b), "link {} → {}", sender, RECEIVER);
        }
        prop_assert_eq!(a_stats, b_stats);
    }
}
