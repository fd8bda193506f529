//! Push ≡ pull: a bound endpoint's sink is handed exactly what an
//! unbound endpoint's queue would have held. The queue *is* the default
//! sink, so this pins that the delivery path has no second branch whose
//! fates, order, stamps or counters could drift from the first.
//!
//! Per-link fates: what the wire does to a frame depends on its link and
//! its place on that link, not on how other senders' frames interleave
//! with it.
//!
//! Burst ≡ frames: a burst hands the sink the same frames, in the same
//! order, at the same arrivals, with the same counts, as its frames sent
//! one at a time — under seeded faults and under a schedule whose events
//! land mid-burst — in fewer deliveries.

use bytes::Bytes;
use clouds_simnet::{
    mix64, CostModel, Disruption, DisruptionKind, FaultPlan, FaultSchedule, Frame, Network,
    NetworkStats, NodeId, SplitMix64, Vt,
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
        receiver.bind(move |frames| pushed.lock().extend(frames.map(seen)));
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

// ---- a burst ≡ its frames sent one at a time ----------------------------

const SENDER: NodeId = NodeId(1);

/// One burst: payloads with their departure stamps.
type Burst = Vec<(Bytes, Vt)>;

/// `count` seeded bursts from [`SENDER`], in stamp order: 1 to 8 frames
/// each, of seeded size, leading with their burst's and their own index.
fn bursts(traffic_seed: u64, count: u32) -> Vec<Burst> {
    let mut rng = SplitMix64::new(mix64(traffic_seed));
    let mut clock = Vt::ZERO;
    (0..count)
        .map(|b| {
            clock += Vt::from_micros(rng.next_range(2_000));
            (0..1 + rng.next_range(8) as u32)
                .map(|i| {
                    clock += Vt::from_micros(1 + rng.next_range(300));
                    let mut payload = vec![0u8; 8 + rng.next_range(1392) as usize];
                    payload[..4].copy_from_slice(&b.to_le_bytes());
                    payload[4..8].copy_from_slice(&i.to_le_bytes());
                    (Bytes::from(payload), clock)
                })
                .collect()
        })
        .collect()
}

/// What the twin networks run under.
enum Wire<'a> {
    Plan(&'a FaultPlan),
    Schedule(&'a FaultSchedule),
}

/// Send `bursts` from [`SENDER`] to a recording sink at [`RECEIVER`],
/// each `whole` or frame by frame, then flush what reordering still
/// holds back.
fn send_bursts(
    net_seed: u64,
    bursts: &[Burst],
    wire: &Wire<'_>,
    whole: bool,
) -> (Vec<Seen>, NetworkStats) {
    let net = Network::with_seed(CostModel::sun3_ethernet(), net_seed);
    let sender = net.register(SENDER).unwrap();
    let mut receiver = net.register(RECEIVER).unwrap();
    let pushed = Arc::new(Mutex::new(Vec::new()));
    {
        let pushed = Arc::clone(&pushed);
        receiver.bind(move |frames| pushed.lock().extend(frames.map(seen)));
    }
    match wire {
        Wire::Plan(plan) => net.set_faults((*plan).clone()),
        Wire::Schedule(schedule) => net.set_schedule(schedule),
    }
    for burst in bursts {
        if whole {
            sender.send_burst(RECEIVER, burst.iter().cloned()).unwrap();
        } else {
            for (payload, stamp) in burst {
                sender.send_at(RECEIVER, payload.clone(), *stamp).unwrap();
            }
        }
    }
    let last = bursts
        .iter()
        .flatten()
        .map(|f| f.1)
        .max()
        .unwrap_or(Vt::ZERO);
    net.advance_schedule_to(last + Vt::from_millis(1));
    let delivered = std::mem::take(&mut *pushed.lock());
    (delivered, net.stats())
}

/// Every count but `deliveries`, which is what bursts save.
fn but_deliveries(stats: NetworkStats) -> NetworkStats {
    NetworkStats {
        deliveries: 0,
        ..stats
    }
}

/// Run `bursts` whole and frame by frame on twin networks: the same
/// frames, order, arrivals and counts; never more deliveries.
fn assert_burst_is_its_frames(net_seed: u64, bursts: &[Burst], wire: &Wire<'_>) {
    let (framed, framed_stats) = send_bursts(net_seed, bursts, wire, false);
    let (whole, whole_stats) = send_bursts(net_seed, bursts, wire, true);
    prop_assert!(!framed.is_empty());
    prop_assert_eq!(whole, framed);
    prop_assert_eq!(but_deliveries(whole_stats), but_deliveries(framed_stats));
    prop_assert!(whole_stats.deliveries <= framed_stats.deliveries);
}

/// The instant halfway between the first two frames of each burst that
/// has two: where an event lands mid-burst.
fn mid_burst_instants(bursts: &[Burst]) -> Vec<Vt> {
    bursts
        .iter()
        .filter(|burst| burst.len() >= 2)
        .map(|burst| Vt::from_nanos((burst[0].1.as_nanos() + burst[1].1.as_nanos()) / 2))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_burst_is_its_frames_sent_one_at_a_time(
        net_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
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
        assert_burst_is_its_frames(net_seed, &bursts(traffic_seed, 60), &Wire::Plan(&plan));
    }

    /// Every event lands between two frames of one burst: a partition
    /// opens and heals, the receiver crashes and restarts, and a reorder
    /// window closes, with seeded loss, duplication, corruption and
    /// jitter windows around them.
    #[test]
    fn a_burst_is_its_frames_when_schedule_events_land_mid_burst(
        net_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        reorder in 0.3f64..0.9,
        noise in 0.05f64..0.3,
    ) {
        let bursts = bursts(traffic_seed, 60);
        let mid = mid_burst_instants(&bursts);
        prop_assert!(mid.len() >= 8, "too few bursts of two frames");
        let window = |at: usize, until: usize, kind| Disruption { at: mid[at], until: mid[until], kind };
        let schedule = FaultSchedule {
            seed: 0,
            disruptions: vec![
                window(0, 4, DisruptionKind::Reorder(reorder)),
                window(1, 2, DisruptionKind::Partition { left: vec![SENDER], right: vec![RECEIVER] }),
                window(3, 5, DisruptionKind::Crash(RECEIVER)),
                window(2, 6, DisruptionKind::Duplication(noise)),
                window(4, 7, DisruptionKind::Loss(noise)),
                window(5, 7, DisruptionKind::Corruption(noise)),
                window(6, 7, DisruptionKind::Jitter(Vt::from_micros(500))),
            ],
        };
        assert_burst_is_its_frames(net_seed, &bursts, &Wire::Schedule(&schedule));
    }
}

#[test]
fn a_fault_free_burst_is_one_delivery() {
    let bursts = bursts(7, 20);
    let (delivered, stats) = send_bursts(1, &bursts, &Wire::Plan(&FaultPlan::none()), true);
    let frames: usize = bursts.iter().map(Vec::len).sum();
    assert_eq!(delivered.len(), frames);
    assert_eq!(stats.frames_sent, frames as u64);
    assert_eq!(stats.deliveries, bursts.len() as u64);
}

#[test]
fn a_destination_crashed_mid_burst_gets_exactly_the_frames_before_the_crash() {
    let burst: Burst = (1..=6u64)
        .map(|ms| (Bytes::from(vec![ms as u8; 100]), Vt::from_millis(ms)))
        .collect();
    let crash = FaultSchedule {
        seed: 0,
        disruptions: vec![Disruption {
            at: Vt::from_micros(3_500),
            until: Vt::from_millis(100),
            kind: DisruptionKind::Crash(RECEIVER),
        }],
    };
    let (delivered, stats) = send_bursts(1, &[burst], &Wire::Schedule(&crash), true);
    let got: Vec<u8> = delivered.iter().map(|seen| seen.1[0]).collect();
    assert_eq!(got, [1, 2, 3]);
    assert_eq!((stats.frames_sent, stats.frames_dropped), (3, 3));
    assert_eq!(
        stats.deliveries, 1,
        "the frames before the crash, handed over at it"
    );
}
