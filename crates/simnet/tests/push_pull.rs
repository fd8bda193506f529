//! Push ≡ pull: a bound endpoint's sink is handed exactly what an
//! unbound endpoint's queue would have held. The queue *is* the default
//! sink, so this pins that the delivery path has no second branch whose
//! fates, order, stamps or counters could drift from the first.

use bytes::Bytes;
use clouds_simnet::{CostModel, FaultPlan, Frame, Network, NetworkStats, NodeId, Vt};
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const RECEIVER: NodeId = NodeId(2);

/// What identifies a delivery: everything in the frame.
type Seen = (NodeId, Vec<u8>, Vt, u64);

fn seen(frame: Frame) -> Seen {
    (frame.src, frame.payload.to_vec(), frame.arrival, frame.seq)
}

/// One seeded run from one thread: two senders take turns (unevenly)
/// sending frames of seeded sizes to the receiver, their clocks moving
/// between sends, under `plan`; whatever reordering still holds back at
/// the end is flushed.
fn run(
    net_seed: u64,
    traffic_seed: u64,
    plan: &FaultPlan,
    bound: bool,
) -> (Vec<Seen>, NetworkStats) {
    let net = Network::with_seed(CostModel::sun3_ethernet(), net_seed);
    let senders = [
        net.register(NodeId(1)).unwrap(),
        net.register(NodeId(3)).unwrap(),
    ];
    let mut receiver = net.register(RECEIVER).unwrap();
    let pushed = Arc::new(Mutex::new(Vec::new()));
    if bound {
        let pushed = Arc::clone(&pushed);
        receiver.bind(move |frame| pushed.lock().push(seen(frame)));
    }
    net.set_faults(plan.clone());
    let mut traffic = StdRng::seed_from_u64(traffic_seed);
    for i in 0..200u32 {
        let sender = &senders[usize::from(traffic.gen_bool(0.3))];
        sender
            .clock()
            .charge(Vt::from_micros(traffic.gen_range(0..500)));
        let mut payload = vec![0u8; traffic.gen_range(4..1400)];
        payload[..4].copy_from_slice(&i.to_le_bytes());
        sender.send(RECEIVER, Bytes::from(payload)).unwrap();
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
        let (pulled, pull_stats) = run(net_seed, traffic_seed, &plan, false);
        let (pushed, push_stats) = run(net_seed, traffic_seed, &plan, true);
        prop_assert!(!pulled.is_empty());
        prop_assert_eq!(pushed, pulled);
        prop_assert_eq!(push_stats, pull_stats);
    }
}
